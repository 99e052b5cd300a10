"""Convex polytopes given by their vertices.

A :class:`Polytope` is the boundary surface of a compact convex body in
``R^d`` (``2 <= d <= 4``), stored as vertex coordinates plus one vertex-index
list per facet.  Documents are plain JSON objects with fields ``dim``,
``vertices``, optional ``facets`` and optional ``name``; indices are 0-based.

The vertices fix the surface, so facets, facet planes and measures come from
Qhull (``scipy.spatial.ConvexHull``).  A facet is the maximal set of vertices
within the tolerance of one of Qhull's facet planes and inside no other such
set, and it keeps that plane, so coplanar hull triangles collapse into one
polygon.  Two checks follow: facets must not overlap (rounded coordinates can
leave a bent face near no single plane), and each vertex must lie on at least
``d`` facets, which a point on a face, or inside the hull, fails.  A
document's facet list, when given, must list the hull's facets in any order,
so a list with a facet missing is rejected instead of leaving the surface
open.  In d = 3 each facet ring edge must lie on two facets, so the rings
close the surface.  Every check runs at construction.  Measures (facet
areas, cell volumes) are hull volumes in the affine span of the points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import (
    BadDocument,
    DegenerateFacet,
    DimensionTooHigh,
    InvalidPolytope,
    NotFullDimensional,
    checked_int,
)

#: Vertex-plane tolerance, in coordinate units.
TOL = 1e-9

#: Vertices closer than this are merged on load.
MERGE_TOL = 1e-9

MAX_DIM = 4

#: Largest coordinate magnitude accepted on load, one bound for every
#: dimension below where a scaled shape stops building exactly: the
#: hypercube builds at 10^51, the cube at 10^76 (past that Qhull rejects
#: the initial simplex as flat) and the square at 10^153 (past that
#: scipy's KD-tree overflows).
MAX_COORD = 1e50

# Qhull planes per block of the vertex-plane residual matrix: its full m x F
# size is 1.6 GB at 10^4 points on a sphere, one block is m x 256
_PLANE_BLOCK = 256


# ---------------------------------------------------------------------------
# low-level geometry helpers
# ---------------------------------------------------------------------------

def affine_span(points: np.ndarray):
    """Origin, orthonormal basis and rank of the affine span of ``points``."""
    pts = np.asarray(points, dtype=float)
    origin = pts.mean(axis=0)
    _, sv, vt = np.linalg.svd(pts - origin, full_matrices=False)
    cutoff = TOL * max(1.0, sv[0] if len(sv) else 1.0)
    rank = int((sv > cutoff).sum())
    return origin, vt[:rank], rank


def _hull(points: np.ndarray) -> ConvexHull:
    try:
        return ConvexHull(points)
    except QhullError as exc:
        raise NotFullDimensional(f"Qhull rejected the points: {exc}") from None


def enumerate_facets(
    vertices: np.ndarray,
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Facets of the convex hull of points, 2 <= d <= 4, with their planes.

    Each Qhull facet plane yields the set of points within ``TOL * scale`` of
    it; the sets no other one contains are the facets, as sorted index tuples
    in lexicographic order.  Each facet takes the first plane, in Qhull's
    order, whose set it is; returns ``(facets, normals, offsets)`` with
    outward unit normals, so a facet plane is {normal . x = offset}.
    The point-plane residuals are computed for ``_PLANE_BLOCK`` planes at a
    time, so memory grows with the number of points, not points x planes.

    Raises InvalidPolytope when facets overlap: when the Qhull simplices
    that lie in two or more facets measure more than
    ``sqrt(TOL) * scale**(d-1)`` in all.  A flat simplex on the ridge of two
    facets measures O(TOL * scale**(d-1)); a facet that is split into
    overlapping near-planar sets (rounded coordinates) shares simplices of
    measure O(scale**(d-1)).
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2:
        raise NotFullDimensional("vertex array must be 2-dimensional")
    m, d = verts.shape
    if d > MAX_DIM:
        raise DimensionTooHigh(f"ambient dimension {d} > {MAX_DIM}")
    if d < 2:
        raise NotFullDimensional("ambient dimension must be at least 2")
    _, _, rank = affine_span(verts)
    if rank < d or m < d + 1:
        raise NotFullDimensional(
            f"{m} vertices span {rank} dimensions, expected {d}"
        )
    hull = _hull(verts)
    planes = hull.equations
    scale = max(1.0, float(np.abs(verts).max()))
    first: dict[tuple[int, ...], int] = {}
    for lo in range(0, len(planes), _PLANE_BLOCK):
        block = planes[lo : lo + _PLANE_BLOCK]
        resid = verts @ block[:, :-1].T
        resid += block[:, -1]
        near = np.abs(resid, out=resid) <= TOL * scale
        vertex, plane = np.divmod(np.flatnonzero(near), len(block))
        # each plane's vertices, ascending, one run per plane
        vertex = vertex[np.argsort(plane, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(plane, minlength=len(block))).tolist()
        for p, (start, end) in enumerate(zip([0] + ends, ends)):
            first.setdefault(tuple(vertex[start:end]), lo + p)
    facets = _maximal(sorted(first))
    overlap = _shared_measure(verts, hull.simplices, facets)
    if overlap > math.sqrt(TOL) * scale ** (d - 1):
        raise InvalidPolytope(
            f"facets overlap: Qhull simplices of measure {overlap:.3g} lie in "
            "two or more of them (coordinates rounded off a flat face?)"
        )
    chosen = [first[f] for f in facets]
    return facets, planes[chosen, :-1], -planes[chosen, -1]


def _shared_measure(verts, simplices, facets) -> float:
    """Total (d-1)-measure of the simplices that lie in more than one facet.

    Only facets of more than d vertices can share a simplex: a facet of d
    vertices is the simplex itself, and facets do not nest.  A simplex lies
    in a facet when the facet holds all its vertices, read from a boolean
    (vertex, facet) table of ``_PLANE_BLOCK`` facets at a time, for the
    simplices whose vertices all lie on the block's facets.
    """
    m, d = verts.shape
    big = [f for f in facets if len(f) > d]
    if len(big) < 2:
        return 0.0
    holders = np.zeros(len(simplices), np.intp)
    for lo in range(0, len(big), _PLANE_BLOCK):
        block = big[lo : lo + _PLANE_BLOCK]
        member = np.zeros((m, len(block)), bool)
        member[list(chain.from_iterable(block)),
               np.repeat(np.arange(len(block)), [len(f) for f in block])] = True
        near = np.flatnonzero(member.any(axis=1)[simplices].all(axis=1))
        holders[near] += member[simplices[near]].all(axis=1).sum(axis=1)
    edges = verts[simplices[:, 1:]] - verts[simplices[:, :1]]
    gram = np.abs(np.linalg.det(edges @ edges.transpose(0, 2, 1)))
    return float(np.sqrt(gram[holders > 1]).sum()) / math.factorial(d - 1)


def _incidence(index_lists, width: int) -> csr_matrix:
    """0/1 matrix whose row i has its ones at the indices in index_lists[i]."""
    indptr = np.cumsum([0] + [len(row) for row in index_lists])
    indices = np.fromiter(chain.from_iterable(index_lists), np.intp, indptr[-1])
    return csr_matrix(
        (np.ones(indptr[-1]), indices, indptr),
        shape=(len(index_lists), width),
    )


def _maximal(sets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The index sets no other one contains: distinct facets of a convex body
    never nest, so a set inside another is a flat Qhull simplex within a real
    facet (seen on rounded coordinates).  Only a set larger than the
    smallest can contain another, so a hull of equal-size sets (every
    triangulated hull) needs no comparison."""
    smallest = min(map(len, sets))
    holding: dict[int, list[set[int]]] = {}
    for t in (set(t) for t in sets if len(t) > smallest):
        for v in t:
            holding.setdefault(v, []).append(t)
    return [s for s in sets if not any(map(set(s).__lt__, holding.get(s[0], ())))]


def polytope_measure(points: np.ndarray) -> float:
    """k-dimensional measure of the convex hull of points.

    The dimension k is the affine rank of the point set; the hull is measured
    in local coordinates of that span.
    """
    pts = np.asarray(points, dtype=float)
    origin, basis, rank = affine_span(pts)
    if rank == 0:
        return 0.0
    local = (pts - origin) @ basis.T
    if rank == 1:
        return float(local.max() - local.min())
    return float(_hull(local).volume)


def _ring_edges(vertices: np.ndarray, facets) -> np.ndarray:
    """(E, 2) ring edges r_j -> r_j+1 of each facet polygon of a 3-polytope
    in cyclic order, facet by facet in the order of ``facets``.

    The first column is each facet's ring: its vertices sorted, stably, by
    their angle about the facet's centroid in the plane of the first two
    right singular vectors of the centred points, as ``affine_span`` finds
    them.  The facets of each size are ordered in one stacked pass.
    ``DegenerateFacet`` is raised when a facet's points do not span a plane,
    and ``InvalidPolytope`` names the least ring edge not on two facets (a
    vertex a hair off a hull edge), so the rings close the surface."""
    sizes = np.array([len(f) for f in facets])
    end = np.cumsum(sizes)
    ring = np.empty(end[-1], np.intp)
    for k in np.unique(sizes):
        rows = np.flatnonzero(sizes == k)
        index = np.array([facets[i] for i in rows])
        pts = vertices[index]
        centred = pts - pts.mean(axis=1, keepdims=True)
        _, sv, vt = np.linalg.svd(centred, full_matrices=False)
        cutoff = TOL * np.maximum(1.0, sv[:, 0])
        if ((sv > cutoff[:, None]).sum(axis=1) != 2).any():
            raise DegenerateFacet("polygon vertices do not span a plane")
        flat = centred @ vt[:, :2].transpose(0, 2, 1)
        order = np.argsort(np.arctan2(flat[..., 1], flat[..., 0]), axis=1, kind="stable")
        slots = (end[rows] - k)[:, None] + np.arange(k)
        ring[slots] = np.take_along_axis(index, order, axis=1)
    # each slot's successor in its facet's ring, wrapping at the facet's end
    after = np.arange(1, end[-1] + 1)
    after[end - 1] = end - sizes
    edges = np.column_stack([ring, ring[after]])
    m = len(vertices)
    keys, counts = np.unique(edges.min(axis=1) * m + edges.max(axis=1), return_counts=True)
    if (counts != 2).any():
        k = np.argmax(counts != 2)
        raise InvalidPolytope(f"ring edge {divmod(int(keys[k]), m)} lies on {counts[k]} "
                              "facets, expected 2 (vertex not in convex position?)")
    return edges


# ---------------------------------------------------------------------------
# the polytope type
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Polytope:
    """Boundary surface of a compact convex body, with validated incidences.

    Coordinates must be finite and at most ``MAX_COORD`` in magnitude, with no
    two vertices within ``MERGE_TOL`` (``from_*`` merge those first).  Facets
    and their planes come from :func:`enumerate_facets`, so Qhull's planes are
    kept as they are, and the facets are checked not to overlap
    (``InvalidPolytope``).  Validation then checks that each vertex lies on
    at least ``d`` facets, which fails for a point inside the hull or on a
    face, and in d = 3 that the rings close the surface (``InvalidPolytope``).

    Attributes
    ----------
    vertices : (m, d) float array
    name : optional label carried through serialization
    facets : tuple of sorted vertex-index tuples, lexicographically sorted;
        the facets of the vertices' convex hull
    facet_normals : (F, d) outward unit normals of Qhull's facet planes
    facet_offsets : (F,) plane offsets, so a facet plane is {a . x = b}
    incidence : (F, m) 0/1 CSR vertex-facet matrix, a row per facet
    ring_edges : (E, 2) each facet's ring edges in cyclic order (d = 3),
        or None (d != 3)
    """

    vertices: np.ndarray
    name: str | None = field(default=None, kw_only=True)
    facets: tuple[tuple[int, ...], ...] = field(init=False)
    facet_normals: np.ndarray = field(init=False)
    facet_offsets: np.ndarray = field(init=False)
    incidence: csr_matrix = field(init=False)
    ring_edges: np.ndarray | None = field(init=False)

    def __post_init__(self) -> None:
        self.vertices = _coordinates(self.vertices, InvalidPolytope)
        pairs = cKDTree(self.vertices).query_pairs(MERGE_TOL, output_type="ndarray")
        if len(pairs):
            i, j = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))[0]]
            raise InvalidPolytope(f"vertices {i} and {j} lie within {MERGE_TOL:g} of each other")
        facets, self.facet_normals, self.facet_offsets = enumerate_facets(self.vertices)
        self.facets = tuple(facets)
        self.incidence = _incidence(facets, len(self.vertices))
        counts = np.bincount(self.incidence.indices, minlength=len(self.vertices))
        short = np.flatnonzero(counts < self.dim)
        if len(short):
            raise InvalidPolytope(
                f"vertex {short[0]} lies on {counts[short[0]]} facets, "
                f"expected at least {self.dim} (not in convex position?)"
            )
        self.ring_edges = _ring_edges(self.vertices, facets) if self.dim == 3 else None

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def surface_dim(self) -> int:
        return self.dim - 1

    # -- document I/O -----------------------------------------------------

    @classmethod
    def from_vertices(cls, vertices) -> "Polytope":
        """Build from coordinates, checked as the constructor checks them,
        merging vertices within MERGE_TOL first."""
        verts, _ = _dedupe_with_map(_coordinates(vertices, InvalidPolytope))
        return cls(verts)

    @classmethod
    def from_document(cls, doc: dict) -> "Polytope":
        if not isinstance(doc, dict):
            raise BadDocument("document must be a JSON object")
        for key in ("dim", "vertices"):
            if key not in doc:
                raise BadDocument(f"document missing field {key!r}")
        dim = checked_int(doc["dim"], "field 'dim'", 1, error=BadDocument)
        verts = _coordinates(doc["vertices"], BadDocument, dim)
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise BadDocument("field 'name' must be a string")
        raw_facets = doc.get("facets")
        m = len(verts)
        if raw_facets is not None:
            if not isinstance(raw_facets, list):
                raise BadDocument("field 'facets' must be a list of index lists")
            for fi, f in enumerate(raw_facets):
                if not isinstance(f, list):
                    raise BadDocument(f"facet {fi} must be a list of vertex indices")
                for i in f:
                    checked_int(i, f"facet {fi} vertex index", 0, m - 1, BadDocument)
        verts, remap = _dedupe_with_map(verts)
        poly = cls(verts, name=name)
        if raw_facets is not None:
            given = sorted(tuple(sorted({int(remap[i]) for i in f})) for f in raw_facets)
            if given != list(poly.facets):
                missing = sorted(set(poly.facets) - set(given))
                raise InvalidPolytope(
                    f"the {len(given)} facets given do not close up the "
                    f"surface: the hull has {len(poly.facets)} facets"
                    + (f", including {missing[0]}" if missing else "")
                )
        return poly

    @classmethod
    def loads(cls, text: str) -> "Polytope":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadDocument(f"not valid JSON: {exc}") from None
        return cls.from_document(doc)

    def serialize(self) -> dict:
        """Canonical document: facet indices sorted, facets sorted."""
        doc = {
            "dim": self.dim,
            "vertices": [[float(c) for c in row] for row in self.vertices],
            "facets": [list(f) for f in self.facets],
        }
        if self.name is not None:
            doc["name"] = self.name
        return doc


def _coordinates(vertices, error: type[Exception], dim: int | None = None) -> np.ndarray:
    """``vertices`` as a float array; raise ``error`` unless they are one or
    more rows of one or more (``dim``, when given) real, finite coordinates,
    |x| <= MAX_COORD."""
    try:
        verts = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"bad vertex coordinates: {exc}") from None
    if dim is not None and (verts.ndim != 2 or verts.shape[1] != dim):
        raise error(f"vertices must be rows of {dim} coordinates")
    if verts.ndim != 2:
        raise error("vertex array must be 2-dimensional")
    if 0 in verts.shape:
        raise error(f"vertex array must have rows and columns, got shape {verts.shape}")
    if not np.isfinite(verts).all():
        raise error("vertex coordinates must be finite")
    if np.abs(verts).max(initial=0.0) > MAX_COORD:
        raise error(f"vertex coordinates must be at most {MAX_COORD:g} in magnitude")
    return verts


def _dedupe_with_map(verts: np.ndarray):
    """Merge vertices within MERGE_TOL; returns (unique, index map).

    A vertex merges into the first earlier vertex that was kept, so the kept
    vertices stay in their input order.
    """
    pairs = cKDTree(verts).query_pairs(MERGE_TOL, output_type="ndarray")
    target = np.arange(len(verts))
    for i, j in pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]:
        if target[j] == j and target[i] == i:
            target[j] = i
    kept = target == np.arange(len(verts))
    slot = np.cumsum(kept) - 1
    return verts[kept], slot[target]

