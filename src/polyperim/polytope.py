"""Convex polytopes given by their vertices.

A :class:`Polytope` is the boundary surface of a compact convex body in
``R^d`` (``2 <= d <= 4``), stored as vertex coordinates plus one vertex-index
list per facet.  Documents are plain JSON objects with fields ``dim``,
``vertices``, optional ``facets`` and optional ``name``; indices are 0-based.

The vertices fix the surface, so facets and measures come from Qhull
(``scipy.spatial.ConvexHull``).  A facet is the maximal set of vertices within
the tolerance of one of Qhull's facet planes and inside no other such set, so
coplanar hull triangles collapse into one polygon and a point on a face, or
inside the hull, belongs to fewer than ``d`` facets and fails the incidence
check.  A document's facet list, when given, must list the hull's facets in
any order, so a list with a facet missing is rejected instead of leaving the
surface open.  Measures (facet areas, cell volumes) are hull volumes in the
affine span of the points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import (
    BadDocument,
    DegenerateFacet,
    DimensionTooHigh,
    InvalidPolytope,
    NonConvex,
    NotFullDimensional,
)

#: Coplanarity / convexity tolerance, in coordinate units.
TOL = 1e-9

#: Vertices closer than this are merged on load.
MERGE_TOL = 1e-9

MAX_DIM = 4

# facet planes per block of the vertex-plane residual matrix: its full m x F
# size is 1.6 GB at 10^4 points on a sphere, one block is m x 256
_PLANE_BLOCK = 256


# ---------------------------------------------------------------------------
# low-level geometry helpers
# ---------------------------------------------------------------------------

def affine_span(points: np.ndarray):
    """Origin, orthonormal basis and rank of the affine span of ``points``."""
    pts = np.asarray(points, dtype=float)
    origin = pts.mean(axis=0)
    centered = pts - origin
    if len(pts) == 1:
        return origin, np.zeros((0, pts.shape[1])), 0
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    cutoff = TOL * max(1.0, sv[0] if len(sv) else 1.0)
    rank = int((sv > cutoff).sum())
    return origin, vt[:rank], rank


def project_to_span(points: np.ndarray, origin: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return (np.asarray(points, dtype=float) - origin) @ basis.T


def fit_plane(points: np.ndarray):
    """Best-fit hyperplane ``(normal, offset)`` through d-or-more points.

    Raises DegenerateFacet when the points are not (d-1)-dimensional.
    """
    pts = np.asarray(points, dtype=float)
    origin, normal, rank = _plane_fits(pts[None])
    _check_facet_rank(int(rank[0]), pts.shape[1])
    return _unit_plane(normal[0], origin[0])


def _plane_fits(stack: np.ndarray):
    """Centroids, unnormalized normals and ranks of a (k, n, d) stack of
    point sets, from one batched SVD."""
    origin = stack.mean(axis=1)
    # For exactly coplanar points this is the exact plane; for warped input it
    # is the least-squares plane, and convexity checks report the violation.
    _, sv, vt = np.linalg.svd(stack - origin[:, None], full_matrices=True)
    rank = (sv > TOL * np.maximum(1.0, sv[:, :1])).sum(axis=1)
    return origin, vt[:, -1], rank


def _check_facet_rank(rank: int, d: int) -> None:
    if rank < d - 1:
        raise DegenerateFacet(
            f"facet spans only {rank} dimensions, expected {d - 1}"
        )


def _unit_plane(normal: np.ndarray, origin: np.ndarray):
    normal = normal / np.linalg.norm(normal)
    return normal, float(normal @ origin)


def _hull(points: np.ndarray) -> ConvexHull:
    try:
        return ConvexHull(points)
    except QhullError as exc:
        raise NotFullDimensional(f"Qhull rejected the points: {exc}") from None


def enumerate_facets(vertices: np.ndarray) -> list[tuple[int, ...]]:
    """Facets of the convex hull of points, 2 <= d <= 4.

    Each Qhull facet plane yields the set of points within ``TOL * scale`` of
    it; the sets no other one contains are the facets, as sorted index tuples
    in lexicographic order.
    The point-plane residuals are computed for ``_PLANE_BLOCK`` planes at a
    time, so memory grows with the number of points, not points x planes.
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
    planes = _hull(verts).equations
    scale = max(1.0, float(np.abs(verts).max()))
    facets = set()
    for lo in range(0, len(planes), _PLANE_BLOCK):
        block = planes[lo : lo + _PLANE_BLOCK]
        resid = verts @ block[:, :-1].T
        resid += block[:, -1]
        near = np.abs(resid, out=resid) <= TOL * scale
        vertex, plane = np.divmod(np.flatnonzero(near), len(block))
        # each plane's vertices, ascending, one run per plane
        runs = np.split(
            vertex[np.argsort(plane, kind="stable")],
            np.cumsum(np.bincount(plane, minlength=len(block)))[:-1],
        )
        facets.update(tuple(run.tolist()) for run in runs)
    return _maximal(sorted(facets))


def _maximal(sets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The index sets no other one contains: distinct facets of a convex body
    never nest, so a set inside another is a flat Qhull simplex within a real
    facet (seen on rounded coordinates)."""
    holding: dict[int, list[set[int]]] = {}
    for s in map(set, sets):
        for v in s:
            holding.setdefault(v, []).append(s)
    return [s for s in sets if not any(set(s) < t for t in holding[s[0]])]


def order_polygon(points: np.ndarray) -> np.ndarray:
    """Indices of convex-polygon vertices in cyclic order around the centroid."""
    origin, basis, rank = affine_span(points)
    if rank != 2:
        raise DegenerateFacet("polygon vertices do not span a plane")
    flat = project_to_span(points, origin, basis)
    angles = np.arctan2(flat[:, 1], flat[:, 0])
    return np.argsort(angles, kind="stable")


def polytope_measure(points: np.ndarray) -> float:
    """k-dimensional measure of the convex hull of points.

    The dimension k is the affine rank of the point set; the hull is measured
    in local coordinates of that span.
    """
    pts = np.asarray(points, dtype=float)
    origin, basis, rank = affine_span(pts)
    if rank == 0:
        return 0.0
    local = project_to_span(pts, origin, basis)
    if rank == 1:
        return float(local.max() - local.min())
    return float(_hull(local).volume)


# ---------------------------------------------------------------------------
# the polytope type
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Polytope:
    """Boundary surface of a compact convex body, with validated incidences.

    Validation checks, in this order, that no vertex lies outside a facet
    plane (``NonConvex``, naming the largest residual, first in vertex-major
    order on ties), that each facet's vertices lie on its fitted plane
    (``DegenerateFacet``, naming the first facet that fails) and that each
    vertex lies on at least ``d`` facets (``InvalidPolytope``).  The signed
    vertex-plane residuals are computed for ``_PLANE_BLOCK`` facets at a
    time and the three checks accumulate across the blocks, so no m x F
    matrix is held.

    Attributes
    ----------
    vertices : (m, d) float array
    name : optional label carried through serialization
    facets : tuple of sorted vertex-index tuples, lexicographically sorted;
        the facets of the vertices' convex hull
    facet_normals : (F, d) outward unit normals
    facet_offsets : (F,) plane offsets, so a facet plane is {a . x = b}
    """

    vertices: np.ndarray
    name: str | None = None
    facets: tuple[tuple[int, ...], ...] = field(init=False)
    facet_normals: np.ndarray = field(init=False)
    facet_offsets: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.facets = tuple(enumerate_facets(self.vertices))
        self._fit_facet_planes()
        self._check_residuals()
        self._ordered_cache: dict[int, np.ndarray] = {}

    # -- validation pieces ------------------------------------------------

    def _fit_facet_planes(self) -> None:
        # one batched SVD per facet size; the first facet that is not
        # (d-1)-dimensional is reported, as a facet-by-facet fit would
        sizes = np.array([len(f) for f in self.facets])
        origins = np.empty((len(sizes), self.dim))
        directions = np.empty((len(sizes), self.dim))
        ranks = np.empty(len(sizes), dtype=np.int64)
        for size in np.unique(sizes):
            group = np.flatnonzero(sizes == size)
            stack = self.vertices[np.array([self.facets[fi] for fi in group])]
            origins[group], directions[group], ranks[group] = _plane_fits(stack)
        for rank in ranks:
            _check_facet_rank(int(rank), self.dim)
        normals = []
        offsets = []
        centroid = self.vertices.mean(axis=0)
        for direction, origin in zip(directions, origins):
            normal, offset = _unit_plane(direction, origin)
            if normal @ centroid > offset:
                normal, offset = -normal, -offset
            normals.append(normal)
            offsets.append(offset)
        self.facet_normals = np.array(normals)
        self.facet_offsets = np.array(offsets)

    def _check_residuals(self) -> None:
        """Convexity, coplanarity and incidence checks (see the class
        docstring), over blocks of ``_PLANE_BLOCK`` facets."""
        verts = self.vertices
        limit = TOL * max(1.0, float(np.abs(verts).max()))
        worst, worst_at, flat = -np.inf, (0, 0), None
        counts = np.zeros(len(verts), dtype=np.int64)
        for lo in range(0, len(self.facets), _PLANE_BLOCK):
            hi = min(lo + _PLANE_BLOCK, len(self.facets))
            side = verts @ self.facet_normals[lo:hi].T
            side -= self.facet_offsets[lo:hi]
            # a tie with an earlier block keeps the earlier (v, f) unless v
            # is smaller here: row-major order over the whole matrix
            v, f = np.unravel_index(np.argmax(side), side.shape)
            if side[v, f] > worst or (side[v, f] == worst and v < worst_at[0]):
                worst, worst_at = side[v, f], (int(v), lo + int(f))
            # the first facet off its own plane, in facet order
            for fi in range(lo, hi if flat is None else lo):
                resid = np.abs(side[list(self.facets[fi]), fi - lo]).max()
                if resid > limit:
                    flat = fi, resid
                    break
            counts += (np.abs(side) <= limit).sum(axis=1)
        if worst > limit:
            raise NonConvex(
                f"vertex {worst_at[0]} lies {worst:.3g} outside the plane "
                f"of facet {worst_at[1]}"
            )
        if flat is not None:
            raise DegenerateFacet(
                f"facet {flat[0]} vertices deviate {flat[1]:.3g} from their plane"
            )
        short = np.flatnonzero(counts < self.dim)
        if len(short):
            raise InvalidPolytope(
                f"vertex {short[0]} lies on {counts[short[0]]} facets, "
                f"expected at least {self.dim} (not in convex position?)"
            )

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def surface_dim(self) -> int:
        return self.dim - 1

    def facet_points(self, facet_index: int) -> np.ndarray:
        return self.vertices[list(self.facets[facet_index])]

    def facet_ring(self, facet_index: int) -> np.ndarray:
        """Facet vertex indices in cyclic polygon order (d = 3 facets only)."""
        cached = self._ordered_cache.get(facet_index)
        if cached is None:
            f = np.array(self.facets[facet_index], dtype=int)
            order = order_polygon(self.vertices[f])
            cached = f[order]
            self._ordered_cache[facet_index] = cached
        return cached

    def facet_measure(self, facet_index: int) -> float:
        return polytope_measure(self.facet_points(facet_index))

    # -- document I/O -----------------------------------------------------

    @classmethod
    def from_vertices(cls, vertices, name: str | None = None) -> "Polytope":
        """Build from coordinates, merging vertices within MERGE_TOL."""
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2:
            raise NotFullDimensional("vertex array must be 2-dimensional")
        verts, _ = _dedupe_with_map(verts)
        return cls(verts, name=name)

    @classmethod
    def from_document(cls, doc: dict) -> "Polytope":
        if not isinstance(doc, dict):
            raise BadDocument("document must be a JSON object")
        for key in ("dim", "vertices"):
            if key not in doc:
                raise BadDocument(f"document missing field {key!r}")
        dim = doc["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise BadDocument("field 'dim' must be an integer")
        try:
            verts = np.asarray(doc["vertices"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise BadDocument(f"bad vertex coordinates: {exc}") from None
        if verts.ndim != 2 or verts.shape[1] != dim:
            raise BadDocument(
                f"vertices must be rows of {dim} coordinates"
            )
        if not np.isfinite(verts).all():
            raise BadDocument("vertex coordinates must be finite")
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise BadDocument("field 'name' must be a string")
        raw_facets = doc.get("facets")
        m = len(verts)
        if raw_facets is not None:
            if not isinstance(raw_facets, list):
                raise BadDocument("field 'facets' must be a list of index lists")
            for fi, f in enumerate(raw_facets):
                if not isinstance(f, list) or not all(
                    isinstance(i, int) and not isinstance(i, bool) and 0 <= i < m
                    for i in f
                ):
                    raise BadDocument(
                        f"facet {fi} must list vertex indices in [0, {m})"
                    )
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

