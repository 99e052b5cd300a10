"""Triangulated surface meshes for 3-polytopes.

``subdivide`` is the only builder of a ``SurfaceMesh``.  It fan-triangulates
every facet from its centroid and then applies uniform 4-to-1 midpoint
subdivision.  All triangles stay inside their flat facet, so facet areas are
preserved exactly at every level.  Every mesh is closed: each edge lies on
exactly two triangles.  Mesh positions start with the polytope vertices, so
polytope vertex ``i`` is mesh position ``i``.

Numbering is what the construction produces.  The centroid of facet ``f``
follows the vertices in facet order, and its fan triangles follow the
facet's ring order.  The fan's edges are numbered in the lexicographic order
of their sorted vertex pairs, from one ``np.unique`` of half-edge keys
(``_edge_table``).  Each refinement round then derives the next numbering in
O(T) from the last.  Of ``P`` positions and ``E`` edges, the midpoint of
edge ``e`` becomes position ``P + e``.  Triangle ``(a, b, c)`` becomes
``(a, ab, ca)``, ``(ab, b, bc)``, ``(ca, bc, c)``, ``(ab, bc, ca)`` in that
order, so the children of triangle ``t`` are ``4t`` to ``4t + 3``.  Edge
``e`` with ends ``lo < hi`` and midpoint ``m`` splits into ``2e = (lo, m)``
and ``2e + 1 = (hi, m)``; triangle ``t`` adds the interior edges
``2E + 3t + 0, 1, 2``, which are ``(ab, bc)``, ``(bc, ca)``, ``(ca, ab)``;
and the children's edges follow from the corner order above.

Solver masks depend on the triangle numbering and corner order, as do the
areas, neighbours and vertex stars.  The position and edge numbering feed
none of these: only the last bit of ``Region.cut_perimeter``, which sums the
cut edges in ascending edge order, depends on the edge order.

Edge lengths and triangle areas are measured once, on the fan, and carried
down the levels.  Each child is a half-scale copy of a quarter of its
parent, so a triangle at level ``L`` has ``0.25**L`` times the area of its
fan triangle.  The halves ``2e`` and ``2e + 1`` get half the length of
``e``, and the interior edges ``(ab, bc)``, ``(bc, ca)``, ``(ca, ab)`` get
half the length of the sides they are parallel to, ``ca``, ``ab`` and ``bc``
(the midsegment theorem).  Scaling by a power of two is exact for normal
floats, and ``MERGE_TOL`` and ``MAX_COORD`` keep accepted meshes far from
subnormals and overflow, so congruent triangles get bitwise equal values.
On dyadic positions, such as the cube's, they equal what the rounded final
positions give.  The fan is closed: each spoke lies on two triangles of its
facet, and no ``Polytope`` is built unless each ring edge lies on two facets.
Refinement keeps closure, as each half of an edge lies on one child of each
of the edge's two triangles, and each interior edge on two of one triangle.

A mesh keeps only what the solver reads, every index array int32: 60 bytes
per triangle (``P = T/2 + 2`` positions, ``E = 3T/2`` edges).  Edge ends and
triangle centroids are not kept.  Each round drops its inputs as it uses
them and the last builds no edge ends, so a build peaks at the size of the
mesh it returns.  Each half-edge's twin, the other half-edge of
its edge (``SurfaceMesh.tri_twins``, which only the annealer reads), comes
from one stable ``np.argsort`` on first read and is kept, as is each
vertex's star order (``SurfaceMesh.vertex_star``).  A mesh whose ``3T``
half-edge ids would not fit int32 is rejected before it is built.  Every
array is read-only once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cones import VertexCone, vertex_cones
from .errors import UnsupportedDimension, ValidationError, checked_int
from .polytope import Polytope

MAX_LEVEL = 8

# int32 holds the 3T half-edge ids of a mesh of at most this many triangles
_MAX_TRIANGLES = (np.iinfo(np.int32).max + 1) // 3
# rows per block of a vertex star's centroid-distance temporaries
_BLOCK = 1 << 14


@dataclass(frozen=True)
class VertexStar:
    """Triangles of the facets incident to a polytope vertex, nearest first.

    ``triangles`` (int32) are in stable order of their centroids' distance
    to the vertex, ``distances`` are those distances (ascending) and
    ``prefix_area`` is the ``np.cumsum`` of the triangle areas in that order.
    """

    cone: VertexCone
    triangles: np.ndarray
    distances: np.ndarray
    prefix_area: np.ndarray


@dataclass(eq=False, init=False)
class SurfaceMesh:
    """Closed triangle mesh of a polytope boundary, built by ``subdivide``.

    ``SurfaceMesh(...)`` raises ``TypeError``; every edge lies on two triangles.

    Attributes
    ----------
    positions : (P, 3) float array
    triangles : (T, 3) int32 array of position indices
    facet_of : (T,) int32 index of the source polytope facet per triangle,
        ascending, so each facet's triangles are one run
    polytope : the source polytope (positions 0..m-1 are its vertices)
    edge_lengths : (E,) float, edges numbered as refinement splits them
    tri_edges : (T, 3) int32 edges ``ab``, ``bc``, ``ca`` of each triangle
    areas : (T,) float

    That is 60 bytes per triangle.  Centroids are computed on demand by
    ``triangle_centroids``; ``tri_twins`` is derived on first read.
    """

    positions: np.ndarray
    triangles: np.ndarray
    facet_of: np.ndarray
    polytope: Polytope

    edge_lengths: np.ndarray
    tri_edges: np.ndarray
    areas: np.ndarray
    _stars: dict[int, VertexStar] = field(repr=False)

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("SurfaceMesh has no public constructor; use subdivide")

    @classmethod
    def _refined(
        cls, positions, triangles, facet_of, polytope, edge_lengths, tri_edges, areas
    ) -> SurfaceMesh:
        """A mesh that takes ownership of ``subdivide``'s arrays."""
        mesh = cls.__new__(cls)
        mesh.positions = positions
        mesh.triangles = triangles
        mesh.facet_of = facet_of
        mesh.polytope = polytope
        mesh.edge_lengths = edge_lengths
        mesh.tri_edges = tri_edges
        mesh.areas = areas
        mesh._stars = {}
        _freeze(*(v for v in vars(mesh).values() if isinstance(v, np.ndarray)))
        return mesh

    @cached_property
    def tri_twins(self) -> np.ndarray:
        """(T, 3) int32 half-edge ``3u + k`` across side j (``ab``, ``bc``,
        ``ca``) of each triangle t: the neighbour ``twin // 3`` holds the
        shared edge on its side ``twin % 3``.  Only the annealer reads it,
        derived on first read and kept: edge e's two half-edges are rows 2e
        and 2e + 1 of the stable order of the half-edges' edges."""
        first, last = np.argsort(self.tri_edges.ravel(), kind="stable").reshape(-1, 2).T
        twins = np.empty(self.tri_edges.size, dtype=np.int32)
        twins[first], twins[last] = last, first
        twins = twins.reshape(self.tri_edges.shape)
        _freeze(twins)
        return twins

    @cached_property
    def _cones(self) -> list[VertexCone]:
        """Every vertex's cone, from one ``vertex_cones`` call on first read."""
        return vertex_cones(self.polytope)

    @property
    def triangle_count(self) -> int:
        return int(len(self.triangles))

    def total_area(self) -> float:
        return float(self.areas.sum())

    def is_closed(self) -> bool:
        """Whether every edge lies on exactly two triangles: always, as no
        ``Polytope`` is built with open facet rings and refinement keeps it."""
        return True

    def max_edge_length(self) -> float:
        return float(self.edge_lengths.max())

    def triangle_centroids(self, tris: np.ndarray) -> np.ndarray:
        """(len(tris), 3) centroids of the triangles ``tris``."""
        a, b, c = (self.positions.take(self.triangles[tris, k], axis=0) for k in range(3))
        return (a + b + c) / 3.0

    def vertex_star(self, vertex: int) -> VertexStar:
        """The star of polytope vertex ``vertex`` in centroid-distance order,
        computed on the first call for that vertex and kept on the mesh.

        The first call also measures every vertex's cone in one
        ``vertex_cones`` call and keeps them for the later calls.  Each facet
        of the vertex's incidence column is one run of ``facet_of``.
        """
        vertex = checked_int(vertex, "vertex", 0, len(self.polytope.vertices) - 1)
        star = self._stars.get(vertex)
        if star is None:
            cone = self._cones[vertex]
            incident = self.polytope.incidence[:, vertex].nonzero()[0]
            bounds = np.searchsorted(self.facet_of, [incident, incident + 1])
            tris = np.concatenate([np.arange(lo, hi, dtype=np.int32) for lo, hi in bounds.T])
            dist = np.empty(len(tris))
            for lo in range(0, len(tris), _BLOCK):
                rows = slice(lo, lo + _BLOCK)
                d = self.triangle_centroids(tris[rows]) - self.positions[vertex]
                dist[rows] = np.linalg.norm(d, axis=1)
            # each full-size temporary is dropped before the next is made
            order = np.argsort(dist, kind="stable")
            dist = dist[order]
            tris = tris[order]
            del order
            prefix = self.areas.take(tris)
            np.cumsum(prefix, out=prefix)
            star = VertexStar(cone, tris, dist, prefix)
            _freeze(star.triangles, star.distances, star.prefix_area)
            self._stars[vertex] = star
        return star


def subdivide(polytope: Polytope, level: int) -> SurfaceMesh:
    """Triangulate the boundary of a 3-polytope at the given refinement level."""
    if polytope.dim != 3:
        raise UnsupportedDimension(
            f"surface meshing is defined for d = 3, got d = {polytope.dim}"
        )
    level = checked_int(level, "level", 0, MAX_LEVEL)
    count = sum(len(f) for f in polytope.facets) * 4**level
    if count > _MAX_TRIANGLES:
        raise ValidationError(
            f"a mesh of {count} triangles has {3 * count} half-edges; "
            f"int32 ids allow at most {3 * _MAX_TRIANGLES}"
        )

    edges = polytope.ring_edges
    sizes = [len(f) for f in polytope.facets]
    rings = np.split(edges[:, 0], np.cumsum(sizes)[:-1])
    centers = np.array([polytope.vertices[ring].mean(axis=0) for ring in rings])
    positions = np.concatenate([polytope.vertices, centers])
    facet_of = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    triangles = np.column_stack([len(polytope.vertices) + facet_of, edges]).astype(np.int32)

    ends, tri_edges = _edge_table(triangles, len(positions))
    lengths = np.linalg.norm(positions[ends[:, 0]] - positions[ends[:, 1]], axis=1)
    a, b, c = (positions[triangles[:, k]] for k in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    arrays = [positions, triangles, ends, tri_edges, lengths]
    for k in range(level):
        _refine(arrays, last=k == level - 1)
    positions, triangles, _, tri_edges, lengths = arrays
    # the children of triangle t are 4t to 4t + 3, each a quarter of its area
    facet_of = np.repeat(facet_of, 4**level)
    areas = np.repeat(0.25**level * areas, 4**level)
    return SurfaceMesh._refined(
        positions, triangles, facet_of, polytope, lengths, tri_edges, areas
    )


def _refine(arrays: list, last: bool) -> None:
    """One round of 4-to-1 subdivision of ``arrays`` = [positions, triangles,
    ends, tri_edges, lengths], in place (see the module docstring).

    The list is the arrays' only owner, so each input is dropped once the
    outputs that read it are built: on fine meshes the inputs would
    otherwise set the peak memory.  The last round builds no edge ends,
    which nothing reads.
    """
    positions, triangles, ends, tri_edges, lengths = arrays
    arrays.clear()
    count, edges, tris = len(positions), len(ends), len(triangles)
    # edge e splits into halves 2e and 2e + 1, and the interior edges
    # (ab, bc), (bc, ca), (ca, ab) are midsegments, parallel to ca, ab and bc
    parallel = lengths[tri_edges[:, [2, 0, 1]]].reshape(-1)
    next_lengths = 0.5 * np.concatenate([np.repeat(lengths, 2), parallel])
    del lengths, parallel
    # the midpoint of edge e is position count + e
    lo, hi = ends.T
    next_positions = np.concatenate([positions, 0.5 * (positions[lo] + positions[hi])])
    del positions

    sides = tri_edges + count
    ab, bc, ca = sides.T
    next_ends = None
    if not last:
        # rows 2e and 2e + 1 are (lo, mid) and (hi, mid); then 3 per triangle
        next_ends = np.empty((2 * edges + 3 * tris, 2), dtype=np.int32)
        halves = next_ends[: 2 * edges].reshape(-1, 2, 2)
        halves[:, :, 0] = ends
        halves[:, :, 1] = np.arange(count, count + edges, dtype=np.int32)[:, None]
        interior = next_ends[2 * edges:].reshape(-1, 3, 2)
        for j, (x, y) in enumerate(((ab, bc), (bc, ca), (ca, ab))):
            np.minimum(x, y, out=interior[:, j, 0])
            np.maximum(x, y, out=interior[:, j, 1])
        del halves, interior, x, y
    del ends, lo, hi
    a, b, c = triangles.T
    children = np.empty((tris, 12), dtype=np.int32)
    for k, corner in enumerate((a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca)):
        children[:, k] = corner
    del sides, ab, bc, ca, corner

    inner = 2 * edges + 3 * np.arange(tris, dtype=np.int32)
    child_edges = np.empty((tris, 12), dtype=np.int32)
    # a child's side on edge xy is the half 2e + (x > y) at its corner x
    for k, side, x, y in ((0, 0, a, b), (2, 2, a, c), (3, 0, b, a),
                          (4, 1, b, c), (7, 1, c, b), (8, 2, c, a)):
        np.add(2 * tri_edges[:, side], x > y, out=child_edges[:, k])
    for k, j in ((1, 2), (5, 0), (6, 1), (9, 0), (10, 1), (11, 2)):
        np.add(inner, j, out=child_edges[:, k])
    arrays[:] = (next_positions, children.reshape(-1, 3), next_ends,
                 child_edges.reshape(-1, 3), next_lengths)


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _edge_table(triangles: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted vertex pairs of the edges, lexicographic, and each triangle's
    edges ``ab``, ``bc``, ``ca``, from one ``np.unique`` of the half-edges;
    both int32.

    An edge's key ``lo * count + hi``, in int64, sorts like its vertex pair
    does.
    """
    t = triangles
    half = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys, inverse = np.unique(
        half.min(axis=1).astype(np.int64) * count + half.max(axis=1),
        return_inverse=True,
    )
    ends = np.stack([keys // count, keys % count], axis=1).astype(np.int32)
    return ends, inverse.reshape(3, -1).T.astype(np.int32, order="C")
