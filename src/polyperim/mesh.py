"""Triangulated surface meshes for 3-polytopes.

``subdivide`` fan-triangulates every facet from its centroid and then applies
uniform 4-to-1 midpoint subdivision.  All triangles stay inside their flat
facet, so facet areas are preserved exactly at every level.  Mesh positions
start with the polytope vertices, so polytope vertex ``i`` is mesh position
``i``.

Numbering is part of the contract, because solver results depend on it.  The
centroid of facet ``f`` follows the vertices in facet order, and its fan
triangles follow the facet's ring order.  Each refinement round numbers the
new midpoints in first-visit order: triangle by triangle, edges ``ab``,
``bc``, ``ca``.  Triangle ``(a, b, c)`` becomes ``(a, ab, ca)``,
``(ab, b, bc)``, ``(ca, bc, c)``, ``(ab, bc, ca)`` in that order.  Edges are
sorted vertex pairs in lexicographic order.

A mesh is immutable: every array is read-only once built, and each vertex's
star order (``SurfaceMesh.vertex_star``) is computed on first use and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import VertexCone, link_volume
from .errors import UnsupportedDimension
from .polytope import Polytope

MAX_LEVEL = 8


@dataclass(frozen=True)
class VertexStar:
    """Triangles of the facets incident to a polytope vertex, nearest first.

    ``triangles`` are in stable order of their centroids' distance to the
    vertex, ``distances`` are those distances (ascending) and
    ``prefix_area`` is the ``np.cumsum`` of the triangle areas in that order.
    """

    cone: VertexCone
    triangles: np.ndarray
    distances: np.ndarray
    prefix_area: np.ndarray


@dataclass(eq=False)
class SurfaceMesh:
    """Closed triangle mesh of a polytope boundary.

    Attributes
    ----------
    positions : (P, 3) float array
    triangles : (T, 3) int array of position indices
    facet_of : (T,) index of the source polytope facet per triangle
    subdivision_level : number of 4-to-1 refinement rounds applied
    polytope : the source polytope (positions 0..m-1 are its vertices)
    """

    positions: np.ndarray
    triangles: np.ndarray
    facet_of: np.ndarray
    subdivision_level: int
    polytope: Polytope | None = None

    edges: np.ndarray = field(init=False)
    edge_lengths: np.ndarray = field(init=False)
    edge_triangles: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False)
    tri_neighbors: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)
    centroids: np.ndarray = field(init=False)
    _stars: dict[int, VertexStar] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.facet_of = np.asarray(self.facet_of, dtype=np.int64)
        self._build_edges()
        p = self.positions
        t = self.triangles
        cross = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
        self.areas = 0.5 * np.linalg.norm(cross, axis=1)
        self.centroids = p[t].mean(axis=1)
        # copies, so freezing them never freezes the caller's arrays; made
        # last, when the temporaries above are gone
        self.positions = self.positions.copy()
        self.triangles = self.triangles.copy()
        self.facet_of = self.facet_of.copy()
        _freeze(
            self.positions, self.triangles, self.facet_of, self.edges,
            self.edge_lengths, self.edge_triangles, self.tri_edges,
            self.tri_neighbors, self.areas, self.centroids,
        )

    def _build_edges(self) -> None:
        t = self.triangles
        count = len(self.positions)
        half = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        keys, first, inverse, per_edge = np.unique(
            _edge_keys(half, count),
            return_index=True, return_inverse=True, return_counts=True,
        )
        self.edges = np.stack([keys // count, keys % count], axis=1)
        self.tri_edges = inverse.reshape(3, -1).T.copy()
        if per_edge.max(initial=0) > 2:
            eid = int(np.argmax(per_edge > 2))
            raise ValueError(f"edge {eid} belongs to more than two triangles")
        # half-edge i lies on triangle i % T; an edge's triangles are listed
        # in half-edge order (all ab, then bc, then ca), -1 on an open edge
        last = np.argsort(inverse, kind="stable")[np.cumsum(per_edge) - 1]
        self.edge_triangles = np.stack(
            [first % len(t), np.where(per_edge == 2, last % len(t), -1)], axis=1
        )
        d = self.positions[self.edges[:, 0]] - self.positions[self.edges[:, 1]]
        self.edge_lengths = np.linalg.norm(d, axis=1)
        ends = self.edge_triangles[self.tri_edges]
        own = np.arange(len(t))[:, None]
        self.tri_neighbors = np.where(ends[..., 0] == own, ends[..., 1], ends[..., 0])

    # -- queries ----------------------------------------------------------

    @property
    def triangle_count(self) -> int:
        return int(len(self.triangles))

    def total_area(self) -> float:
        return float(self.areas.sum())

    def is_closed(self) -> bool:
        return bool((self.edge_triangles >= 0).all())

    def max_edge_length(self) -> float:
        return float(self.edge_lengths.max())

    def vertex_star(self, vertex: int) -> VertexStar:
        """The star of polytope vertex ``vertex`` in centroid-distance order,
        computed on the first call for that vertex and kept on the mesh."""
        star = self._stars.get(vertex)
        if star is None:
            cone = link_volume(self.polytope, vertex)
            incident = [f for f, _ in cone.facet_contributions]
            tris = np.flatnonzero(np.isin(self.facet_of, incident))
            dist = np.linalg.norm(self.centroids[tris] - self.positions[vertex], axis=1)
            order = np.argsort(dist, kind="stable")
            tris = tris[order]
            star = VertexStar(cone, tris, dist[order], np.cumsum(self.areas[tris]))
            _freeze(star.triangles, star.distances, star.prefix_area)
            self._stars[vertex] = star
        return star


def subdivide(polytope: Polytope, level: int) -> SurfaceMesh:
    """Triangulate the boundary of a 3-polytope at the given refinement level."""
    if polytope.dim != 3:
        raise UnsupportedDimension(
            f"surface meshing is defined for d = 3, got d = {polytope.dim}"
        )
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"subdivision level must be in [0, {MAX_LEVEL}]")

    rings = [polytope.facet_ring(fi) for fi in range(len(polytope.facets))]
    first_center = len(polytope.vertices)
    centers = np.array([polytope.vertices[ring].mean(axis=0) for ring in rings])
    positions = np.concatenate([polytope.vertices, centers])
    triangles = np.concatenate([
        np.column_stack([np.full(len(ring), first_center + fi), ring, np.roll(ring, -1)])
        for fi, ring in enumerate(rings)
    ])
    facet_of = np.repeat(np.arange(len(rings)), [len(ring) for ring in rings])

    for _ in range(level):
        # half-edges ab, bc, ca of each triangle in visit order
        half = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        _, first, inverse = np.unique(
            _edge_keys(half, len(positions)), return_index=True, return_inverse=True
        )
        visit = np.argsort(first, kind="stable")
        number = np.empty(len(first), dtype=np.int64)
        number[visit] = len(positions) + np.arange(len(first))
        ends = half[first[visit]]
        positions = np.concatenate(
            [positions, 0.5 * (positions[ends[:, 0]] + positions[ends[:, 1]])]
        )
        ab, bc, ca = number[inverse].reshape(-1, 3).T
        a, b, c = triangles.T
        triangles = np.stack(
            [a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1
        ).reshape(-1, 3)
        facet_of = np.repeat(facet_of, 4)

    return SurfaceMesh(
        positions,
        triangles,
        facet_of,
        subdivision_level=level,
        polytope=polytope,
    )


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _edge_keys(pairs: np.ndarray, count: int) -> np.ndarray:
    """Key ``lo * count + hi`` of each undirected edge given as index pairs.

    Keys sort like the sorted pairs do, so ``np.unique`` on keys orders edges
    lexicographically without a structured-dtype sort.
    """
    return pairs.min(axis=1) * count + pairs.max(axis=1)
