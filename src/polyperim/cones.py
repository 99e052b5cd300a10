"""Tangent cones at polytope vertices and apex-ball perimeter profiles.

At a vertex v of a polytope surface the nearby geometry is a metric cone over
the vertex link.  The link measure ``omega`` determines the apex-ball profile

    V(r) = omega * r^n / n,   A(r) = omega * r^(n-1)
    =>  A(V) = c * V^t,  c = cone_profile(omega, n, 1),  t = (n-1)/n,

where n = d-1 is the surface dimension.  Note the exponent: eliminating r
from the pair above forces t = (n-1)/n.  The variant (n-2)/(n-1) that
sometimes appears in print fails the elimination (for n = 2 it would make
apex balls have volume-independent perimeter) and is reported alongside the
working exponent by the CLI, not used.

Link measures:

* n = 1 (polygon boundary): counting measure, always 2.
* n = 2 (polyhedron): sum of the incident facet angles at v, in radians.
* n = 3 (4-polytope): sum over incident cells of the interior solid angle at
  v, each computed inside the cell's 3-dimensional span by triangulating the
  vertex figure into simplicial cones and applying the arctangent formula
  for a trihedral cone.

``r_max`` is the conservative star-containment radius: the smallest distance
from v to a boundary face of its star, measured inside each incident facet
(facets are flat, so in-facet straight lines are intrinsic geodesics).

Links and star radii are gathered per facet: each facet is measured once at
all of its vertices, and a vertex's cone collects its facets' contributions
in increasing facet order and the smallest of their distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import UnsupportedDimension
from .polytope import (
    Polytope,
    affine_span,
    enumerate_facets,
    order_polygon,
    project_to_span,
)
from .profiles import cone_profile, sphere_measure

LINK_RTOL = 1e-12  # relative; links this close count as equal


@dataclass(frozen=True)
class VertexCone:
    """Link data for one polytope vertex."""

    vertex_index: int
    surface_dim: int
    link_volume: float
    r_max: float
    facet_contributions: tuple[tuple[int, float], ...]

    @property
    def valid_volume_max(self) -> float:
        n = self.surface_dim
        return self.link_volume * self.r_max**n / n


@dataclass(frozen=True)
class PowerLawProfile:
    """Apex-ball profile ``A(V) = coefficient * V^exponent``."""

    coefficient: float
    exponent: float


def tet_solid_angle(a, b, c) -> float:
    """Solid angle of the trihedral cone spanned by three rays.

    Arctangent form: with unit rays, ``tan(omega/2) = |det[a b c]| /
    (1 + a.b + a.c + b.c)``, evaluated with atan2 so flat and wide cones are
    handled without branching.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    c = c / np.linalg.norm(c)
    num = abs(float(np.linalg.det(np.stack([a, b, c]))))
    den = 1.0 + float(a @ b) + float(a @ c) + float(b @ c)
    return 2.0 * math.atan2(num, den)


# ---------------------------------------------------------------------------
# per-facet corner data
# ---------------------------------------------------------------------------

def _cell_solid_angle(points: np.ndarray, apex: int) -> float:
    """Interior solid angle of a 3-polytope (given in local 3D coords) at a
    vertex.

    The hull of the apex and the unit rays to the other vertices is the
    vertex cone cut off by a cap; the cap's hull triangles (those without
    the apex) tile the cone's directions, one trihedral cone each.
    """
    others = np.delete(points, apex, axis=0) - points[apex]
    rays = others / np.linalg.norm(others, axis=1)[:, None]
    hull = ConvexHull(np.vstack([np.zeros(3), rays]))
    return math.fsum(
        tet_solid_angle(*hull.points[tri]) for tri in hull.simplices if 0 not in tri
    )


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    t = float((p - a) @ ab) / float(ab @ ab)
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def _point_polygon_distance(p: np.ndarray, poly_pts: np.ndarray) -> float:
    """Distance from a point to a convex polygon embedded in 3-space."""
    origin, basis, rank = affine_span(poly_pts)
    if rank != 2:
        raise ValueError("polygon vertices do not span a plane")
    flat = project_to_span(poly_pts, origin, basis)
    order = order_polygon(poly_pts)
    flat = flat[order]
    pts = poly_pts[order]
    q = project_to_span(p[None, :], origin, basis)[0]
    inside = True
    sign = 0.0
    for i in range(len(flat)):
        e = flat[(i + 1) % len(flat)] - flat[i]
        s = e[0] * (q[1] - flat[i][1]) - e[1] * (q[0] - flat[i][0])
        if sign == 0.0 and abs(s) > 1e-15:
            sign = math.copysign(1.0, s)
        elif s * sign < -1e-12:
            inside = False
            break
    if inside:
        normal = np.cross(poly_pts[1] - poly_pts[0], poly_pts[2] - poly_pts[0])
        normal = normal / np.linalg.norm(normal)
        return abs(float((p - poly_pts[0]) @ normal))
    return min(
        _point_segment_distance(p, pts[i], pts[(i + 1) % len(pts)])
        for i in range(len(pts))
    )


def _facet_corners(poly: Polytope, fi: int) -> dict[int, tuple[float, float]]:
    """Link contribution and star distance of facet ``fi`` at each of its
    vertices.

    The distance runs from the vertex to the part of the facet's boundary
    away from it: the other end of an edge (d = 2), the ring edges not
    touching the vertex (d = 3), the cell's 2-faces not containing it
    (d = 4).  This is the only place that branches on the dimension.
    """
    d = poly.dim
    pts = poly.vertices
    if d == 2:
        a, b = poly.facets[fi]
        return {
            a: (1.0, float(np.linalg.norm(pts[b] - pts[a]))),
            b: (1.0, float(np.linalg.norm(pts[a] - pts[b]))),
        }
    corners = {}
    if d == 3:
        ring = poly.facet_ring(fi)
        k = len(ring)
        for i in range(k):
            v = pts[ring[i]]
            u1 = pts[ring[i - 1]] - v
            u2 = pts[ring[(i + 1) % k]] - v
            cr = np.linalg.norm(np.cross(u1, u2))
            dist = min(
                _point_segment_distance(v, pts[ring[j]], pts[ring[(j + 1) % k]])
                for j in range(k)
                if i not in (j, (j + 1) % k)
            )
            corners[int(ring[i])] = (math.atan2(float(cr), float(u1 @ u2)), dist)
        return corners
    cell = poly.facets[fi]
    cell_pts = pts[list(cell)]
    origin, basis, rank = affine_span(cell_pts)
    if rank != 3:
        raise UnsupportedDimension("cell is not 3-dimensional")
    local = project_to_span(cell_pts, origin, basis)
    faces = enumerate_facets(local)
    for apex, vertex in enumerate(cell):
        vloc = project_to_span(pts[vertex][None, :], origin, basis)[0]
        dist = min(
            _point_polygon_distance(vloc, local[list(face)])
            for face in faces
            if apex not in face
        )
        corners[vertex] = (_cell_solid_angle(local, apex), dist)
    return corners


def _cone(
    poly: Polytope, vertex: int, contributions: list[tuple[int, float]], r_max: float
) -> VertexCone:
    n = poly.surface_dim
    # left to right, as ``sum`` adds floats before Python 3.12 (later
    # versions compensate, which would move links by an ulp)
    omega = 0.0
    for _, c in contributions:
        omega += c
    if n >= 2 and not 0.0 < omega < sphere_measure(n - 1) + 1e-9:
        raise ValueError(
            f"vertex {vertex}: link measure {omega} outside (0, |S^{n-1}|)"
        )
    return VertexCone(
        vertex_index=vertex,
        surface_dim=n,
        link_volume=omega,
        r_max=r_max,
        facet_contributions=tuple(contributions),
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def link_volume(poly: Polytope, vertex: int) -> VertexCone:
    """Measure the vertex link and star radius; see the module docstring."""
    if not 0 <= vertex < len(poly.vertices):
        raise ValueError(f"vertex index {vertex} out of range")
    contributions = []
    r_max = math.inf
    for fi in poly.incident_facets(vertex):
        contribution, dist = _facet_corners(poly, fi)[vertex]
        contributions.append((fi, contribution))
        r_max = min(r_max, dist)
    return _cone(poly, vertex, contributions, r_max)


def vertex_cones(poly: Polytope) -> list[VertexCone]:
    """Every vertex's cone, from one walk over the facets in index order."""
    contributions: list[list[tuple[int, float]]] = [[] for _ in poly.vertices]
    r_max = [math.inf] * len(poly.vertices)
    for fi in range(len(poly.facets)):
        for vertex, (contribution, dist) in _facet_corners(poly, fi).items():
            contributions[vertex].append((fi, contribution))
            r_max[vertex] = min(r_max[vertex], dist)
    return [_cone(poly, v, contributions[v], r_max[v]) for v in range(len(r_max))]


def apex_ball_profile(cone: VertexCone) -> PowerLawProfile:
    """Power-law profile of balls about the cone apex: ``cone_profile`` at
    unit volume, with exponent (n-1)/n.

    For n = 1 the boundary is two points whatever the volume, so the profile
    degenerates to the constant 2 (exponent 0).
    """
    n = cone.surface_dim
    return PowerLawProfile(cone_profile(cone.link_volume, n, 1.0), (n - 1.0) / n)


def rank_by_link(cones: list[VertexCone]) -> list[VertexCone]:
    """Cones by increasing link, each ranked as the smallest link within
    LINK_RTOL (relative) below its own and ties going to the lowest vertex
    index, so rounding never orders equal links (the hypercube's 2*pi)."""
    links = np.sort([c.link_volume for c in cones])
    return sorted(cones, key=lambda c: (
        links[np.searchsorted(links, c.link_volume / (1.0 + LINK_RTOL))],
        c.vertex_index,
    ))


def deficit_sum(poly: Polytope) -> float:
    """Sum of angle deficits 2*pi - omega over all vertices of a 3-polytope."""
    if poly.dim != 3:
        raise UnsupportedDimension("deficit sum is defined for d = 3")
    return float(sum(2.0 * math.pi - c.link_volume for c in vertex_cones(poly)))
