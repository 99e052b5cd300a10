"""Identities checked on random convex hulls of points on the unit sphere."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from polyperim import shapes
from polyperim.cones import _facet_corners, deficit_sum, vertex_cones
from polyperim.errors import InvalidPolytope
from polyperim.mesh import _edge_table, subdivide
from polyperim.polytope import (
    MERGE_TOL,
    Polytope,
    affine_span,
    polytope_measure,
)
from polyperim.smoothing import convexity_probe, smoothed_body
from polyperim.solver import anisotropy_bound, vertex_ball_region

from conftest import assert_facet_planes_hold


def sphere_points(m: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).normal(size=(m, 3))
    return x / np.linalg.norm(x, axis=1)[:, None]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(m=st.integers(8, 500), seed=st.integers(0, 2**32 - 1))
@example(m=500, seed=0)
def test_random_hull_identities(m, seed):
    points = sphere_points(m, seed)
    poly = Polytope.from_vertices(points)
    assert np.array_equal(poly.vertices, points)
    assert_facet_planes_hold(poly)
    facet_count = len(poly.facets)

    edges = {frozenset(e) for e in poly.ring_edges.tolist()}
    assert len(poly.vertices) - len(edges) + facet_count == 2

    assert deficit_sum(poly) == pytest.approx(4.0 * math.pi, abs=1e-9)
    # the corner table runs facet by facet, each facet's vertices ascending
    link, dist = _facet_corners(poly)
    entries = [(fi, v) for fi, f in enumerate(poly.facets) for v in f]
    assert len(link) == len(dist) == len(entries)
    assert entries == sorted(entries)
    vertex = np.array([v for _, v in entries])
    for v, cone in enumerate(vertex_cones(poly)):
        assert cone.link_volume == np.cumsum(link[vertex == v])[-1]
        assert cone.r_max == dist[vertex == v].min()
    measures = np.array([polytope_measure(poly.vertices[list(f)]) for f in poly.facets])
    assert measures.sum() == pytest.approx(ConvexHull(points).area, rel=1e-12)

    mesh = subdivide(poly, 2)
    assert mesh.is_closed()
    pieces = np.bincount(mesh.facet_of, weights=mesh.areas, minlength=facet_count)
    assert np.allclose(pieces, measures, rtol=1e-12, atol=0.0)

    # a point in the middle of a face lies on one facet only
    face_center = poly.vertices[list(poly.facets[seed % facet_count])].mean(axis=0)
    with pytest.raises(InvalidPolytope):
        Polytope.from_vertices(np.vstack([points, face_center]))

    # a near-duplicate merges into the first occurrence
    k = seed % m
    nudge = np.full(3, 0.25 * MERGE_TOL)
    merged = Polytope.from_vertices(np.insert(points, k + 1, points[k] + nudge, axis=0))
    assert np.array_equal(merged.vertices, points)
    assert merged.facets == poly.facets


def assert_closed_2_manifold(mesh):
    """Every edge on exactly two triangles, each half-edge's twin a different
    half-edge of the same edge whose twin it is, each triangle its
    neighbour's neighbour across the same edge, and V - E + T = 2."""
    tri_edges, twins = mesh.tri_edges, mesh.tri_twins
    nbrs = twins // 3
    edges = _edge_table(mesh.triangles, len(mesh.positions))[0]
    assert mesh.is_closed()
    assert len(edges) == len(mesh.edge_lengths)
    assert (np.bincount(tri_edges.ravel(), minlength=len(edges)) == 2).all()
    flat, half = twins.ravel(), np.arange(tri_edges.size)
    assert (flat[flat] == half).all()
    assert (flat != half).all()
    assert (tri_edges.ravel()[flat] == tri_edges.ravel()).all()
    own = np.arange(mesh.triangle_count)[:, None]
    assert (nbrs != own).all()
    # side k of neighbour nbrs[t, j] is edge tri_edges[t, j] for exactly one
    # k, the twin's side
    across = tri_edges[nbrs] == tri_edges[:, :, None]
    assert (across.sum(axis=2) == 1).all()
    assert (across.argmax(axis=2) == twins % 3).all()
    assert (nbrs[nbrs][across].reshape(-1, 3) == own).all()
    assert len(mesh.positions) - len(edges) + mesh.triangle_count == 2


@settings(max_examples=12, deadline=None, derandomize=True)
@given(m=st.integers(4, 200), seed=st.integers(0, 2**32 - 1), level=st.integers(0, 3))
def test_random_hull_meshes_are_closed_2_manifolds(m, seed, level):
    assert_closed_2_manifold(subdivide(Polytope.from_vertices(sphere_points(m, seed)), level))


@pytest.mark.parametrize(
    "name", ["cube", "octahedron", "square_pyramid", "tetrahedron", "triangular_prism"]
)
def test_builtin_meshes_are_closed_2_manifolds(name):
    poly = getattr(shapes, name)()
    for level in range(4):
        assert_closed_2_manifold(subdivide(poly, level))


def ray_hull_solid_angle(points: np.ndarray, apex: int) -> float:
    """Reference: the hull of the apex and the unit rays to the other
    vertices is the vertex cone cut off by a cap, and the cap's triangles
    tile the cone's directions, each a trihedral cone measured by the
    arctangent formula of ``tet_solid_angle``."""
    others = np.delete(points, apex, axis=0) - points[apex]
    rays = others / np.linalg.norm(others, axis=1)[:, None]
    hull = ConvexHull(np.vstack([np.zeros(3), rays]))
    cap = hull.points[hull.simplices[(hull.simplices != 0).all(axis=1)]]
    a, b, c = cap[:, 0], cap[:, 1], cap[:, 2]
    den = 1.0 + (a * b).sum(axis=1) + (a * c).sum(axis=1) + (b * c).sum(axis=1)
    return math.fsum(2.0 * np.arctan2(np.abs(np.linalg.det(cap)), den))


def hull_distance(p: np.ndarray, points: np.ndarray) -> float:
    """Reference: distance from p to the convex hull of points, by NNLS.

    With q = points - p, minimizing |q^T mu|^2 + (sum(mu) - 1)^2 over
    mu >= 0 gives mu = lambda / (1 + D) at the convex weights lambda of the
    nearest point, D being its squared distance, so lambda = mu / sum(mu).
    """
    q = points - p
    mu, _ = nnls(np.vstack([q.T, np.ones(len(q))]), np.r_[np.zeros(len(p)), 1.0])
    return float(np.linalg.norm(q.T @ (mu / mu.sum())))


def star_distance(points: np.ndarray, facets, v: int) -> float:
    """Reference: distance from vertex v to the facets missing it, by
    ``hull_distance``.  Facets are visited by increasing distance to their
    plane, a lower bound, until that bound reaches the best distance found."""
    away = [f for f in facets if v not in f]
    corner = points[[f[:3] for f in away]]
    normal = np.cross(corner[:, 1] - corner[:, 0], corner[:, 2] - corner[:, 0])
    bound = np.abs(((points[v] - corner[:, 0]) * normal).sum(axis=1))
    bound /= np.linalg.norm(normal, axis=1)
    best = math.inf
    for i in np.argsort(bound):
        if bound[i] >= best:
            break
        best = min(best, hull_distance(points[v], points[list(away[i])]))
    return best


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=st.integers(5, 120), seed=st.integers(0, 2**32 - 1))
def test_vertex_solid_angles_satisfy_brianchon_gram(m, seed):
    poly = Polytope.from_vertices(sphere_points(m, seed))
    # poly is the base cell of the 4-D pyramid over it with apex (0, 0, 0, 1)
    pyramid = Polytope.from_vertices(
        np.vstack([np.hstack([poly.vertices, np.zeros((m, 1))]), [0.0, 0.0, 0.0, 1.0]])
    )
    # the base cell's entries of the corner table are its vertices 0..m-1
    cell = pyramid.facets.index(tuple(range(m)))
    first = sum(len(f) for f in pyramid.facets[:cell])
    angles, dist = (a[first : first + m] for a in _facet_corners(pyramid))
    solid = angles.tolist()
    for v in range(m):
        assert solid[v] == pytest.approx(ray_hull_solid_angle(poly.vertices, v), abs=1e-12)
        assert dist[v] == pytest.approx(
            star_distance(poly.vertices, poly.facets, v), abs=1e-12
        )

    # sum_v Omega_v = 2 sum_e theta_e - 2 pi F + 4 pi, with interior solid
    # angles Omega_v and interior dihedral angles theta_e
    facets_of_edge = {}
    facet = np.repeat(np.arange(len(poly.facets)), [len(f) for f in poly.facets])
    for fi, e in zip(facet.tolist(), poly.ring_edges.tolist()):
        facets_of_edge.setdefault(frozenset(e), []).append(fi)
    normals = poly.facet_normals
    dihedral = [
        math.pi - math.acos(np.clip(normals[f] @ normals[g], -1.0, 1.0))
        for f, g in facets_of_edge.values()
    ]
    expected = 2.0 * math.fsum(dihedral) - 2.0 * math.pi * len(poly.facets) + 4.0 * math.pi
    assert math.fsum(solid) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(m=st.integers(5, 60), seed=st.integers(0, 2**32 - 1))
def test_cell_corners_match_oracles_on_4d_hulls(m, seed):
    x = np.random.default_rng(seed).normal(size=(m, 4))
    poly = Polytope.from_vertices(x / np.linalg.norm(x, axis=1)[:, None])
    facets = [set(f) for f in poly.facets]
    angles, dists = _facet_corners(poly)
    entry = 0
    for cell in facets:
        ridges = [sorted(cell & g) for g in facets if g != cell and len(cell & g) >= 3]
        ordered = sorted(cell)
        points = poly.vertices[ordered]
        origin, basis, _ = affine_span(points)
        local = (points - origin) @ basis.T
        for j, v in enumerate(ordered):
            angle, dist = angles[entry], dists[entry]
            entry += 1
            assert angle == pytest.approx(ray_hull_solid_angle(local, j), abs=1e-12)
            assert dist == pytest.approx(
                min(hull_distance(poly.vertices[v], poly.vertices[r])
                    for r in ridges if v not in r),
                abs=1e-12,
            )


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    m=st.integers(5, 40),
    seed=st.integers(0, 2**32 - 1),
    level=st.integers(1, 3),
    fraction=st.floats(1e-3, 1.0),
)
def test_vertex_ball_area_is_within_one_triangle(m, seed, level, fraction):
    poly = Polytope.from_vertices(sphere_points(m, seed))
    mesh = subdivide(poly, level)
    vertex = seed % len(poly.vertices)
    cone = vertex_cones(poly)[vertex]
    volume = fraction * cone.valid_volume_max
    region = vertex_ball_region(mesh, vertex, volume)
    assert abs(region.area - volume) <= mesh.areas.max() + 1e-12
    incident = [fi for fi, f in enumerate(poly.facets) if vertex in f]
    assert np.isin(mesh.facet_of[region.mask], incident).all()
    # the region lies in v's star, a flat cone of angle omega <= 2 pi, where
    # no region of area A has a shorter boundary than the apex ball's
    assert region.cut_perimeter >= math.sqrt(2.0 * cone.link_volume * region.area) - 1e-9


def disphenoid(a: float, b: float, c: float) -> np.ndarray:
    """The tetrahedron whose four faces are the acute triangle of sides
    a, b and c, with its opposite edges equal."""
    x, y, z = (math.sqrt(s / 8.0) for s in (b * b + c * c - a * a,
                                             a * a + c * c - b * b,
                                             a * a + b * b - c * c))
    return np.array([[x, y, z], [x, -y, -z], [-x, y, -z], [-x, -y, z]])


def test_disphenoid_links_are_pi():
    """Each vertex of a disphenoid meets the three angles of one triangle,
    so every link is pi and the deficits sum to 4 pi (Gauss-Bonnet)."""
    rng = np.random.default_rng(23)
    built = 0
    while built < 50:
        a, b, c = np.sort(rng.uniform(0.5, 2.0, size=3))
        if c * c >= a * a + b * b:  # not acute
            continue
        poly = Polytope.from_vertices(disphenoid(a, b, c))
        links = [cone.link_volume for cone in vertex_cones(poly)]
        assert len(links) == 4
        assert np.abs(np.array(links) - math.pi).max() <= 1e-12
        assert deficit_sum(poly) == pytest.approx(4.0 * math.pi, abs=1e-9)
        built += 1


def kappa_by_edge_directions(mesh) -> float:
    """Reference: the largest gap between a triangle's edge directions mod pi."""
    worst = 0.0
    for tri in mesh.positions[mesh.triangles]:
        edges = tri[[1, 2, 0]] - tri
        normal = np.cross(edges[0], edges[1])
        u = edges[0] / np.linalg.norm(edges[0])
        w = np.cross(normal / np.linalg.norm(normal), u)
        ang = sorted(math.atan2(e @ w, e @ u) % math.pi for e in edges)
        worst = max(worst, ang[1] - ang[0], ang[2] - ang[1], math.pi - ang[2] + ang[0])
    return 1.0 / math.cos(worst / 2.0)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(m=st.integers(5, 40), seed=st.integers(0, 2**32 - 1), level=st.integers(1, 2))
def test_anisotropy_bound_is_largest_edge_direction_gap(m, seed, level):
    mesh = subdivide(Polytope.from_vertices(sphere_points(m, seed)), level)
    assert anisotropy_bound(mesh) == pytest.approx(
        kappa_by_edge_directions(mesh), rel=1e-12
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([2, 3]),
    m=st.integers(5, 10),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.01, 0.99),
)
def test_smoothed_body_lies_in_its_proven_bracket(dim, m, seed, fraction):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    verts = x[ConvexHull(x).vertices]
    poly = Polytope.from_vertices(verts - verts.mean(axis=0))
    # the inradius about the vertex mean, where the gauge is taken
    inradius = (poly.facet_offsets - poly.facet_normals @ poly.vertices.mean(axis=0)).min()
    eps = fraction * 0.5 * inradius
    body = smoothed_body(poly, eps, resolution=16 if dim == 2 else 4)

    rho = body.plain_radii()
    assert np.all((1.0 - eps / inradius) * rho <= body.radii)
    assert np.all(body.radii <= rho)
    assert np.abs(body.level(body.boundary_points) - 1.0).max() <= 1e-9
    assert np.abs(body.level(body.boundary_points) - 1.0).max() <= 1e-12
    assert body.newton_steps.max() <= 12

    # F <= F_eps < F + eps / r_in, the two bounds behind the bracket
    pts = rng.uniform(-1.5, 1.5, size=(100, dim))
    plain, smooth = body.kernel.gauge(pts), body.level(pts)
    assert np.all(smooth >= plain - 1e-12)
    assert np.all(smooth <= plain + eps / inradius + 1e-12)

    probe = convexity_probe(body, trials=32, seed=seed % 1000)
    assert probe.max_violation <= 1e-9
    assert probe.max_midpoint_violation <= 1e-9
    assert probe.max_gauge_gap <= 1e-9
