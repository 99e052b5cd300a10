import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from polyperim import Polytope, shapes
from polyperim.cones import (
    apex_ball_profile,
    deficit_sum,
    link_volume,
    rank_by_link,
    tet_solid_angle,
    vertex_cones,
)
from polyperim.errors import UnsupportedDimension
from polyperim.profiles import cone_profile

LINK_TOL = 1e-9


def _corner_angle_oracle(poly, vertex):
    """Sum of facet-interior angles at a vertex of a 3-polytope, by plain trig."""
    total = 0.0
    apex = poly.vertices[vertex]
    for fi in poly.incident_facets(vertex):
        ring = list(poly.facet_ring(fi))
        k = ring.index(vertex)
        u = poly.vertices[ring[(k + 1) % len(ring)]] - apex
        w = poly.vertices[ring[k - 1]] - apex
        cosang = u @ w / (np.linalg.norm(u) * np.linalg.norm(w))
        total += math.acos(np.clip(cosang, -1.0, 1.0))
    return total


def test_cube_vertex_link():
    cone = link_volume(shapes.cube(), 0)
    assert cone.link_volume == pytest.approx(1.5 * math.pi, abs=LINK_TOL)
    assert cone.r_max == pytest.approx(1.0, abs=1e-12)
    assert cone.valid_volume_max == pytest.approx(0.75 * math.pi, abs=LINK_TOL)


@pytest.mark.parametrize(
    "factory, expected",
    [
        (shapes.cube, 1.5 * math.pi),
        (shapes.tetrahedron, math.pi),
        (shapes.octahedron, 4.0 * math.pi / 3.0),
    ],
)
def test_regular_solids_every_vertex(factory, expected):
    poly = factory()
    for cone in vertex_cones(poly):
        assert cone.link_volume == pytest.approx(expected, abs=LINK_TOL)


def test_links_match_trig_oracle():
    for poly in (
        shapes.square_pyramid(),
        shapes.triangular_prism(),
        shapes.square_pyramid(height=0.7, base=2.0),
    ):
        for v in range(len(poly.vertices)):
            oracle = _corner_angle_oracle(poly, v)
            assert link_volume(poly, v).link_volume == pytest.approx(
                oracle, abs=LINK_TOL
            )


def test_facet_contributions_sum_to_link():
    cone = link_volume(shapes.triangular_prism(), 2)
    parts = dict(cone.facet_contributions)
    assert set(parts) == set(shapes.triangular_prism().incident_facets(2))
    assert sum(parts.values()) == pytest.approx(cone.link_volume, abs=LINK_TOL)


def test_deficit_sums():
    """Total angle deficit of a convex polyhedron is 4*pi."""
    for factory in (
        shapes.cube,
        shapes.tetrahedron,
        shapes.octahedron,
        shapes.square_pyramid,
        shapes.triangular_prism,
    ):
        assert deficit_sum(factory()) == pytest.approx(4 * math.pi, abs=LINK_TOL)
    with pytest.raises(UnsupportedDimension):
        deficit_sum(shapes.square())


def test_hypercube_vertex_link():
    poly = shapes.hypercube()
    cone = link_volume(poly, 0)
    assert cone.surface_dim == 3
    # four cubical corners, each an octant of the 2-sphere
    assert cone.link_volume == pytest.approx(2 * math.pi, abs=1e-6)


def test_regular_4_simplex_vertex_link():
    # four regular-tetrahedron corners, each of solid angle arccos(23/27)
    cone = link_volume(shapes.simplex4(), 0)
    assert cone.link_volume == pytest.approx(4 * math.acos(23 / 27), abs=1e-12)


def test_square_vertex_link_counts_two_points():
    # the link of a corner of a boundary curve is a pair of points,
    # so its 0-dimensional measure is simply 2
    cone = link_volume(shapes.square(), 1)
    assert cone.surface_dim == 1
    assert cone.link_volume == pytest.approx(2.0, abs=LINK_TOL)


def test_tet_solid_angle_octant():
    assert tet_solid_angle(
        [1, 0, 0], [0, 1, 0], [0, 0, 1]
    ) == pytest.approx(math.pi / 2, abs=1e-12)


def test_tet_solid_angle_monte_carlo():
    rng = np.random.default_rng(20240917)
    rays = rng.normal(size=(3, 3))
    if np.linalg.det(rays) < 0:
        rays[2] = -rays[2]
    predicted = tet_solid_angle(*rays)
    samples = 200_000
    pts = rng.normal(size=(samples, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    coeffs = np.linalg.solve(rays.T, pts.T)
    hits = (coeffs > 0).all(axis=0).sum()
    frac = predicted / (4 * math.pi)
    sigma = math.sqrt(frac * (1 - frac) / samples)
    assert abs(hits / samples - frac) < 4 * sigma + 1e-12


def test_apex_ball_profile_cube():
    cone = link_volume(shapes.cube(), 0)
    profile = apex_ball_profile(cone)
    assert profile.coefficient == cone_profile(cone.link_volume, 2, 1.0)
    assert profile.coefficient == pytest.approx(math.sqrt(3 * math.pi), abs=1e-12)
    assert profile.exponent == 0.5
    v = 0.1
    assert profile.coefficient * v**profile.exponent == pytest.approx(
        math.sqrt(3 * math.pi * v), abs=1e-12
    )


def test_apex_ball_profile_exponents_by_dimension():
    assert apex_ball_profile(link_volume(shapes.square(), 0)).exponent == 0.0
    assert apex_ball_profile(
        link_volume(shapes.hypercube(), 0)
    ).exponent == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_optimal_vertex_prefers_sharpest_corner():
    poly = shapes.square_pyramid()
    best = rank_by_link(vertex_cones(poly))[0]
    assert best.vertex_index == 4
    assert best.link_volume == pytest.approx(
        _corner_angle_oracle(poly, 4), abs=LINK_TOL
    )


def test_hypercube_smallest_link_is_vertex_zero():
    # all sixteen links are 2*pi, vertex 0's sum lands a few ulps above it
    cones = vertex_cones(shapes.hypercube())
    assert cones[0].link_volume != min(c.link_volume for c in cones)
    assert rank_by_link(cones)[0].vertex_index == 0


def test_rank_by_link_treats_links_within_tolerance_as_equal():
    base = link_volume(shapes.cube(), 0)
    links = [2.0, 1.0 + 4e-13, 1.0, 2.0 - 1e-15, 1.5, 1.0 + 1e-9]
    cones = [
        dataclasses.replace(base, vertex_index=i, link_volume=omega)
        for i, omega in enumerate(links)
    ]
    order = [c.vertex_index for c in rank_by_link(cones)]
    assert order == [1, 2, 5, 4, 0, 3]
    assert [c.vertex_index for c in rank_by_link(cones[::-1])] == order


def test_link_volume_rotation_invariant():
    rng = np.random.default_rng(7)
    base = shapes.tetrahedron()
    reference = link_volume(base, 0).link_volume
    for _ in range(12):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = base.vertices @ q.T
        poly = type(base)(rotated, base.facets)
        assert link_volume(poly, 0).link_volume == pytest.approx(
            reference, abs=LINK_TOL
        )


def test_r_max_shrinks_with_scale():
    big = link_volume(shapes.cube(side=3.0), 0)
    assert big.r_max == pytest.approx(3.0, abs=1e-9)
    assert big.valid_volume_max == pytest.approx(
        1.5 * math.pi * 9.0 / 2.0, abs=1e-8
    )


#: Cones recorded before links and star radii were gathered per facet.  Keys
#: name a builtin shape or a seeded unit-sphere hull, sphere-d<dim>-n<points>-s<seed>.
PINNED_CONES = json.loads(
    (Path(__file__).parent / "data" / "vertex_cones.json").read_text()
)


def _pinned_polytope(key):
    if not key.startswith("sphere-"):
        return getattr(shapes, key)()
    _, dim, points, seed = key.split("-")
    pts = np.random.default_rng(int(seed[1:])).normal(size=(int(points[1:]), int(dim[1:])))
    return Polytope.from_vertices(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def _cone_record(cone):
    return {
        "link_volume": cone.link_volume.hex(),
        "r_max": cone.r_max.hex(),
        "facet_contributions": [[fi, c.hex()] for fi, c in cone.facet_contributions],
    }


@pytest.mark.parametrize("key", list(PINNED_CONES))
def test_vertex_cones_are_pinned(key):
    poly = _pinned_polytope(key)
    cones = vertex_cones(poly)
    assert [_cone_record(c) for c in cones] == PINNED_CONES[key]
    for v in range(0, len(cones), max(1, len(cones) // 4)):
        assert link_volume(poly, v) == cones[v]
