import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polyperim import Polytope, polytope, shapes
from polyperim import cones as cones_module
from polyperim.cones import (
    LINK_RTOL,
    deficit_sum,
    rank_by_link,
    vertex_cones,
)
from polyperim.errors import NumericalError, UnsupportedDimension
from polyperim.gallery import tet_solid_angle

from conftest import facet_rings

LINK_TOL = 1e-9


def _incident(poly, vertex):
    """Indices of the facets containing a vertex, by a scan of the facets."""
    return [fi for fi, f in enumerate(poly.facets) if vertex in f]


def _corner_angle_oracle(poly, vertex):
    """Sum of facet-interior angles at a vertex of a 3-polytope, by plain trig."""
    total = 0.0
    apex = poly.vertices[vertex]
    rings = facet_rings(poly)
    for fi in _incident(poly, vertex):
        ring = rings[fi].tolist()
        k = ring.index(vertex)
        u = poly.vertices[ring[(k + 1) % len(ring)]] - apex
        w = poly.vertices[ring[k - 1]] - apex
        cosang = u @ w / (np.linalg.norm(u) * np.linalg.norm(w))
        total += math.acos(np.clip(cosang, -1.0, 1.0))
    return total


def test_cube_vertex_link():
    cone = vertex_cones(shapes.cube())[0]
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
        # a squat pyramid: height 0.7 over [-1, 1]^2
        Polytope([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0], [0, 0, 0.7]]),
    ):
        for v, cone in enumerate(vertex_cones(poly)):
            oracle = _corner_angle_oracle(poly, v)
            assert cone.link_volume == pytest.approx(oracle, abs=LINK_TOL)


def test_facet_contributions_sum_to_link():
    # the corner table's entries at vertex 2, one per incident facet, in
    # increasing facet order, add up to its link
    poly = shapes.triangular_prism()
    link, _ = cones_module._facet_corners(poly)
    entries = [fi for fi, f in enumerate(poly.facets) for v in f if v == 2]
    assert entries == _incident(poly, 2)
    parts = link[np.concatenate(poly.facets) == 2]
    assert len(parts) == len(entries)
    assert sum(parts.tolist()) == pytest.approx(vertex_cones(poly)[2].link_volume, abs=LINK_TOL)


def test_a_link_outside_the_sphere_measure_is_rejected(monkeypatch):
    # a corner table whose links leave (0, |S^1|) at vertex 3 first
    poly = shapes.cube()
    link, dist = cones_module._facet_corners(poly)
    link[np.concatenate(poly.facets) == 3] = 3.0
    monkeypatch.setattr(cones_module, "_facet_corners", lambda _: (link, dist))
    with pytest.raises(
        NumericalError, match=r"vertex 3: link measure 9\.0 outside \(0, \|S\^1\|\)"
    ):
        vertex_cones(poly)


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
    cone = vertex_cones(shapes.hypercube())[0]
    assert cone.surface_dim == 3
    # four cubical corners, each an octant of the 2-sphere
    assert cone.link_volume == pytest.approx(2 * math.pi, abs=1e-6)


def test_regular_4_simplex_vertex_link():
    # four regular-tetrahedron corners, each of solid angle arccos(23/27)
    cone = vertex_cones(shapes.simplex4())[0]
    assert cone.link_volume == pytest.approx(4 * math.acos(23 / 27), abs=1e-12)


def test_square_vertex_link_counts_two_points():
    # the link of a corner of a boundary curve is a pair of points,
    # so its 0-dimensional measure is simply 2
    cone = vertex_cones(shapes.square())[1]
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


def test_optimal_vertex_prefers_sharpest_corner():
    poly = shapes.square_pyramid()
    best = rank_by_link(vertex_cones(poly))[0]
    assert best.vertex_index == 4
    assert best.link_volume == pytest.approx(
        _corner_angle_oracle(poly, 4), abs=LINK_TOL
    )


def test_hypercube_smallest_link_is_vertex_zero():
    # all sixteen links are 2*pi, and ties go to the lowest vertex index
    cones = vertex_cones(shapes.hypercube())
    links = np.array([c.link_volume for c in cones])
    assert np.allclose(links, links[0], rtol=LINK_RTOL, atol=0.0)
    assert rank_by_link(cones)[0].vertex_index == 0


def test_rank_by_link_treats_links_within_tolerance_as_equal():
    base = vertex_cones(shapes.cube())[0]
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
    reference = vertex_cones(base)[0].link_volume
    for _ in range(12):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = base.vertices @ q.T
        poly = Polytope(rotated)
        assert vertex_cones(poly)[0].link_volume == pytest.approx(
            reference, abs=LINK_TOL
        )


def test_r_max_shrinks_with_scale():
    big = vertex_cones(shapes.cube(side=3.0))[0]
    assert big.r_max == pytest.approx(3.0, abs=1e-9)
    assert big.valid_volume_max == pytest.approx(
        1.5 * math.pi * 9.0 / 2.0, abs=1e-8
    )


#: Cones recorded before links and star radii were gathered per facet; the
#: d = 4 entries were re-recorded when cells got closed-form corners (links
#: moved by at most 1.9e-15 relative, star radii by 5.7e-16), when facets
#: took Qhull's planes (links 1.0e-15, star radii 3.4e-16, facet
#: contributions 6.6e-14), and when cells were measured from the
#: 4-polytope's ridges (links 1.2e-15, star radii 8.9e-16, facet
#: contributions 4.2e-14).  Keys name a builtin shape or a seeded unit-sphere
#: hull, sphere-d<dim>-n<points>-s<seed>.
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
    return {"link_volume": cone.link_volume.hex(), "r_max": cone.r_max.hex()}


def _table_contributions(poly):
    """Each vertex's [facet, contribution] pairs, facets ascending, read off
    the corner table entry by entry in incidence order."""
    link, _ = cones_module._facet_corners(poly)
    pairs = [[] for _ in poly.vertices]
    entry = 0
    for fi, facet in enumerate(poly.facets):
        for v in facet:
            pairs[v].append([fi, float(link[entry]).hex()])
            entry += 1
    assert entry == len(link)
    return pairs


@pytest.mark.parametrize("key", list(PINNED_CONES))
def test_vertex_cones_are_pinned(key):
    poly = _pinned_polytope(key)
    pinned = PINNED_CONES[key]
    assert [_cone_record(c) for c in vertex_cones(poly)] == [
        {"link_volume": p["link_volume"], "r_max": p["r_max"]} for p in pinned
    ]
    assert _table_contributions(poly) == [p["facet_contributions"] for p in pinned]


def test_4d_cones_build_no_hull_of_their_own(monkeypatch):
    # a cell is measured from the ridges the 4-polytope already holds
    polys = [shapes.hypercube(), _pinned_polytope("sphere-d4-n40-s8")]

    def no_hull(*args, **kwargs):
        raise AssertionError("vertex_cones called Qhull")

    monkeypatch.setattr(polytope, "ConvexHull", no_hull)
    for poly in polys:
        assert len(vertex_cones(poly)) == len(poly.vertices)


@pytest.mark.parametrize("key", ["hypercube", "simplex4", "sphere-d4-n40-s8", "sphere-d4-n120-s3"])
def test_4d_cones_do_not_depend_on_the_cell_blocks(key, monkeypatch):
    # blocks of whole entries: tiny ones, the default and one block for all
    poly = _pinned_polytope(key)
    records = []
    for rows in (7, cones_module._CELL_ROWS, 1 << 62):
        monkeypatch.setattr(cones_module, "_CELL_ROWS", rows)
        link, dist = cones_module._facet_corners(poly)
        records.append((link.tobytes(), dist.tobytes(),
                        [_cone_record(c) for c in vertex_cones(poly)]))
    assert records[0] == records[1] == records[2]


def _prism(k):
    """A right prism over the regular k-gon: two k-gon facets and k squares."""
    a = 2 * np.pi * np.arange(k) / k
    ring = np.c_[np.cos(a), np.sin(a)]
    return Polytope.from_vertices(np.r_[np.c_[ring, np.zeros(k)], np.c_[ring, np.ones(k)]])


@pytest.mark.parametrize("key", ["octahedron", "sphere-d3-n200-s1", "prism-60"])
def test_3d_cones_do_not_depend_on_the_corner_blocks(key, monkeypatch):
    # one entry per block, the default and one block for all
    poly = _prism(60) if key == "prism-60" else _pinned_polytope(key)
    records = []
    for rows in (7, cones_module._CELL_ROWS, 1 << 62):
        monkeypatch.setattr(cones_module, "_CELL_ROWS", rows)
        link, dist = cones_module._facet_corners(poly)
        records.append((link.tobytes(), dist.tobytes(),
                        [_cone_record(c) for c in vertex_cones(poly)]))
    assert records[0] == records[1] == records[2]


def test_3d_cones_memory_stays_small_on_long_rings():
    """On the 500-gon prism (ring table warm) the cones peak at 3.5 MiB,
    and at 95.6 MiB with every (corner, ring edge) row in one block, which
    grows as k^2."""
    poly = _prism(500)
    vertex_cones(poly)
    tracemalloc.start()
    try:
        vertex_cones(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_4d_cones_memory_stays_small():
    """On a 600-point 4-D sphere hull (3,854 cells) the cones peak at 8.6
    MiB, and at 45.0 MiB with every (cell vertex, face pair) row in one
    block."""
    poly = _pinned_polytope("sphere-d4-n600-s0")
    tracemalloc.start()
    try:
        vertex_cones(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
