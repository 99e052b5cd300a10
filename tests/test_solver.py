import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from polyperim import shapes, solver
from polyperim.cones import link_volume, rank_by_link, vertex_cones
from polyperim.errors import (
    NoFeasibleRegion,
    ValidationError,
    VolumeOutOfRange,
    VolumeTooLarge,
)
from polyperim.mesh import SurfaceMesh, subdivide
from polyperim.solver import (
    Region,
    _State,
    anisotropy_bound,
    default_config,
    minimize_perimeter,
    vertex_ball_region,
)


def test_region_rejects_bad_mask():
    mesh = subdivide(shapes.cube(), 1)
    with pytest.raises(ValueError):
        Region(mesh=mesh, mask=np.ones(5, dtype=bool))


def test_open_edges_never_count_as_cut():
    # two triangles of a unit square share the diagonal; the rest is open
    strip = SurfaceMesh(
        positions=np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        facet_of=np.array([0, 0]),
        subdivision_level=0,
    )
    assert not strip.is_closed()
    for mask, expected in (
        ([True, False], math.sqrt(2.0)),
        ([False, True], math.sqrt(2.0)),
        ([True, True], 0.0),
        ([False, False], 0.0),
    ):
        assert Region(strip, np.array(mask)).cut_perimeter == expected, mask


def test_cut_perimeter_sums_the_edges_between_the_sides():
    mesh = subdivide(shapes.tetrahedron(), 3)
    rng = np.random.default_rng(3)
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        mask = rng.random(mesh.triangle_count) < p
        et = mesh.edge_triangles
        cut = mask[et[:, 0]] != mask[et[:, 1]]
        expected = float(mesh.edge_lengths[cut].sum())
        assert Region(mesh, mask).cut_perimeter == expected
        assert Region(mesh, ~mask).cut_perimeter == expected


def test_anisotropy_bound_cube_is_sqrt2():
    """Fan triangles of a square are right isosceles at every level."""
    for level in (1, 2, 3):
        assert anisotropy_bound(subdivide(shapes.cube(), level)) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )


def test_anisotropy_bound_equilateral():
    # bypass the centroid fan so every mesh triangle is a whole facet
    tet = shapes.tetrahedron()
    mesh = SurfaceMesh(
        positions=tet.vertices,
        triangles=np.array([list(f) for f in tet.facets]),
        facet_of=np.arange(4),
        subdivision_level=0,
        polytope=tet,
    )
    assert anisotropy_bound(mesh) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    # the centroid fan splits each facet into 120-degree isoceles triangles
    assert anisotropy_bound(subdivide(tet, 1)) == pytest.approx(2.0, abs=1e-9)


def test_vertex_ball_region_cube():
    mesh = subdivide(shapes.cube(), 4)
    volume = 3.0 * math.pi / 16.0  # ball radius exactly 1/2
    region = vertex_ball_region(mesh, 0, volume)
    amax = float(mesh.areas.max())
    assert abs(region.area - volume) <= amax + 1e-12
    incident = set(mesh.polytope.incident_facets(0))
    assert set(np.unique(mesh.facet_of[region.mask])) <= incident
    r = math.sqrt(2 * volume / (1.5 * math.pi))
    spread = np.linalg.norm(region.centroid - mesh.positions[0])
    assert spread < r + mesh.max_edge_length()


def test_vertex_ball_region_tetrahedron():
    mesh = subdivide(shapes.tetrahedron(), 4)
    volume = math.pi / 32.0  # link pi, radius 1/4
    region = vertex_ball_region(mesh, 2, volume)
    assert abs(region.area - volume) <= float(mesh.areas.max()) + 1e-12
    assert set(np.unique(mesh.facet_of[region.mask])) <= set(
        mesh.polytope.incident_facets(2)
    )


def test_vertex_ball_region_guards():
    mesh = subdivide(shapes.cube(), 2)
    with pytest.raises(VolumeTooLarge):
        vertex_ball_region(mesh, 0, 0.75 * math.pi * 1.01)
    with pytest.raises(VolumeOutOfRange):
        vertex_ball_region(mesh, 0, 0.0)
    with pytest.raises(VolumeOutOfRange, match="volume must be positive"):
        vertex_ball_region(mesh, 0, math.nan)
    with pytest.raises(ValueError):
        vertex_ball_region(mesh, 99, 0.1)


# Recorded from the earlier implementation, which grew or trimmed the raw
# radius cut one triangle at a time; one digest per mesh level 3, 4, 5.
BALL_MASK_DIGESTS = {
    "cube": ("4ebaf838d2e4ed3f", "49af882d8dad6e7e", "9c60986aecbd3534"),
    "tetrahedron": ("ae604453ca06e185", "096c577ab5e78dcc", "7606fe32fac46712"),
    "square_pyramid": ("ba73746adc963511", "329dafe33c53267b", "500d176b604bed7d"),
}


def _ball_digest(mesh, cases):
    h = hashlib.sha256()
    for vertex, volume in cases:
        mask = vertex_ball_region(mesh, vertex, float(volume)).mask
        h.update(np.packbits(mask).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(BALL_MASK_DIGESTS))
def test_vertex_ball_masks_are_pinned(name):
    poly = getattr(shapes, name)()
    cases = [
        (v, f * link_volume(poly, v).valid_volume_max)
        for v in range(len(poly.vertices))
        for f in np.geomspace(1e-3, 1.0, 25)
    ]
    for level, expected in zip((3, 4, 5), BALL_MASK_DIGESTS[name]):
        assert _ball_digest(subdivide(poly, level), cases) == expected, level


def test_vertex_ball_masks_are_pinned_on_the_level7_cube():
    mesh = subdivide(shapes.cube(), 7)
    cases = [(0, v) for v in np.geomspace(0.01, 0.2, 16)]
    assert _ball_digest(mesh, cases) == "5b15d0af3d7063e7"


@pytest.mark.parametrize("name, level", [("cube", 5), ("tetrahedron", 4)])
def test_vertex_ball_memo_matches_fresh_meshes(name, level):
    """Volumes queried in shuffled order, vertices interleaved, give the
    masks of a fresh mesh, and each mesh keeps its own star orders."""
    poly = getattr(shapes, name)()
    cases = [
        (v, f * link_volume(poly, v).valid_volume_max)
        for v in range(len(poly.vertices))
        for f in (1e-3, 0.1, 0.6, 1.0)
    ]
    mesh, other = subdivide(poly, level), subdivide(poly, level)
    for i in np.random.default_rng(11).permutation(len(cases)):
        vertex, volume = cases[i]
        fresh = vertex_ball_region(subdivide(poly, level), vertex, volume).mask
        assert np.array_equal(vertex_ball_region(mesh, vertex, volume).mask, fresh)
    assert sorted(mesh._stars) == list(range(len(poly.vertices)))
    assert other._stars == {}
    star, twin = mesh.vertex_star(1), other.vertex_star(1)
    assert mesh.vertex_star(1) is star and twin is not star
    assert np.array_equal(twin.triangles, star.triangles)


def test_default_config_scales_to_mesh():
    mesh = subdivide(shapes.cube(), 2)
    cfg = default_config(mesh, seed=5, iterations=1000, restarts=3)
    assert cfg.seed == 5 and cfg.restarts == 3
    assert cfg.mu == pytest.approx(30.0 * mesh.max_edge_length() / mesh.areas.min())
    assert cfg.cooling**1000 == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("iterations, restarts", [(1000, 0), (0, 3), (-5, 3)])
def test_default_config_rejects_empty_runs(iterations, restarts):
    mesh = subdivide(shapes.cube(), 1)
    with pytest.raises(ValidationError):
        default_config(mesh, iterations=iterations, restarts=restarts)


def test_minimize_perimeter_quick_run_is_deterministic():
    mesh = subdivide(shapes.cube(), 2)
    volume = 0.375  # exactly 24 level-2 triangles of area 1/64
    cfg = default_config(mesh, seed=3, iterations=4000, restarts=2)
    first = minimize_perimeter(mesh, volume, cfg)
    second = minimize_perimeter(mesh, volume, cfg)
    assert first.perimeter == second.perimeter
    assert np.array_equal(first.region.mask, second.region.mask)
    assert abs(first.area - volume) <= 0.02 * volume
    assert first.region.triangle_count == 24
    # any admissible region obeys the corner-ball lower bound
    assert first.perimeter >= math.sqrt(3 * math.pi * first.area) - 1e-9
    assert len(first.restart_perimeters) == 2
    # restart entries come from the incremental flip bookkeeping, the result
    # perimeter from an exact resum, so allow roundoff between the two
    assert first.restart_perimeters[first.best_restart] == pytest.approx(
        first.perimeter, abs=1e-9
    )


def test_move_counts_are_deterministic_and_add_up():
    mesh = subdivide(shapes.cube(), 3)
    volume = 0.1
    cfg = default_config(mesh, seed=2, iterations=3000, restarts=2)
    ball = vertex_ball_region(mesh, 0, volume)
    first = minimize_perimeter(mesh, volume, cfg, warm_starts=[ball])
    second = minimize_perimeter(mesh, volume, cfg, warm_starts=[ball])
    assert first.moves == second.moves and len(first.moves) == 2
    for m in first.moves:
        assert m.flips_proposed == m.flips_accepted + m.flips_rejected
        assert m.swaps_proposed == m.swaps_accepted + m.swaps_rejected
        assert m.flips_proposed + m.swaps_proposed == cfg.iterations
        assert min(m.flips_accepted, m.flips_rejected) > 0
        assert min(m.swaps_accepted, m.swaps_rejected) > 0
    # the feasible warm ball is the warm restart's first snapshot
    assert first.moves[0].snapshots >= 1


class _RecordingRng:
    """A seeded Generator that records the size of every uniform draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def test_annealing_draws_are_bounded_and_batching_leaves_the_run_alone(monkeypatch):
    mesh = subdivide(shapes.cube(), 3)
    nbrs = mesh.tri_neighbors.tolist()
    lens = mesh.edge_lengths[mesh.tri_edges].tolist()
    areas = mesh.areas.tolist()
    volume = 0.1
    init = vertex_ball_region(mesh, 0, volume).mask
    cfg = default_config(mesh, seed=0, iterations=2 * solver.DRAW_BLOCK + 5)

    def anneal():
        rng = _RecordingRng(5)
        state = _State(mesh, nbrs, lens, areas, init, volume)
        return rng.sizes, solver._anneal(state, cfg, rng, 0.02 * volume)

    sizes, result = anneal()
    assert result[0] is not None  # the feasible warm ball is a snapshot
    assert max(sizes) <= 4 * solver.DRAW_BLOCK
    assert sum(sizes) == 4 * cfg.iterations
    monkeypatch.setattr(solver, "DRAW_BLOCK", 7)
    small_sizes, small_result = anneal()
    assert max(small_sizes) == 28
    assert small_result == result


def test_minimize_perimeter_warm_start_quality():
    mesh = subdivide(shapes.cube(), 3)
    volume = 0.1
    cfg = default_config(mesh, seed=1, iterations=2000, restarts=1)
    ball = vertex_ball_region(mesh, 0, volume)
    res = minimize_perimeter(mesh, volume, cfg, warm_starts=[ball])
    # polished warm start is always a finalist, so the result cannot be
    # worse than the anisotropy ceiling of the discrete corner ball
    kappa = anisotropy_bound(mesh)
    assert res.perimeter <= kappa * math.sqrt(3 * math.pi * (volume * 1.02))
    assert res.perimeter >= math.sqrt(3 * math.pi * res.area) - 1e-9


def test_minimize_perimeter_infeasible_volume():
    mesh = subdivide(shapes.cube(), 2)
    cfg = default_config(mesh, seed=0, iterations=50, restarts=1)
    with pytest.raises(NoFeasibleRegion):
        minimize_perimeter(mesh, 0.02, cfg)


def test_minimize_perimeter_domain_checks():
    mesh = subdivide(shapes.cube(), 1)
    with pytest.raises(VolumeOutOfRange):
        minimize_perimeter(mesh, 7.0)
    with pytest.raises(VolumeOutOfRange):
        minimize_perimeter(mesh, 0.0)
    lid = SurfaceMesh(
        positions=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
        triangles=np.array([[0, 1, 2]]),
        facet_of=np.array([0]),
        subdivision_level=0,
    )
    with pytest.raises(ValueError):
        minimize_perimeter(lid, 0.1)


def test_flip_state_matches_a_loop_reference():
    mesh = subdivide(shapes.tetrahedron(), 3)
    nbrs = mesh.tri_neighbors.tolist()
    lens = mesh.edge_lengths[mesh.tri_edges].tolist()
    areas = mesh.areas.tolist()
    rng = np.random.default_rng(7)
    masks = [rng.random(len(areas)) < p for p in (0.0, 0.05, 0.5, 1.0)]
    for mask in masks + [mesh.centroids[:, 2] > 0.2]:
        state = _State(mesh, nbrs, lens, areas, mask, 0.1)
        flags = mask.tolist()
        area = perimeter = 0.0
        for t, inside in enumerate(flags):
            if inside:
                area += areas[t]
            for u, length in zip(nbrs[t], lens[t]):
                if flags[u] != inside:
                    perimeter += length
        cand = [t for t in range(len(flags)) if any(flags[u] != flags[t] for u in nbrs[t])]
        assert state.mask == flags and state.count == sum(flags)
        assert state.area == area and state.perimeter == perimeter * 0.5
        assert state.cand == cand
        assert [state.pos[t] for t in cand] == list(range(len(cand)))
        assert state.pos.count(-1) == len(flags) - len(cand)
        assert state.cuts == [sum(flags[u] != inside for u in nbrs[t])
                              for t, inside in enumerate(flags)]

    # 10k seeded flips and undos, each checked against a freshly built state
    # and against a candidate list kept by the loop rule: after flipping t,
    # refresh t and then each neighbour, appending a triangle that gained a
    # cut edge and swap-removing one that lost its last
    flags = masks[2].tolist()
    state = _State(mesh, nbrs, lens, areas, flags, 0.1)
    ref_cand = list(state.cand)
    ref_pos = {t: i for i, t in enumerate(ref_cand)}

    def refresh(t):
        want = any(flags[u] != flags[t] for u in nbrs[t])
        if want and t not in ref_pos:
            ref_pos[t] = len(ref_cand)
            ref_cand.append(t)
        elif not want and t in ref_pos:
            p = ref_pos.pop(t)
            last = ref_cand.pop()
            if last != t:
                ref_cand[p] = last
                ref_pos[last] = p

    last = None
    for step in range(10_000):
        kind = rng.random()
        if last is not None and kind < 0.3:
            t, dp, da = last
            state.flip(t, -dp, -da)
            last = None
        else:
            pool = state.cand if kind < 0.8 else range(len(areas))
            t = pool[int(rng.integers(len(pool)))]
            dp, da = state.deltas(t)
            state.flip(t, dp, da)
            last = (t, dp, da)
        flags[t] = not flags[t]
        for x in (t, *nbrs[t]):
            refresh(x)
        fresh = _State(mesh, nbrs, lens, areas, flags, 0.1)
        assert state.mask == flags and state.count == fresh.count, step
        assert state.cuts == fresh.cuts, step
        assert state.cand == ref_cand, step
        assert sorted(state.cand) == fresh.cand, step
        assert [state.pos[t] for t in state.cand] == list(range(len(state.cand)))
        assert state.pos.count(-1) == fresh.pos.count(-1), step
        assert state.area == pytest.approx(fresh.area, rel=1e-12, abs=0), step
        assert state.perimeter == pytest.approx(fresh.perimeter, rel=1e-12, abs=0), step


#: Results recorded before the annealing state was built from the mesh
#: arrays; keys read shape-level-volume-iterations-restarts-start, and warm
#: starts are vertex balls in smallest-link order, as ``solve`` builds them.
PINNED_RESULTS = json.loads(
    (Path(__file__).parent / "data" / "solver_results.json").read_text()
)


def _pinned_case(key):
    name, level, volume, iters, restarts, start = key.split("-")
    poly = getattr(shapes, name)()
    mesh = subdivide(poly, int(level[1:]))
    volume, restarts = float(volume[1:]), int(restarts[1:])
    warm = []
    if start == "warm":
        for cone in rank_by_link(vertex_cones(poly)):
            if len(warm) < restarts and volume <= cone.valid_volume_max:
                warm.append(vertex_ball_region(mesh, cone.vertex_index, volume))
    cfg = default_config(mesh, iterations=int(iters[1:]), restarts=restarts)
    res = minimize_perimeter(mesh, volume, cfg, warm_starts=warm)
    return {
        "mask_sha256": hashlib.sha256(np.packbits(res.region.mask).tobytes()).hexdigest(),
        "perimeter": res.perimeter.hex(),
        "area": res.area.hex(),
        "best_restart": res.best_restart,
        "restart_perimeters": [p.hex() for p in res.restart_perimeters],
    }


@pytest.mark.parametrize("key", list(PINNED_RESULTS))
def test_minimize_perimeter_results_are_pinned(key):
    assert _pinned_case(key) == PINNED_RESULTS[key]
