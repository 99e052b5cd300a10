import gc
import hashlib
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polyperim import shapes, solver
from polyperim.cones import rank_by_link, vertex_cones
from polyperim.errors import (
    NoFeasibleRegion,
    ValidationError,
    VolumeOutOfRange,
    VolumeTooLarge,
)
from polyperim.mesh import _edge_table, subdivide
from polyperim.polytope import Polytope
from polyperim.solver import (
    Region,
    _State,
    anisotropy_bound,
    default_config,
    minimize_perimeter,
    vertex_ball_region,
)

from conftest import half_edge_pairs


def test_region_rejects_bad_mask():
    mesh = subdivide(shapes.cube(), 1)
    with pytest.raises(ValidationError):
        Region(mesh=mesh, mask=np.ones(5, dtype=bool))


def test_region_centroid_and_the_empty_region():
    mesh = subdivide(shapes.cube(), 1)
    mask = np.zeros(mesh.triangle_count, dtype=bool)
    with pytest.raises(ValidationError, match="an empty region has no centroid"):
        Region(mesh, mask).centroid
    mask[5] = True
    corners = mesh.positions[mesh.triangles[5]]
    assert np.allclose(Region(mesh, mask).centroid, corners.mean(axis=0), rtol=0, atol=1e-15)


def test_cut_perimeter_sums_the_edges_between_the_sides():
    mesh = subdivide(shapes.tetrahedron(), 3)
    T = mesh.triangle_count
    first, last = half_edge_pairs(mesh.tri_edges.T.ravel())
    rng = np.random.default_rng(3)
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        mask = rng.random(T) < p
        cut = mask[first % T] != mask[last % T]
        expected = float(mesh.edge_lengths[cut].sum())
        assert Region(mesh, mask).cut_perimeter == expected
        assert Region(mesh, ~mask).cut_perimeter == expected


def _cut_by_neighbors(region):
    """The cut perimeter as it was summed from the neighbour table: the
    smaller side's edges whose neighbour lies on the other side, in
    ascending edge order."""
    mesh, mask = region.mesh, region.mask
    side = mask if 2 * mask.sum() <= len(mask) else ~mask
    tris = np.flatnonzero(side)
    cut = ~side[(mesh.tri_twins // 3).take(tris, axis=0)]
    edges = np.sort(mesh.tri_edges.take(tris, axis=0)[cut])
    return float(mesh.edge_lengths[edges].sum())


@pytest.mark.parametrize(
    "name", ["cube", "octahedron", "square_pyramid", "tetrahedron", "triangular_prism"]
)
def test_cut_perimeter_equals_the_neighbour_formula_bit_for_bit(name):
    rng = np.random.default_rng(11)
    for level in (2, 3, 4, 5):
        mesh = subdivide(getattr(shapes, name)(), level)
        T = mesh.triangle_count
        one = np.zeros(T, dtype=bool)
        one[rng.integers(T)] = True
        masks = [np.zeros(T, dtype=bool), one, ~one]
        masks += [rng.random(T) < p for p in (0.01, 0.3, 0.5, 0.7, 0.99)]
        masks.append(vertex_ball_region(mesh, 0, 0.05 * mesh.total_area()).mask)
        for mask in masks:
            region = Region(mesh, mask)
            assert region.cut_perimeter == _cut_by_neighbors(region), (level, mask.sum())


def test_anisotropy_bound_cube_is_sqrt2():
    """Fan triangles of a square are right isosceles at every level."""
    for level in (1, 2, 3):
        assert anisotropy_bound(subdivide(shapes.cube(), level)) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )


def test_anisotropy_bound_equilateral():
    # the bound reads only edge lengths and triangle edges, so the facets
    # themselves can stand in for a mesh without the centroid fan
    tet = shapes.tetrahedron()
    ends, tri_edges = _edge_table(np.array(tet.facets), len(tet.vertices))
    lengths = np.linalg.norm(tet.vertices[ends[:, 0]] - tet.vertices[ends[:, 1]], axis=1)
    facets = SimpleNamespace(edge_lengths=lengths, tri_edges=tri_edges)
    assert anisotropy_bound(facets) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    # the centroid fan splits each facet into 120-degree isoceles triangles
    assert anisotropy_bound(subdivide(tet, 1)) == pytest.approx(2.0, abs=1e-9)


def test_vertex_ball_region_cube():
    mesh = subdivide(shapes.cube(), 4)
    volume = 3.0 * math.pi / 16.0  # ball radius exactly 1/2
    region = vertex_ball_region(mesh, 0, volume)
    amax = float(mesh.areas.max())
    assert abs(region.area - volume) <= amax + 1e-12
    incident = {fi for fi, f in enumerate(mesh.polytope.facets) if 0 in f}
    assert set(np.unique(mesh.facet_of[region.mask])) <= incident
    r = math.sqrt(2 * volume / (1.5 * math.pi))
    spread = np.linalg.norm(region.centroid - mesh.positions[0])
    assert spread < r + mesh.max_edge_length()


def test_vertex_ball_region_tetrahedron():
    mesh = subdivide(shapes.tetrahedron(), 4)
    volume = math.pi / 32.0  # link pi, radius 1/4
    region = vertex_ball_region(mesh, 2, volume)
    assert abs(region.area - volume) <= float(mesh.areas.max()) + 1e-12
    assert set(np.unique(mesh.facet_of[region.mask])) <= {
        fi for fi, f in enumerate(mesh.polytope.facets) if 2 in f
    }


def test_vertex_ball_region_guards():
    mesh = subdivide(shapes.cube(), 2)
    with pytest.raises(VolumeTooLarge):
        vertex_ball_region(mesh, 0, 0.75 * math.pi * 1.01)
    with pytest.raises(VolumeOutOfRange):
        vertex_ball_region(mesh, 0, 0.0)
    with pytest.raises(VolumeOutOfRange, match=r"volume must be in \(0\.0, inf\), got nan"):
        vertex_ball_region(mesh, 0, math.nan)
    # infinity is out of range before it is past the star bound
    with pytest.raises(VolumeOutOfRange, match=r"volume must be in \(0\.0, inf\), got inf"):
        vertex_ball_region(mesh, 0, math.inf)
    with pytest.raises(ValidationError, match="vertex must be at least 0 and at most 7, got 99"):
        vertex_ball_region(mesh, 99, 0.1)


def test_vertex_ball_region_allows_no_volume_past_the_star_bound():
    # the octahedron's bound is pi = 3.1415926535897922, and the CLI warm
    # starts and checks the bound up to that volume and no further
    mesh = subdivide(shapes.octahedron(), 2)
    cone = mesh.vertex_star(0).cone
    assert vertex_ball_region(mesh, 0, cone.valid_volume_max).area > 0
    with pytest.raises(VolumeTooLarge, match="3.1415926535897922 at vertex 0"):
        vertex_ball_region(mesh, 0, 3.14159265359)


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
        (cone.vertex_index, f * cone.valid_volume_max)
        for cone in vertex_cones(poly)
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
        (cone.vertex_index, f * cone.valid_volume_max)
        for cone in vertex_cones(poly)
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


def test_default_config_rejects_a_negative_seed():
    mesh = subdivide(shapes.cube(), 1)
    with pytest.raises(ValidationError, match="seed"):
        default_config(mesh, seed=-1)


@pytest.mark.parametrize("other", ["cube-4", "octahedron-5"])
def test_warm_starts_must_be_regions_of_the_solved_mesh(other):
    # the level-5 octahedron has as many triangles as the level-5 cube
    name, level = other.split("-")
    foreign = vertex_ball_region(subdivide(getattr(shapes, name)(), int(level)), 0, 0.05)
    mesh = subdivide(shapes.cube(), 5)
    cfg = default_config(mesh, iterations=100, restarts=1)
    with pytest.raises(ValidationError, match="warm start"):
        minimize_perimeter(mesh, 0.05, cfg, [foreign])


def test_warm_starts_beyond_the_restarts_are_rejected():
    mesh = subdivide(shapes.cube(), 3)
    balls = [vertex_ball_region(mesh, v, 0.05) for v in (0, 1)]
    cfg = default_config(mesh, iterations=100, restarts=1)
    with pytest.raises(ValidationError, match="2 warm starts for 1 restarts"):
        minimize_perimeter(mesh, 0.05, cfg, balls)
    # as many warm starts as restarts all run
    cfg = default_config(mesh, iterations=100, restarts=2)
    assert len(minimize_perimeter(mesh, 0.05, cfg, balls).restart_perimeters) == 2


@pytest.mark.parametrize("fill", [False, True])
@pytest.mark.parametrize("restarts", [1, 2])
def test_warm_starts_without_a_boundary_are_rejected(fill, restarts):
    # an empty or whole-mesh region has no cut edge, so its restart makes no
    # move: with one restart the solve found nothing, with two it recorded
    # that restart as inf with every move count 0
    mesh = subdivide(shapes.cube(), 2)
    cfg = default_config(mesh, iterations=2000, restarts=restarts)
    warm = Region(mesh, np.full(mesh.triangle_count, fill))
    with pytest.raises(ValidationError, match="neither empty nor the whole mesh"):
        minimize_perimeter(mesh, 0.5, cfg, [warm])


def _polish_balls_in_band(mesh, volume, cuts, vertices):
    """Polish the vertex balls cut at each ``cut * volume`` whose area lands
    in [V, 1.02 V]; their cut perimeter must never rise and their area must
    stay in the band.  Return how many balls were polished."""
    tables = solver._tables(mesh)
    cfg = default_config(mesh)
    cases = 0
    for cut in cuts:
        for v in vertices:
            try:
                ball = vertex_ball_region(mesh, v, cut * volume)
            except VolumeTooLarge:
                continue
            if not volume <= ball.area <= 1.02 * volume:
                continue
            cases += 1
            state = _State(mesh, tables, ball.mask, volume)
            solver._polish(state, cfg)
            out = Region(mesh, np.signbit(state.sa))
            case = (mesh.polytope.name, len(mesh.areas), volume, cut, v)
            assert out.cut_perimeter <= ball.cut_perimeter, case
            assert volume <= out.area <= 1.02 * volume, case
    return cases


def test_polish_never_lengthens_a_region_in_the_band():
    """A region with area in [V, 1.02 V] is polished on perimeter alone: its
    cut perimeter never rises and its area stays in the band."""
    cases = 0
    for name in ("cube", "tetrahedron", "octahedron"):
        poly = getattr(shapes, name)()
        for level in (3, 4, 5):
            mesh = subdivide(poly, level)
            for volume in np.geomspace(0.01, 0.2, 12).tolist():
                cases += _polish_balls_in_band(
                    mesh, volume, (1.012,), range(len(poly.vertices))
                )
    assert cases == 330


def test_polish_never_pushes_a_region_over_the_band():
    """On an equal-area mesh with 1.02 V just under k triangles, a region of
    k - 1 triangles is in the band and one more takes it just over the top,
    where the top-up cannot bring it back: such a flip must not be taken,
    however little it overshoots.  Balls are cut in the band and near its
    top."""
    cases = 0
    for name in ("cube", "tetrahedron", "octahedron"):
        mesh = subdivide(getattr(shapes, name)(), 3)
        a = float(mesh.areas[0])
        assert np.all(mesh.areas == a)
        k_max = int(0.2 * mesh.total_area() * 1.02 / a)
        for k in range(51, k_max + 1):
            volume = k * a / 1.02 * (1 - 1e-12)
            cases += _polish_balls_in_band(mesh, volume, (1.012, 1.019), [0])
    assert cases == 401


def _slot_triples(mesh):
    """For each triangle t and side j, the side of neighbour
    ``tri_twins[t, j] // 3`` that holds edge ``tri_edges[t, j]``, found by
    matching edges."""
    edges = mesh.tri_edges.tolist()
    return [
        tuple(edges[u].index(e) for u, e in zip(row, edges[t]))
        for t, row in enumerate((mesh.tri_twins // 3).tolist())
    ]


def _assert_tables_hold(mesh):
    """Each perimeter-change entry is, bit for bit, the side-by-side sum of
    +l for an uncut side and -l for a cut one, and each back bit names the
    neighbour's side that holds the shared edge."""
    nbrs, back, dps, areas = solver._tables(mesh)
    assert nbrs == [tuple(row) for row in (mesh.tri_twins // 3).tolist()]
    assert areas == mesh.areas.tolist()
    assert back == [tuple(1 << j for j in row) for row in _slot_triples(mesh)]
    for t, lens in enumerate(mesh.edge_lengths[mesh.tri_edges].tolist()):
        assert len(dps[t]) == 8
        for k, change in enumerate(dps[t]):
            dp = 0.0
            for j, length in enumerate(lens):
                dp += -length if k >> j & 1 else length
            assert change.hex() == dp.hex(), (t, k)


@pytest.mark.parametrize(
    "name", ["cube", "octahedron", "square_pyramid", "tetrahedron", "triangular_prism"]
)
def test_annealer_tables_match_the_mesh(name):
    for level in range(5):
        _assert_tables_hold(subdivide(getattr(shapes, name)(), level))


@pytest.mark.parametrize("seed", range(4))
def test_annealer_tables_match_random_hull_meshes(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(int(rng.integers(8, 60)), 3))
    poly = Polytope.from_vertices(points / np.linalg.norm(points, axis=1)[:, None])
    for level in range(3):
        _assert_tables_hold(subdivide(poly, level))


def test_annealer_tables_share_one_object_per_value():
    """One shared row per distinct length triple and per slot triple, one
    int per triangle id and one float per distinct area.  At level 5 the
    cube, tetrahedron and octahedron have three length triples, the square
    pyramid and the prism (two kinds of facet) twelve."""
    for name in ("tetrahedron", "cube"):
        for level in (3, 5):
            mesh = subdivide(getattr(shapes, name)(), level)
            nbrs, back, dps, areas = solver._tables(mesh)
            for rows, keys in (
                (dps, [tuple(row) for row in mesh.edge_lengths[mesh.tri_edges].tolist()]),
                (back, _slot_triples(mesh)),
            ):
                by_key = {}
                for row, key in zip(rows, keys):
                    by_key.setdefault(key, set()).add(id(row))
                assert all(len(ids) == 1 for ids in by_key.values())
                assert len({id(row) for row in rows}) == len(by_key)
            assert len(set(back)) <= 27
            assert len({id(t) for row in nbrs for t in row}) == mesh.triangle_count
            assert len({id(x) for x in areas}) == len(np.unique(mesh.areas))
    for name, triples in (
        ("cube", 3), ("tetrahedron", 3), ("octahedron", 3), ("square_pyramid", 12),
        ("triangular_prism", 12),
    ):
        dps = solver._tables(subdivide(getattr(shapes, name)(), 5))[2]
        assert len({id(row) for row in dps}) == triples, name


def test_minimize_perimeter_memory_per_triangle():
    """On the level-5 cube with a warm start the solve peaks at 184 bytes
    per triangle: the tables take about 123 (99 of them the neighbour rows,
    one Python int per triangle id; the back-bit and perimeter-change rows
    and the areas are shared objects), a flip state 24.  With per-triangle
    edge-length rows it peaked at 241, and with list rows of fresh numbers,
    an 8192-iteration draw buffer and every flip state alive to the end at
    503."""
    mesh = subdivide(shapes.cube(), 5)
    ball = vertex_ball_region(mesh, 0, 0.05)
    mesh.tri_twins
    cfg = default_config(mesh, seed=0, iterations=10_000, restarts=1)
    tracemalloc.start()
    try:
        minimize_perimeter(mesh, 0.05, cfg, [ball])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300 * mesh.triangle_count


def test_minimize_perimeter_builds_the_tables_once_per_mesh(monkeypatch):
    """A second solve on one mesh reuses the first one's tables, and the
    cache's entry dies with the mesh."""
    built, tables = [], solver._tables

    def counted(mesh):
        built.append(tables(mesh))
        return built[-1]

    monkeypatch.setattr(solver, "_tables", counted)
    gc.collect()
    before = len(solver._MESH_TABLES)
    mesh = subdivide(shapes.cube(), 2)
    cfg = default_config(mesh, seed=0, iterations=200, restarts=1)
    results = [minimize_perimeter(mesh, 0.375, cfg) for _ in range(2)]
    assert len(built) == 1 and solver._MESH_TABLES[mesh] is built[0]
    assert results[0].moves == results[1].moves
    assert results[0].perimeter == results[1].perimeter
    assert len(solver._MESH_TABLES) == before + 1
    del mesh, results
    gc.collect()
    assert len(solver._MESH_TABLES) == before


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
        assert m.flips_proposed + m.swaps_proposed == cfg.iterations
        # some moves of each kind are accepted and some rejected
        assert m.flips_proposed > m.flips_accepted > 0
        assert m.swaps_proposed > m.swaps_accepted > 0
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
    tables = solver._tables(mesh)
    volume = 0.1
    init = vertex_ball_region(mesh, 0, volume).mask
    cfg = default_config(mesh, seed=0, iterations=2 * solver.DRAW_BLOCK + 5)

    def anneal():
        rng = _RecordingRng(5)
        state = _State(mesh, tables, init, volume)
        return rng.sizes, solver._anneal(state, cfg, rng, 0.02 * volume)

    sizes, result = anneal()
    assert result[0] is not None  # the feasible warm ball is a snapshot
    assert max(sizes) <= 4 * solver.DRAW_BLOCK
    assert sum(sizes) == 4 * cfg.iterations
    monkeypatch.setattr(solver, "DRAW_BLOCK", 7)
    small_sizes, small_result = anneal()
    assert max(small_sizes) == 28
    assert small_result == result


def test_draws_do_not_depend_on_the_block_size(monkeypatch):
    draws = []
    for block in (1, 7, solver.DRAW_BLOCK, 1 << 20):
        monkeypatch.setattr(solver, "DRAW_BLOCK", block)
        draws.append(list(solver._draws(np.random.default_rng(11), 3000)))
    assert len(draws[0]) == 3000 and len(set(draws[0])) == 3000
    assert draws[0] == draws[1] == draws[2] == draws[3]


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


def test_flip_state_matches_a_loop_reference():
    mesh = subdivide(shapes.tetrahedron(), 3)
    tables = solver._tables(mesh)
    nbrs = (mesh.tri_twins // 3).tolist()
    lens = mesh.edge_lengths[mesh.tri_edges].tolist()
    areas = mesh.areas.tolist()
    rng = np.random.default_rng(7)
    masks = [rng.random(len(areas)) < p for p in (0.0, 0.05, 0.5, 1.0)]
    centroids = mesh.triangle_centroids(np.arange(len(areas)))
    for mask in masks + [centroids[:, 2] > 0.2]:
        state = _State(mesh, tables, mask, 0.1)
        flags = mask.tolist()
        area = perimeter = 0.0
        for t, inside in enumerate(flags):
            if inside:
                area += areas[t]
            for u, length in zip(nbrs[t], lens[t]):
                if flags[u] != inside:
                    perimeter += length
        cand = [t for t in range(len(flags)) if any(flags[u] != flags[t] for u in nbrs[t])]
        assert np.signbit(state.sa).tolist() == flags and state.count == sum(flags)
        assert state.sa == [-a if inside else a for a, inside in zip(areas, flags)]
        assert state.area == area and state.perimeter == perimeter * 0.5
        assert state.cand == cand
        assert [state.pos[t] for t in cand] == list(range(len(cand)))
        assert state.pos.count(-1) == len(flags) - len(cand)
        # bit j of a triangle's pattern is set when side j is cut
        assert state.cuts == [
            sum((flags[u] != inside) << j for j, u in enumerate(nbrs[t]))
            for t, inside in enumerate(flags)
        ]

    # 10k seeded flips and undos, each checked against a freshly built state
    # and against a candidate list kept by the loop rule: after flipping t,
    # refresh t and then each neighbour, appending a triangle that gained a
    # cut edge and swap-removing one that lost its last
    flags = masks[2].tolist()
    state = _State(mesh, tables, flags, 0.1)
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
        fresh = _State(mesh, tables, flags, 0.1)
        assert np.signbit(state.sa).tolist() == flags and state.count == fresh.count, step
        assert state.sa == fresh.sa, step
        assert state.cuts == fresh.cuts, step
        assert state.cand == ref_cand, step
        assert sorted(state.cand) == fresh.cand, step
        assert [state.pos[t] for t in state.cand] == list(range(len(state.cand)))
        assert state.pos.count(-1) == fresh.pos.count(-1), step
        assert state.area == pytest.approx(fresh.area, rel=1e-12, abs=0), step
        assert state.perimeter == pytest.approx(fresh.perimeter, rel=1e-12, abs=0), step


def _count_toggle(mask, cuts, cand, pos, nbrs, t):
    """The flip update on cut counts: ``cuts[t]`` is the number of cut
    sides of t, and t is a candidate exactly when it is non-zero.  Return
    how many leaving triangles were the last candidate, as (t, neighbours):
    the case the annealer's pop-first removal takes without filling a
    slot."""
    s = not mask[t]
    mask[t] = s
    tails = [0, 0]
    c = cuts[t] = 3 - cuts[t]
    if c == 3:
        pos[t] = len(cand)
        cand.append(t)
    elif not c:
        p = pos[t]
        tails[0] += p == len(cand) - 1
        last = cand[-1]
        cand[p] = last
        pos[last] = p
        cand.pop()
        pos[t] = -1
    for u in nbrs[t]:
        # the edge to a neighbour on t's new side is no longer cut
        if mask[u] == s:
            cuts[u] -= 1
            if not cuts[u]:
                p = pos[u]
                tails[1] += p == len(cand) - 1
                last = cand[-1]
                cand[p] = last
                pos[last] = p
                cand.pop()
                pos[u] = -1
        else:
            cuts[u] += 1
            if cuts[u] == 1:
                pos[u] = len(cand)
                cand.append(u)
    return tails


def test_toggle_removes_the_last_candidate_as_the_count_reference_does():
    """A leaving triangle that is the candidate list's last entry, t itself
    or a neighbour, is popped with no slot to fill: ``_toggle`` must leave
    the count reference's candidate list and positions.  Each flipped id is
    above 256 and passed as a fresh int, so it is not the object that the
    candidate list (built by ``tolist``) holds for it: a removal that
    compared by identity would fill a slot past the end."""
    mesh = subdivide(shapes.tetrahedron(), 3)
    tables = solver._tables(mesh)
    offset = 257
    ids = range(offset, mesh.triangle_count)
    rng = np.random.default_rng(3)
    tails = [0, 0]
    starts = []
    for t in ids:
        # a one-triangle region: flipping t out removes t and its neighbours
        one = np.zeros(mesh.triangle_count, dtype=bool)
        one[t] = True
        starts.append((one, [t]))
    for p in (0.1, 0.5, 0.9):
        mask = rng.random(mesh.triangle_count) < p
        starts.append((mask, rng.choice(ids, 200).tolist()))
    for init, flips in starts:
        new = _State(mesh, tables, init, 0.1)
        ref = _count_state(mesh, init, 0.1)
        for t in flips:
            solver._toggle(new.sa, new.cuts, new.cand, new.pos, new.nbrs, new.back, int(str(t)))
            for k, n in enumerate(_count_toggle(ref.mask, ref.cuts, ref.cand, ref.pos, ref.nbrs, t)):
                tails[k] += n
            assert new.cand == ref.cand and new.pos == ref.pos, t
            assert np.signbit(new.sa).tolist() == ref.mask, t
    assert tails[0] > 0 and tails[1] > 0, tails


def _count_state(mesh, init, volume):
    """A flip state with cut counts and edge-length rows, for the reference."""
    mask = np.asarray(init, dtype=bool)
    cut = mask[mesh.tri_twins // 3] != mask[:, None]
    cand = np.flatnonzero(cut.any(axis=1))
    pos = np.full(len(mask), -1)
    pos[cand] = np.arange(len(cand))
    return SimpleNamespace(
        mask=mask.tolist(),
        cuts=cut.sum(axis=1).tolist(),
        cand=cand.tolist(),
        pos=pos.tolist(),
        nbrs=(mesh.tri_twins // 3).tolist(),
        lens=mesh.edge_lengths[mesh.tri_edges].tolist(),
        areas=mesh.areas.tolist(),
        volume=volume,
        area=solver._running_sum(mesh.areas[mask]),
        perimeter=solver._running_sum(mesh.edge_lengths[mesh.tri_edges[cut]]) * 0.5,
    )


def _anneal_with_toggle(state, cfg, rng, feas):
    """The annealer as it was when every flip called a toggle on cut counts
    and each proposal summed its neighbour terms: the reference the
    cut-pattern annealer must replay exactly.  Also returns how many swaps
    emptied the boundary and were undone at once, and the counts of
    ``_count_toggle``'s last-candidate removals."""
    mu, temp, cooling, volume = cfg.mu, cfg.t_initial, cfg.cooling, state.volume
    mask, cuts, cand, pos, nbrs, lens, areas = (
        state.mask, state.cuts, state.cand, state.pos, state.nbrs, state.lens,
        state.areas,
    )
    area, perimeter = state.area, state.perimeter
    flips = swaps = accepted = swaps_acc = snapshots = empty_undos = 0
    tails = [0, 0]
    best_cost, best_mask = math.inf, None
    gap0 = abs(area - volume)
    if gap0 <= feas:
        best_cost, best_mask = perimeter + mu * gap0, list(mask)
        snapshots += 1

    def deltas(t):
        s = mask[t]
        u0, u1, u2 = nbrs[t]
        l0, l1, l2 = lens[t]
        dp = 0.0
        dp += l0 if mask[u0] == s else -l0
        dp += l1 if mask[u1] == s else -l1
        dp += l2 if mask[u2] == s else -l2
        return dp, -areas[t] if s else areas[t]

    def toggle(t):
        for k, n in enumerate(_count_toggle(mask, cuts, cand, pos, nbrs, t)):
            tails[k] += n

    for r_swap, r_pick, r2, r_acc in solver._draws(rng, cfg.iterations):
        if not cand:
            break
        swap = r_swap >= 0.5
        t = cand[int(r_pick * len(cand))]
        dp, da = deltas(t)
        move_dp = dp
        base_gap = abs(area - volume)
        if swap:
            swaps += 1
            t1, dp1, da1 = t, dp, da
            toggle(t1)
            area += da1
            perimeter += dp1
            if not cand:
                empty_undos += 1
                toggle(t1)
                area -= da1
                perimeter -= dp1
                temp *= cooling
                continue
            t = cand[int(r2 * len(cand))]
            dp, da = deltas(t)
            move_dp = dp1 + dp
        else:
            flips += 1
        new_gap = abs(area + da - volume)
        dcost = move_dp + mu * (new_gap - base_gap)
        if dcost <= 0.0 or (temp > 1e-300 and r_acc < math.exp(-dcost / temp)):
            accepted += 1
            swaps_acc += swap
            toggle(t)
            area += da
            perimeter += dp
            if new_gap <= feas:
                cost = perimeter + mu * new_gap
                if cost < best_cost:
                    best_cost, best_mask = cost, list(mask)
                    snapshots += 1
        elif swap:
            toggle(t1)
            area -= da1
            perimeter -= dp1
        temp *= cooling
    counts = (flips, accepted - swaps_acc, swaps, swaps_acc, snapshots)
    return best_mask, counts, empty_undos, tails


@pytest.mark.parametrize("block", [solver.DRAW_BLOCK, 7])
def test_anneal_replays_the_toggle_reference(monkeypatch, block):
    """The annealer keeps cut patterns and looks its perimeter changes up;
    on warm balls, cold blobs and one-triangle starts it must return the
    count-based reference's snapshot and move counts and leave the same
    mask and candidate list (whose order decides every later pick), with
    each pattern's popcount the reference's count and each bit set exactly
    on a side between the two sides of the mask."""
    monkeypatch.setattr(solver, "DRAW_BLOCK", block)
    runs = empty_undos = 0
    tail_runs = [0, 0]
    for name in ("cube", "tetrahedron", "square_pyramid", "octahedron", "triangular_prism"):
        poly = getattr(shapes, name)()
        vertex = rank_by_link(vertex_cones(poly))[0].vertex_index
        for level in (2, 3, 4):
            mesh = subdivide(poly, level)
            tables = solver._tables(mesh)
            nbrs, _, _, areas = tables
            volume = 0.02 * mesh.total_area()
            one = np.zeros(mesh.triangle_count, dtype=bool)
            one[mesh.triangle_count // 2] = True
            for seed in (0, 1):
                cfg = default_config(mesh, seed=seed, iterations=400)
                blob = solver._random_blob(np.random.default_rng(seed), nbrs, areas, volume)
                for init in (vertex_ball_region(mesh, vertex, volume).mask, blob, one):
                    ref = _count_state(mesh, init, volume)
                    new = _State(mesh, tables, init, volume)
                    assert (new.area, new.perimeter) == (ref.area, ref.perimeter)
                    feas = 0.02 * volume
                    *want, undos, tails = _anneal_with_toggle(
                        ref, cfg, np.random.default_rng(seed), feas
                    )
                    got = solver._anneal(new, cfg, np.random.default_rng(seed), feas)
                    case = (name, level, seed, runs)
                    assert list(got) == want, case
                    mask = np.signbit(new.sa).tolist()
                    assert mask == ref.mask, case
                    assert new.cand == ref.cand and new.pos == ref.pos, case
                    assert [bin(c).count("1") for c in new.cuts] == ref.cuts, case
                    assert new.cuts == [
                        sum((mask[u] != inside) << j for j, u in enumerate(nbrs[t]))
                        for t, inside in enumerate(mask)
                    ], case
                    runs += 1
                    empty_undos += undos if init is one else 0
                    tail_runs[0] += tails[0] > 0
                    tail_runs[1] += tails[1] > 0
    assert runs == 90
    # the one-triangle starts reach the swap's empty-boundary undo
    assert empty_undos > 0
    # runs in which a leaving t, or a leaving neighbour, was the last
    # candidate: the pop-first removal then fills no slot
    assert tail_runs == [2, 90]


#: Results recorded before the annealing state was built from the mesh
#: arrays, and re-recorded where the mesh's carried lengths and areas, and
#: then polishing on perimeter alone inside the band, moved them; keys read
#: shape-level-volume-iterations-restarts-start, and warm starts are vertex
#: balls in smallest-link order, as ``solve`` builds them.
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
