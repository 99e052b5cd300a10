"""End-to-end acceptance checks.

One test per shipped acceptance criterion, each printing a single PASS/FAIL
line (past the capture plumbing) so a plain ``pytest -v`` run shows the
scorecard.  Tolerances are stated inline; timing-limited criteria assert
their wall-clock budget.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from polyperim import shapes
from polyperim.cones import vertex_cones
from polyperim.gallery import (
    double_pyramid_report,
    spike_link_from_half_angle,
    spiked_cone_report,
    suspension_area,
)
from polyperim.mesh import subdivide
from polyperim.polytope import polytope_measure
from polyperim.profiles import (
    cone_profile,
    euclidean_profile,
    fit_power_law,
    sphere_measure,
    sphere_profile,
)
from polyperim.slicing import (
    _frame_vectors,
    _piece_vertices,
    classify_pieces,
    congruent_shape,
    enumerate_pieces,
)
from polyperim.smoothing import convexity_probe
from polyperim.solver import (
    anisotropy_bound,
    default_config,
    minimize_perimeter,
    vertex_ball_region,
)

CUBE_LINK = 1.5 * math.pi


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _same_points(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the rows of a and b are the same point sets within tol."""
    gap = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    return len(a) == len(b) and gap.min(axis=1).max() <= tol and gap.min(axis=0).max() <= tol


def test_criterion_01_shape_bound(capsys):
    """<= n congruence classes, classes are the levels, and translating S_k
    by a_i gives S_{k+g_i} with g_i = (1,..,-n,..,1)."""
    start = time.perf_counter()
    ok = True
    worst = 0
    for n in (2, 3, 4):
        vectors = _frame_vectors(n)
        for N in range(2, 11):
            summary = classify_pieces(enumerate_pieces(n, N))
            ok &= len(summary) <= n
            worst = max(worst, len(summary))
            levels = [s.level for s in summary]
            ok &= len(set(levels)) == len(levels)
            reps = [s.representative for s in summary]
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    ok &= not congruent_shape(reps[a], reps[b])
            for rep in reps:
                for i in range(n + 1):
                    g = np.ones(n + 1, dtype=int)
                    g[i] = -n
                    moved = _piece_vertices(vectors, np.add(rep.index, g))
                    ok &= _same_points(rep.vertices + vectors[i], moved)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(
        capsys, 1, ok,
        f"slab pieces for n in 2..4, N in 2..10 fall into <= n translation "
        f"classes (max seen {worst}), distinct per level, S_k + a_i = "
        f"S_(k+g_i) for g_i = (1,..,-n,..,1); {elapsed:.1f}s < 60s",
    )


def test_criterion_02_inventories(capsys):
    ok = True
    for N in (2, 3, 5):
        summary = classify_pieces(enumerate_pieces(2, N))
        counts = {s.level: s.count for s in summary}
        ok &= counts == {1: N * (N - 1) // 2, 2: N * (N + 1) // 2}
        ok &= all(s.vertex_count == 3 for s in summary)
        lv = {s.level: s.representative for s in summary}
        ok &= not congruent_shape(lv[1], lv[2])
    summary = classify_pieces(enumerate_pieces(3, 2))
    inv = sorted((s.vertex_count, s.count) for s in summary)
    ok &= inv == [(4, 4), (6, 1)]
    _report(
        capsys, 2, ok,
        "plane slabs give upright and inverted triangles only; doubled "
        "3-simplex splits into 4 tetrahedra + 1 octahedron",
    )


def test_criterion_03_link_volumes(capsys):
    ok = True
    checks = []
    cube_w = vertex_cones(shapes.cube())[0].link_volume
    ok &= abs(cube_w - CUBE_LINK) <= 1e-9
    checks.append(f"cube {cube_w:.9f}")
    tet_w = vertex_cones(shapes.tetrahedron())[0].link_volume
    ok &= abs(tet_w - math.pi) <= 1e-9
    checks.append(f"tet {tet_w:.9f}")
    hyper_w = vertex_cones(shapes.hypercube())[0].link_volume
    ok &= abs(hyper_w - 2 * math.pi) <= 1e-6
    checks.append(f"4-cube {hyper_w:.7f}")
    deficits = []
    for factory in (
        shapes.cube,
        shapes.tetrahedron,
        shapes.octahedron,
        shapes.square_pyramid,
        shapes.triangular_prism,
    ):
        total = sum(2 * math.pi - c.link_volume for c in vertex_cones(factory()))
        deficits.append(total)
        ok &= abs(total - 4 * math.pi) <= 1e-9
    _report(
        capsys, 3, ok,
        f"links {', '.join(checks)}; deficit sum 4*pi +-1e-9 on "
        f"{len(deficits)} polyhedra",
    )


def test_criterion_04_profile_consistency(capsys):
    ok = True
    worst = 0.0
    grid = np.geomspace(1e-3, 10.0, 256)
    for n in (2, 3, 4):
        omega = sphere_measure(n - 1)
        for v in grid:
            gap = abs(cone_profile(omega, n, float(v)) - euclidean_profile(n, float(v)))
            worst = max(worst, gap)
    ok &= worst <= 1e-12
    hemi = sphere_profile(2, 2 * math.pi)
    ok &= abs(hemi - 2 * math.pi) <= 1e-9
    _report(
        capsys, 4, ok,
        f"full-link cone profile == euclidean on 256-point grids for n=2,3,4 "
        f"(worst gap {worst:.2e} <= 1e-12); hemisphere boundary "
        f"{hemi:.9f} == 2*pi +-1e-9",
    )


def test_criterion_05_discrete_minimizer(capsys):
    start = time.perf_counter()
    mesh = subdivide(shapes.cube(), 5)
    kappa = anisotropy_bound(mesh)
    cones = sorted(
        vertex_cones(mesh.polytope), key=lambda c: (c.link_volume, c.vertex_index)
    )
    cfg = default_config(mesh, seed=0, iterations=200_000, restarts=8)
    ok = True
    perims = []
    for volume in (0.02, 0.05, 0.1):
        warm = [
            vertex_ball_region(mesh, c.vertex_index, volume)
            for c in cones[: cfg.restarts]
        ]
        res = minimize_perimeter(mesh, volume, cfg, warm_starts=warm)
        bound = math.sqrt(3 * math.pi * volume)
        ok &= res.perimeter >= bound - 1e-9
        ok &= res.perimeter <= kappa * bound
        r = math.sqrt(2 * volume / CUBE_LINK)
        near = min(
            float(np.linalg.norm(res.region.centroid - v))
            for v in mesh.polytope.vertices
        )
        ok &= near <= r + mesh.max_edge_length()
        perims.append(res.perimeter)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    _report(
        capsys, 5, ok,
        "level-5 cube minimizer stays in [sqrt(3*pi*V)-1e-9, "
        f"kappa*sqrt(3*pi*V)] with kappa={kappa:.4f} and hugs a vertex; "
        f"perimeters {'/'.join(f'{p:.4f}' for p in perims)} for "
        f"V=0.02/0.05/0.1; {elapsed:.1f}s < 300s",
    )


def test_criterion_06_measured_exponent(capsys):
    mesh = subdivide(shapes.cube(), 7)
    volumes = np.geomspace(0.01, 0.2, 16)
    areas = [
        vertex_ball_region(mesh, 0, float(v)).cut_perimeter for v in volumes
    ]
    fit = fit_power_law(volumes, areas)
    n = 2
    ok = abs(fit.exponent - 0.5) <= 0.02
    variant = (n - 2) / (n - 1)
    _report(
        capsys, 6, ok,
        f"discrete corner-ball fit t={fit.exponent:.4f} matches "
        f"(n-1)/n = 0.5 +-0.02; alternate convention (n-2)/(n-1) = "
        f"{variant:g} is not what the data shows",
    )


def test_criterion_07_smoothing(capsys, smoothed_bodies):
    ok = True
    notes = []
    for shape, label in (("square", "square"), ("cube2", "cube")):
        previous = math.inf
        for eps in (0.2, 0.1, 0.05):
            body = smoothed_bodies(shape, eps, None)
            reference = polytope_measure(body.polytope.vertices)
            ok &= bool(np.all(body.radii <= body.plain_radii() + 1e-9))
            deficit = reference - body.volume
            ok &= 0.0 < deficit < previous
            previous = deficit
            probe = convexity_probe(body, trials=10_000, seed=0)
            ok &= probe.max_midpoint_violation <= 1e-9
            ok &= probe.max_violation <= 1e-9
            ok &= probe.max_gauge_gap <= 1e-9
        notes.append(f"{label} deficit at eps=0.05: {previous:.2e}")
    _report(
        capsys, 7, ok,
        "smoothed bodies stay inside their polytopes, volume deficits "
        "positive and decreasing in eps, 10^4 midpoint-convexity probes "
        f"within 1e-9 ({'; '.join(notes)})",
    )


def test_criterion_08_gallery(capsys):
    ok = True
    for theta in np.linspace(0.2, 2 * math.pi - 0.2, 9):
        for vol in (1e-3, 0.05, 1.0):
            rep = double_pyramid_report(float(theta), vol)
            ok &= abs(rep.ratio - math.sqrt(2.0)) <= 1e-12
            ok &= not rep.metric_ball_minimizing
    spike_note = ""
    for degrees in (5.0, 3.0, 1.0):
        theta_p = spike_link_from_half_angle(math.radians(degrees))
        rep = spiked_cone_report(theta_p)
        ok &= rep.q_wins and rep.q_link < rep.apex_link
        if degrees == 5.0:
            spike_note = f"{rep.q_link:.4f} < {rep.apex_link:.4f}"
    worst_susp = 0.0
    for length in (0.1, 0.5, 1.0):
        alpha = math.asin(length / (2 * math.pi))
        phi = 2 * math.pi * np.arange(1024) / 1024
        curve = np.stack(
            [
                np.full(1024, math.cos(alpha)),
                math.sin(alpha) * np.cos(phi),
                math.sin(alpha) * np.sin(phi),
            ],
            axis=1,
        )
        worst_susp = max(worst_susp, abs(suspension_area(curve) - 2 * length))
    ok &= worst_susp <= 1e-4
    _report(
        capsys, 8, ok,
        f"double-pyramid ratio sqrt(2) +-1e-12 across theta x V; spiked cone "
        f"2*theta_p < |K-hat| at <= 5 degrees ({spike_note}); suspension "
        f"area = 2L within {worst_susp:.1e} <= 1e-4",
    )


def test_criterion_09_single_ball_concavity(capsys):
    apex = vertex_cones(shapes.square_pyramid())[4].link_volume
    links = (CUBE_LINK, math.pi, apex, 4 * math.pi / 3)
    ok = True
    worst = math.inf
    for i, w1 in enumerate(links):
        for w2 in links[i:]:
            for total in (0.05, 0.5):
                single = cone_profile(min(w1, w2), 2, total)
                for k in range(101):
                    v = k * total / 100.0
                    cost = 0.0
                    if v > 0:
                        cost += cone_profile(w1, 2, v)
                    if total - v > 0:
                        cost += cone_profile(w2, 2, total - v)
                    margin = cost - single
                    ok &= margin >= 0.0
                    worst = min(worst, margin)
    _report(
        capsys, 9, ok,
        f"no volume split across any cone pair beats the single ball at the "
        f"smallest link (grid step V/100; worst margin {worst:.3e} >= 0)",
    )


CLI_CASES = [
    ["analyze", "--polytope", "cube"],
    ["slice", "--n", "2", "--N", "3", "--svg"],
    ["smooth", "--polytope", "square", "--eps", "0.2", "--dirs", "32"],
    [
        "profile", "--model", "sphere", "--n", "2",
        "--vmin", "0.1", "--vmax", "6.0", "--points", "48", "--svg",
    ],
    [
        "solve", "--polytope", "cube", "--volume", "0.15", "--level", "3",
        "--iters", "20000", "--restarts", "2", "--seed", "7",
    ],
    ["gallery", "double-pyramid", "--theta", "0.5", "--base-link", "0.7"],
    ["gallery", "spiked-cone", "--half-angle", "5.0"],
    ["gallery", "cube-competitors", "--points", "40", "--svg"],
]


def test_criterion_10_cli_determinism(tmp_path, capsys):
    ok = True
    artifacts = 0
    for idx, case in enumerate(CLI_CASES):
        dirs = [tmp_path / f"{idx}-{run}" for run in "ab"]
        for d in dirs:
            proc = subprocess.run(
                [sys.executable, "-m", "polyperim.cli", *case, "--out", str(d)],
                capture_output=True,
                text=True,
            )
            ok &= proc.returncode == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        ok &= names == sorted(p.name for p in dirs[1].iterdir())
        ok &= len(names) > 0
        for name in names:
            artifacts += 1
            ok &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    _report(
        capsys, 10, ok,
        f"all {len(CLI_CASES)} CLI invocations (every command, SVG included) "
        f"rerun byte-identical across {artifacts} artifacts",
    )
