"""The benchmark's two workloads, their seeded inputs and their oracles.

Each workload is a closed loop: one caller runs its tasks one after another.
A pass runs the smoke round (one small call into every layer, so each layer
is timed on every workload) and then the workload's own tasks.

A task fails when it raises, when a CLI command exits non-zero, or when any
of its checks fails.  Checks come in two kinds:

* validity checks compare an output with an independent oracle (Qhull,
  4*pi, closed forms, volumes recorded from the seed commit).  A failed
  validity check, or an exception that is not a documented ``polyperim``
  error, means the program returned a wrong answer: the run reports
  ``correct: false``.
* claim checks test the paper's claim on the discrete solver's best region
  (the CLI bound check and the centroid near a smallest-link vertex), and
  accuracy checks test a quadrature volume against the exact volume.  They
  count as failed tasks but leave ``correct`` alone, as do a documented
  ``polyperim`` error such as ``NoFeasibleRegion`` and a CLI exit code of 2
  or 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

import polyperim as pp
from polyperim import cli, shapes
from polyperim.errors import PolyperimError

import hostspeed
from spans import Tracer

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

#: polytope builders by workload name; "cube2" is the side-2 cube of criterion 7
SHAPES = {
    "cube": shapes.cube,
    "cube2": lambda: shapes.cube(side=2.0),
    "tetrahedron": shapes.tetrahedron,
    "square_pyramid": shapes.square_pyramid,
    "square": shapes.square,
    "octahedron": shapes.octahedron,
}

#: exact measures, independent of polyperim, for the smoothing deficit check
EXACT_VOLUME = {"square": 4.0, "cube2": 8.0, "octahedron": 4.0 / 3.0}

CUBE_LINK = 1.5 * math.pi
FEASIBILITY = 0.02
PROBE_TOL = 1e-9
VOLUME_RTOL = 1e-9

# Sizes of one pass.  FULL is what the benchmark measures; SMOKE is the
# smoke round every pass starts with, and the tiny size the tests run.
FULL = {
    "solve": {
        "cases": (
            ("cube", 0.02),
            ("cube", 0.05),
            ("cube", 0.1),
            ("tetrahedron", 0.02),
            ("square_pyramid", 0.02),
        ),
        "level": 5,
        "iterations": 200_000,
        "cold": 1,
        "warm": 1,
    },
    "geometry": {
        "hulls": (24, 36, 48),
        "level": 7,
        "balls": (0.01, 0.2, 16),
        "slices": ((3, 10), (4, 8)),
        # (shape, epsilon, resolution, probe trials); resolution 96 (2-D) and
        # 10 (3-D) are the CLI's --dirs 192
        "bodies": (
            ("square", 0.2, 96, 1024),
            ("square", 0.05, 96, 1024),
            ("cube2", 0.2, 10, 512),
            ("cube2", 0.05, 10, 512),
            ("octahedron", 0.2, 10, 256),
        ),
        "cli": (
            ("analyze", ["analyze", "--polytope", "hypercube"]),
            ("slice", ["slice", "--n", "2", "--N", "10", "--svg"]),
            ("profile", ["profile", "--model", "cone", "--n", "2", "--omega",
                         repr(CUBE_LINK), "--vmin", "1e-4", "--vmax", "1", "--svg"]),
            ("gallery", ["gallery", "cube-competitors", "--svg"]),
        ),
    },
}

SMOKE = {
    "solve": {
        "cases": (("cube", 0.25),),
        "level": 3,
        "iterations": 3000,
        "cold": 1,
        "warm": 1,
    },
    "geometry": {
        "hulls": (8,),
        "level": 4,
        "balls": (0.05, 0.5, 8),
        "slices": ((2, 4),),
        "bodies": (("square", 0.2, 8, 64),),
        "cli": (
            ("analyze", ["analyze", "--polytope", "cube"]),
            ("slice", ["slice", "--n", "2", "--N", "3"]),
            ("profile", ["profile", "--model", "cone", "--n", "2", "--omega",
                         repr(CUBE_LINK), "--vmin", "1e-2", "--vmax", "1",
                         "--points", "16"]),
            ("gallery", ["gallery", "cube-competitors", "--points", "8"]),
        ),
    },
}

WORKLOADS = tuple(FULL)

#: nominal seconds of one untraced FULL pass on a 2-core x86-64 host; a run
#: makes --seconds // PASS_SECONDS passes, so its length follows the host's
#: speed but its tasks do not
PASS_SECONDS = {"solve": 11.0, "geometry": 18.0}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _stream(seed: int, pass_index: int, key: str) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, pass_index, zlib.crc32(key.encode())])


def make_inputs(workload: str, sizes: dict, seed: int, pass_index: int) -> dict:
    """Inputs of one pass of one workload, a pure function of the seed."""
    sz = sizes[workload]
    if workload == "solve":
        # cold restarts take solver seeds 0, 1, ... and so do warm ones, as
        # the CLI's default --seed 0 does; a pass always makes the same
        # solver calls, so every run fails the same tasks
        return {"restart_seeds": [list(range(sz["cold"])) + list(range(sz["warm"])) for _ in sz["cases"]]}
    points = []
    for m in sz["hulls"]:
        x = np.random.default_rng(_stream(seed, pass_index, f"hull/{m}")).normal(size=(m, 3))
        points.append(x / np.linalg.norm(x, axis=1)[:, None])
    return {
        "points": points,
        "probe_seeds": [
            int(_stream(seed, pass_index, f"smooth/{b[0]}-{b[1]}-{b[2]}").generate_state(1)[0])
            for b in sz["bodies"]
        ],
    }


def pass_inputs(workload: str, sizes: dict, seed: int, pass_index: int) -> dict:
    return {
        "main": make_inputs(workload, sizes, seed, pass_index),
        "smoke": {w: make_inputs(w, SMOKE, seed, pass_index) for w in WORKLOADS},
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

class Task:
    def __init__(self, task_id: str, main: bool):
        self.id = task_id
        self.main = main
        self.failures: list[str] = []
        self.valid = True
        self.seconds = 0.0

    def check(self, ok: bool, what: str, wrong: bool = True) -> bool:
        """Record a failed check; ``wrong`` marks a wrong answer (see above)."""
        if not ok:
            self.failures.append(what)
            self.valid &= not wrong
        return bool(ok)

    def record(self) -> dict:
        return {
            "id": self.id,
            "main": self.main,
            "seconds": self.seconds,
            "ok": not self.failures,
            "valid": self.valid,
            "failures": self.failures,
        }


class Context:
    """State of one pass: its tracer, task records and quality figures.

    Every top-level task is timed between two host speed probes (see
    hostspeed.py); ``top`` keeps its raw seconds and the scale to the
    reference speed, and each ``ttq`` entry names the top-level task whose
    scale applies to it.
    """

    def __init__(self, tracer: Tracer, scratch: Path):
        self.tracer = tracer
        self.scratch = scratch
        self.main = True
        self.tasks: list[dict] = []
        self.top: list[dict] = []
        self.ttq: list[tuple[float, int]] = []
        self.ratios: list[float] = []
        self.last = None
        self._depth = 0
        self._probe: float | None = None

    @contextmanager
    def task(self, task_id: str, timed_case: bool = False):
        """One task; ``timed_case`` makes its run time its time to quality."""
        t = Task(task_id, self.main)
        top = self._depth == 0
        if top and self._probe is None:
            self._probe = hostspeed.probe()
        before = self._probe
        self._depth += 1
        try:
            with self.tracer.span("bench.task", task_id) as span:
                try:
                    yield t
                except PolyperimError as exc:
                    t.failures.append(f"{type(exc).__name__}: {exc}")
                except Exception:  # a wrong answer, not a documented failure
                    t.failures.append(traceback.format_exc(limit=4))
                    t.valid = False
        finally:
            self._depth -= 1
        t.seconds = span.seconds
        if top:
            self._probe = hostspeed.probe()
            self.top.append({"id": task_id, "seconds": t.seconds, "scale": hostspeed.factor(before, self._probe)})
        self.tasks.append(t.record())
        if timed_case:
            self.quality(ttq=t.seconds)

    def scaled(self) -> tuple[float, float]:
        """Pass time and time to quality, in seconds at the reference speed."""
        wall = sum(t["seconds"] * t["scale"] for t in self.top)
        return wall, sum(seconds * self.top[i]["scale"] for seconds, i in self.ttq)

    def skipped(self, task_id: str, why: str) -> None:
        self.tasks.append(
            {"id": task_id, "main": self.main, "seconds": 0.0, "ok": False,
             "valid": True, "failures": [f"not run: {why}"]}
        )

    def call(self, task: Task, name: str, fn, *args, **kwargs):
        """Call into a layer inside a span; the span stays in ``self.last``."""
        with self.tracer.span(name, task.id) as span:
            self.last = span
            return fn(*args, **kwargs)

    def quality(self, ttq: float | None = None, ratio: float | None = None) -> None:
        if not self.main:
            return
        if ttq is not None:
            # the open top-level task, or the one that has just ended
            self.ttq.append((ttq, len(self.top) - (0 if self._depth else 1)))
        if ratio is not None:
            self.ratios.append(ratio)


def run_pass(ctx: Context, workload: str, sizes: dict, inputs: dict) -> None:
    ctx.main = False
    for w in WORKLOADS:
        PASSES[w](ctx, SMOKE[w], inputs["smoke"][w], f"smoke/{w}")
    ctx.main = True
    PASSES[workload](ctx, sizes[workload], inputs["main"], workload)


def _build(ctx: Context, t: Task, shape: str):
    poly = ctx.call(t, "polytope.build", SHAPES[shape])
    ctx.last.work["facets"] = len(poly.facets)
    return poly


def _cones(ctx: Context, t: Task, poly):
    cones = ctx.call(t, "cones.vertex_cones", pp.vertex_cones, poly)
    ctx.last.work["vertices"] = len(cones)
    return cones


# ---------------------------------------------------------------------------
# solve: the annealing solver on level-5 meshes
# ---------------------------------------------------------------------------

def solve_pass(ctx: Context, sz: dict, inp: dict, prefix: str) -> None:
    for (shape, volume), seeds in zip(sz["cases"], inp["restart_seeds"]):
        solve_case(ctx, f"{prefix}/{shape}-V{volume:g}", shape, volume, sz, seeds)


def solve_case(ctx: Context, case_id: str, shape: str, volume: float, sz: dict, seeds: list[int]) -> None:
    """Setup, then R restarts as separate restarts=1 calls (cold first), then
    the claim checks on the best region."""
    kinds = ["cold"] * sz["cold"] + ["warm"] * sz["warm"]
    restart_ids = [f"{case_id}/{k}{j}" for j, k in enumerate(kinds)]
    ran = 0
    with ctx.task(case_id) as case:
        poly = _build(ctx, case, shape)
        mesh = ctx.call(case, "mesh.subdivide", pp.subdivide, poly, sz["level"])
        ctx.last.work["triangles"] = mesh.triangle_count
        cones = _cones(ctx, case, poly)
        kappa = ctx.call(case, "solver.anisotropy", pp.anisotropy_bound, mesh)
        omega = min(c.link_volume for c in cones)
        smallest = sorted(c.vertex_index for c in cones if c.link_volume <= omega * (1 + 1e-12))
        bound = math.sqrt(2.0 * omega * volume)
        radius = math.sqrt(2.0 * volume / omega)
        h = mesh.max_edge_length()
        solver_s = 0.0
        ttq = None
        best = None
        for j, (kind, seed) in enumerate(zip(kinds, seeds)):
            ran += 1
            with ctx.task(restart_ids[j]) as t:
                warm = None
                if kind == "warm":
                    v = smallest[(j - sz["cold"]) % len(smallest)]
                    try:
                        ball = ctx.call(t, "solver.ball", pp.vertex_ball_region, mesh, v, volume)
                        ctx.last.work["ratio"] = ball.cut_perimeter / bound
                    finally:
                        solver_s += ctx.last.seconds
                    warm = [ball]
                cfg = pp.default_config(mesh, seed=seed, iterations=sz["iterations"], restarts=1)
                try:
                    res = ctx.call(t, "solver.minimize", pp.minimize_perimeter, mesh, volume, cfg, warm_starts=warm)
                finally:
                    ctx.last.work.update(iterations=cfg.iterations, restarts=cfg.restarts)
                    solver_s += ctx.last.seconds
                area = float(mesh.areas[res.region.mask].sum())
                t.check(area >= volume, f"area {area!r} below V = {volume}")
                t.check(abs(area - volume) <= FEASIBILITY * volume, f"area {area!r} outside the 2% band")
                if best is None or res.perimeter < best.perimeter:
                    best = res
                if ttq is None and bound - 1e-9 <= best.perimeter <= kappa * bound:
                    ttq = solver_s
        # the claim checks are the solve workload's; the smoke round only
        # covers the layers
        if ctx.main and case.check(best is not None, "no restart returned a region", wrong=False):
            ratio = best.perimeter / bound
            ctx.quality(ratio=ratio)
            case.check(
                bound - 1e-9 <= best.perimeter <= kappa * bound,
                f"best perimeter / bound = {ratio:.4f} outside [1, kappa = {kappa:.4f}]",
                wrong=False,
            )
            centroid = best.region.centroid
            near = min(float(np.linalg.norm(centroid - poly.vertices[v])) for v in smallest)
            case.check(
                near <= radius + h,
                f"best centroid {near:.4f} from the nearest smallest-link vertex > r + h = {radius + h:.4f}",
                wrong=False,
            )
        ctx.quality(ttq=solver_s if ttq is None else ttq)
    for rid in restart_ids[ran:]:
        ctx.skipped(rid, "case setup failed")


# ---------------------------------------------------------------------------
# geometry, part 2: mollified gauge bodies and the convexity probe
# ---------------------------------------------------------------------------

def _surface_measure(body) -> float:
    """Boundary measure of the star body through its radial samples."""
    pts = body.boundary_points
    if pts.shape[1] == 2:  # directions are in angular order
        return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())
    tri = pts[ConvexHull(body.directions).simplices]
    return float(0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum())


def _isoperimetric_bound(dim: int, volume: float) -> float:
    """Least boundary measure of any body of this volume (a Euclidean ball)."""
    if dim == 2:
        return 2.0 * math.sqrt(math.pi * volume)
    return (36.0 * math.pi * volume**2) ** (1.0 / 3.0)


def body_key(shape: str, eps: float, resolution: int) -> str:
    return f"{shape}-eps{eps:g}-r{resolution}"


def smooth_bodies(ctx: Context, sz: dict, inp: dict, prefix: str) -> None:
    deficits: dict[tuple[str, int], tuple[float, float]] = {}
    for (shape, eps, res, trials), seed in zip(sz["bodies"], inp["probe_seeds"]):
        key = body_key(shape, eps, res)
        with ctx.task(f"{prefix}/{key}", timed_case=True) as t:
            poly = _build(ctx, t, shape)
            body = ctx.call(t, "smoothing.body", pp.smoothed_body, poly, eps, resolution=res)
            ctx.last.work["directions"] = len(body.directions)
            probe = ctx.call(t, "smoothing.probe", pp.convexity_probe, body, trials, seed)
            ctx.last.work["trials"] = probe.trials
            t.check(bool(np.all(body.radii <= body.plain_radii() + 1e-9)), "radii exceed the plain radii")
            deficit = EXACT_VOLUME[shape] - body.volume
            # the deficit measures the accuracy of the quadrature volume
            # against the exact one: a finding when it fails, not a wrong body
            t.check(deficit > 0.0, f"volume deficit {deficit!r} not positive", wrong=False)
            prev = deficits.get((shape, res))
            if prev is not None and prev[0] > eps:
                t.check(deficit < prev[1], f"deficit {deficit!r} not below {prev[1]!r} at eps {prev[0]}", wrong=False)
            deficits[(shape, res)] = (eps, deficit)
            for name in ("max_violation", "max_midpoint_violation", "max_gauge_gap"):
                value = getattr(probe, name)
                t.check(value <= PROBE_TOL, f"probe {name} = {value!r} > {PROBE_TOL}")
            ref = REFERENCE["smooth_volumes"][key]
            t.check(
                abs(body.volume - ref) <= VOLUME_RTOL * ref,
                f"volume {body.volume!r} differs from the seed-commit value {ref!r}",
            )
            ctx.quality(ratio=_surface_measure(body) / _isoperimetric_bound(poly.dim, body.volume))


# ---------------------------------------------------------------------------
# geometry: hulls, cones, a fine mesh with its ball queries, slicing,
# smoothing, CLI
# ---------------------------------------------------------------------------

def _qhull_facets(points: np.ndarray) -> set[frozenset[int]]:
    """Qhull simplices grouped by supporting plane, as vertex-index sets."""
    hull = ConvexHull(points)
    planes: dict[tuple, set[int]] = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        planes.setdefault(tuple(np.round(eq, 7)), set()).update(int(i) for i in simplex)
    return {frozenset(f) for f in planes.values()}


def _facets_by_input(poly, points: np.ndarray) -> set[frozenset[int]]:
    dist = np.linalg.norm(poly.vertices[:, None, :] - points[None, :, :], axis=2)
    index = dist.argmin(axis=1)
    if dist[np.arange(len(index)), index].max() > 1e-9:
        return set()
    return {frozenset(int(index[i]) for i in f) for f in poly.facets}


def geometry_pass(ctx: Context, sz: dict, inp: dict, prefix: str) -> None:
    for points in inp["points"]:
        with ctx.task(f"{prefix}/hull-{len(points)}", timed_case=True) as t:
            poly = ctx.call(t, "polytope.build", pp.Polytope.from_vertices, points)
            ctx.last.work["facets"] = len(poly.facets)
            _cones(ctx, t, poly)
            dsum = ctx.call(t, "cones.deficit_sum", pp.deficit_sum, poly)
            t.check(_facets_by_input(poly, points) == _qhull_facets(points), "facets differ from Qhull's")
            t.check(abs(dsum - 4.0 * math.pi) <= 1e-9, f"deficit sum {dsum!r} != 4 pi")

    mesh = None
    with ctx.task(f"{prefix}/mesh-L{sz['level']}", timed_case=True) as t:
        poly = _build(ctx, t, "cube")
        _cones(ctx, t, poly)
        dsum = ctx.call(t, "cones.deficit_sum", pp.deficit_sum, poly)
        t.check(abs(dsum - 4.0 * math.pi) <= 1e-9, f"deficit sum {dsum!r} != 4 pi")
        mesh = ctx.call(t, "mesh.subdivide", pp.subdivide, poly, sz["level"])
        ctx.last.work["triangles"] = mesh.triangle_count
        t.check(mesh.is_closed(), "mesh is not closed")
        areas = np.bincount(mesh.facet_of, weights=mesh.areas, minlength=len(poly.facets))
        t.check(bool(np.all(np.abs(areas - 1.0) <= 1e-9)), "subdivision changed a unit facet's area")

    vmin, vmax, count = sz["balls"]
    with ctx.task(f"{prefix}/balls-L{sz['level']}", timed_case=True) as t:
        t.check(mesh is not None, "no mesh")
        volumes = np.geomspace(vmin, vmax, count)
        perimeters = []
        for v in volumes:
            ball = ctx.call(t, "solver.ball", pp.vertex_ball_region, mesh, 0, float(v))
            ratio = ball.cut_perimeter / math.sqrt(2.0 * CUBE_LINK * v)
            ctx.last.work["ratio"] = ratio
            ctx.quality(ratio=ratio)
            perimeters.append(ball.cut_perimeter)
            area = float(mesh.areas[ball.mask].sum())
            t.check(abs(area - v) <= mesh.areas.max() + 1e-12, f"ball area {area!r} not within a triangle of {v!r}")
        fit = ctx.call(t, "profiles.fit", pp.fit_power_law, volumes, perimeters)
        t.check(abs(fit.exponent - 0.5) <= 0.02, f"power-law exponent {fit.exponent:.4f} not 0.5 +- 0.02")

    for n, big_n in sz["slices"]:
        with ctx.task(f"{prefix}/slice-{n}-{big_n}", timed_case=True) as t:
            pieces = ctx.call(t, "slicing.enumerate", pp.enumerate_pieces, n, big_n)
            ctx.last.work["pieces"] = len(pieces)
            classes = ctx.call(t, "slicing.classify", pp.classify_pieces, pieces)
            t.check(len(classes) <= n, f"{len(classes)} classes > n = {n}")
            t.check(sum(c.count for c in classes) == len(pieces), "classes do not cover the pieces")

    smooth_bodies(ctx, sz, inp, prefix)

    for name, argv in sz["cli"]:
        with ctx.task(f"{prefix}/cli-{name}", timed_case=True) as t:
            out = ctx.scratch / f"{prefix.replace('/', '-')}-{name}"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = ctx.call(t, f"cli.{name}", cli.main, argv + ["--out", str(out)])
            # exit codes 2 and 3 are documented failures, any other is wrong
            if t.check(rc == 0, f"exit code {rc}", wrong=rc not in (2, 3)):
                CLI_CHECKS[name](t, argv, out)


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _option(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_analyze(t: Task, argv: list[str], out: Path) -> None:
    rows = _csv_rows(out / "analysis.csv")
    expected = {"hypercube": (16, 2.0 * math.pi, 1e-6), "cube": (8, CUBE_LINK, 1e-9)}
    count, omega, tol = expected[_option(argv, "--polytope", "")]
    t.check(len(rows) == count, f"{len(rows)} vertices, expected {count}")
    t.check(all(abs(float(r[1]) - omega) <= tol for r in rows), "link measure off")


def _check_slice(t: Task, argv: list[str], out: Path) -> None:
    big_n = int(_option(argv, "--N", "0"))
    rows = _csv_rows(out / "pieces.csv")
    t.check(len(rows) == big_n**2, f"{len(rows)} planar pieces, expected N^2 = {big_n**2}")
    if "--svg" in argv:
        t.check((out / "pieces.svg").stat().st_size > 0, "empty pieces.svg")


def _check_profile(t: Task, argv: list[str], out: Path) -> None:
    rows = _csv_rows(out / "profile.csv")
    omega, n = float(_option(argv, "--omega", "nan")), int(_option(argv, "--n", "0"))
    t.check(len(rows) == int(_option(argv, "--points", "256")), "profile row count")
    for v, a in ((float(r[0]), float(r[1])) for r in rows):
        want = omega ** (1.0 / n) * (n * v) ** ((n - 1.0) / n)
        if not t.check(abs(a - want) <= 1e-9 * want, f"A({v!r}) = {a!r}, expected {want!r}"):
            break
    if "--svg" in argv:
        t.check((out / "profile.svg").stat().st_size > 0, "empty profile.svg")


def _check_gallery(t: Task, argv: list[str], out: Path) -> None:
    rows = _csv_rows(out / "competitors.csv")
    t.check(len(rows) == int(_option(argv, "--points", "120")), "competitor row count")
    if "--svg" in argv:
        t.check((out / "competitors.svg").stat().st_size > 0, "empty competitors.svg")


CLI_CHECKS = {
    "analyze": _check_analyze,
    "slice": _check_slice,
    "profile": _check_profile,
    "gallery": _check_gallery,
}

PASSES = {"solve": solve_pass, "geometry": geometry_pass}
