"""In-memory span recorder and the per-layer metrics derived from its spans.

A span covers one call the benchmark makes into a library layer (named
``<layer>.<operation>``, e.g. ``mesh.subdivide``) or one benchmark task
(``bench.task``).  Each span records its name, start, end, parent span and
task id, plus optional work counts (``facets``, ``triangles``, ...).  Spans
are kept in a list while the run lasts and written out with the result file.

Timing is always taken, so untraced passes can still report solver time for
``ttq_s``; only the span list is skipped when tracing is off.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

#: library layers, named after the ``polyperim`` modules the benchmark calls
LAYERS = ("polytope", "cones", "mesh", "solver", "smoothing", "slicing", "profiles", "cli")


class Span:
    __slots__ = ("name", "task", "parent", "start", "end", "error", "work")

    def __init__(self, name: str, task: str, parent: int):
        self.name = name
        self.task = task
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.error = False
        self.work: dict[str, float] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "task": self.task,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            "work": self.work,
        }


class Tracer:
    """Times every span; keeps the spans only when ``enabled``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, task: str):
        rec = Span(name, task, self._open[-1] if self._open else -1)
        if self.enabled:
            self._open.append(len(self.spans))
            self.spans.append(rec)
        rec.start = perf_counter()
        try:
            yield rec
        except BaseException:
            rec.error = True
            raise
        finally:
            rec.end = perf_counter()
            if self.enabled:
                self._open.pop()


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced pass, and the base of every ratio.

    Busy time is the union of a layer's span intervals; self time is each
    span's duration minus the time its child spans cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.seconds

    def dur(*names: str) -> float:
        return sum(s.seconds for s in spans if s.name in names)

    def work(name: str, key: str) -> float:
        return sum(s.work.get(key, 0) for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    m: dict[str, float] = {}
    bases: dict[str, str] = {}
    m["polytope.build_s"] = dur("polytope.build")
    m["polytope.facets"] = work("polytope.build", "facets")
    m["cones.cones_s"] = dur("cones.vertex_cones", "cones.deficit_sum")
    m["cones.vertices"] = work("cones.vertex_cones", "vertices")
    m["mesh.subdivide_s"] = dur("mesh.subdivide")
    m["mesh.triangles"] = work("mesh.subdivide", "triangles")
    m["mesh.tri_per_s"] = _ratio(m["mesh.triangles"], m["mesh.subdivide_s"])
    bases["mesh.tri_per_s"] = f"{m['mesh.triangles']:.0f} triangles / {m['mesh.subdivide_s']:.4f} s"

    minimize = [s for s in spans if s.name == "solver.minimize"]
    feasible = sum(1 for s in minimize if not s.error)
    iterations = work("solver.minimize", "iterations")
    m["solver.minimize_s"] = dur("solver.minimize")
    m["solver.restarts"] = work("solver.minimize", "restarts")
    m["solver.iters_per_s"] = _ratio(iterations, m["solver.minimize_s"])
    bases["solver.iters_per_s"] = f"{iterations:.0f} configured iterations / {m['solver.minimize_s']:.4f} s"
    m["solver.feasible_frac"] = _ratio(feasible, len(minimize))
    bases["solver.feasible_frac"] = f"{feasible} of {len(minimize)} calls returned a region"
    balls = [s.work["ratio"] for s in spans if s.name == "solver.ball" and "ratio" in s.work]
    m["solver.ball_s"] = dur("solver.ball")
    m["solver.ball_ratio"] = _ratio(sum(balls), len(balls))
    bases["solver.ball_ratio"] = f"mean of {len(balls)} ball perimeter / bound ratios"

    dirs = work("smoothing.body", "directions")
    trials = work("smoothing.probe", "trials")
    m["smoothing.body_s"] = dur("smoothing.body")
    m["smoothing.dirs_per_s"] = _ratio(dirs, m["smoothing.body_s"])
    bases["smoothing.dirs_per_s"] = f"{dirs:.0f} directions / {m['smoothing.body_s']:.4f} s"
    m["smoothing.probe_s"] = dur("smoothing.probe")
    m["smoothing.probe_trials_per_s"] = _ratio(trials, m["smoothing.probe_s"])
    bases["smoothing.probe_trials_per_s"] = f"{trials:.0f} trials / {m['smoothing.probe_s']:.4f} s"

    m["slicing.enumerate_s"] = dur("slicing.enumerate")
    m["slicing.classify_s"] = dur("slicing.classify")
    m["slicing.pieces"] = work("slicing.enumerate", "pieces")
    m["profiles.fit_s"] = dur("profiles.fit")
    for cmd in ("analyze", "slice", "profile", "gallery"):
        m[f"cli.{cmd}_s"] = dur(f"cli.{cmd}")

    for layer in LAYERS + ("bench",):
        mine = [(i, s) for i, s in enumerate(spans) if s.layer == layer]
        if layer != "bench":
            m[f"{layer}.calls"] = len(mine)
            m[f"{layer}.errors"] = sum(1 for _, s in mine if s.error)
            m[f"{layer}.busy_s"] = _union_seconds([(s.start, s.end) for _, s in mine])
        m[f"{layer}.self_s"] = sum(s.seconds - covered[i] for i, s in mine)
    return m, bases


#: per-layer metrics in the order BENCHMARK.json lists them, with their units
PER_LAYER_UNITS = {
    "polytope.build_s": "s", "polytope.facets": "count",
    "cones.cones_s": "s", "cones.vertices": "count",
    "mesh.subdivide_s": "s", "mesh.triangles": "count", "mesh.tri_per_s": "1/s",
    "solver.minimize_s": "s", "solver.restarts": "count", "solver.iters_per_s": "1/s",
    "solver.feasible_frac": "ratio", "solver.ball_s": "s", "solver.ball_ratio": "ratio",
    "smoothing.body_s": "s", "smoothing.dirs_per_s": "1/s",
    "smoothing.probe_s": "s", "smoothing.probe_trials_per_s": "1/s",
    "slicing.enumerate_s": "s", "slicing.classify_s": "s", "slicing.pieces": "count",
    "profiles.fit_s": "s",
    "cli.analyze_s": "s", "cli.slice_s": "s", "cli.profile_s": "s", "cli.gallery_s": "s",
}
for _layer in LAYERS:
    PER_LAYER_UNITS.update({f"{_layer}.calls": "count", f"{_layer}.errors": "count",
                            f"{_layer}.busy_s": "s", f"{_layer}.self_s": "s"})
PER_LAYER_UNITS["bench.self_s"] = "s"
PER_LAYER_UNITS["trace.overhead_s"] = "s"
# unscaled pass time, and the host's speed against the reference (hostspeed.py)
PER_LAYER_UNITS["bench.raw_wall_s"] = "s"
PER_LAYER_UNITS["bench.host_speed"] = "ratio"


def mean_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: sum(p[k] for p in per_pass) / len(per_pass) for k in per_pass[0]}
