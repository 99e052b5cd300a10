"""Tests of the benchmark harness, run at the smoke size.

    python3 -m pytest perfbench
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import workloads  # noqa: E402
from spans import Span, layer_metrics  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 3


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _measure(workload: str, sizes: dict = workloads.SMOKE) -> tuple[dict, dict]:
    inputs = workloads.pass_inputs(workload, sizes, SEED, 0)
    runs = run.measure(workload, SEED, 0.0, False, sizes, inputs)
    return run.summarize(runs, [1.0], False), runs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.SMOKE) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]


def test_forced_failure_is_counted_not_dropped():
    sizes = copy.deepcopy(workloads.SMOKE)
    sizes["solve"]["cases"] += (("cube", 7.0),)  # V above the cube's surface area 6
    base, _ = _measure("solve")
    forced, runs = _measure("solve", sizes)
    per_pass = 1 + sizes["solve"]["cold"] + sizes["solve"]["warm"]
    passes = len(runs["untraced"])
    assert forced["attempted"] == base["attempted"] + passes * per_pass
    assert forced["failed"] == base["failed"] + passes * per_pass
    failed = {t["id"] for p in runs["untraced"] for t in p["tasks"] if not t["ok"]}
    assert {"solve/cube-V7", "solve/cube-V7/cold0", "solve/cube-V7/warm1"} <= failed
    # a documented ValidationError is a failure, not a wrong answer
    assert forced["correct"] is True


def test_wrong_answer_clears_correct(monkeypatch):
    key = workloads.body_key(*workloads.SMOKE["geometry"]["bodies"][0][:3])
    volumes = dict(workloads.REFERENCE["smooth_volumes"])
    volumes[key] *= 1.0 + 1e-6
    monkeypatch.setitem(workloads.REFERENCE, "smooth_volumes", volumes)
    result, _ = _measure("geometry")
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_layer_metrics_from_spans():
    def span(name, start, end, parent=-1, **work):
        s = Span(name, "t", parent)
        s.start, s.end, s.work = start, end, work
        return s

    spans = [
        span("bench.task", 0.0, 10.0),
        span("mesh.subdivide", 1.0, 3.0, 0, triangles=400),
        span("solver.minimize", 3.0, 7.0, 0, iterations=1000, restarts=1),
        span("solver.ball", 7.0, 8.0, 0, ratio=1.5),
    ]
    spans[2].error = True
    m, bases = layer_metrics(spans)
    assert m["mesh.tri_per_s"] == pytest.approx(200.0)
    assert m["solver.busy_s"] == pytest.approx(5.0)
    assert m["solver.errors"] == 1 and m["solver.feasible_frac"] == 0.0
    assert m["solver.iters_per_s"] == pytest.approx(250.0)
    assert m["bench.self_s"] == pytest.approx(3.0)
    assert "0 of 1 calls" in bases["solver.feasible_frac"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_task_times_scale_to_the_reference_speed(monkeypatch, tmp_path):
    probes = iter([0.010, 0.020, 0.030])
    monkeypatch.setattr(workloads.hostspeed, "probe", lambda: next(probes))
    ctx = workloads.Context(workloads.Tracer(False), tmp_path)
    with ctx.task("a") as t:
        with ctx.task("a/inner"):
            pass
        ctx.quality(ttq=1.0)
    with ctx.task("b", timed_case=True):
        pass
    assert [t["id"] for t in ctx.top] == ["a", "b"]
    ref = workloads.hostspeed.REF_S
    assert ctx.top[0]["scale"] == pytest.approx(ref / 0.015)
    assert ctx.top[1]["scale"] == pytest.approx(ref / 0.025)
    wall, ttq = ctx.scaled()
    assert wall == pytest.approx(sum(t["seconds"] * t["scale"] for t in ctx.top))
    assert ttq == pytest.approx(1.0 * ref / 0.015 + ctx.top[1]["seconds"] * ref / 0.025)
