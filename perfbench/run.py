"""polyperim benchmark: two workloads, end-to-end and per-layer metrics.

Run from the root of a polyperim checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 36 --trace 0

Workloads are ``solve`` and ``geometry`` (see workloads.py and README.md).
A run imports the library from ``src/`` of the checkout, sets up, then runs
a fixed number of passes over the workload's seeded inputs (pass k uses
inputs drawn from (seed, k)): ``--seconds`` divided by the workload's
nominal pass time, at least two.  With ``--trace 1`` each pass runs twice
on the same inputs, untraced and then traced; the per-layer metrics come
from the traced copies and the tracing overhead from the difference.

Every line but the last is a human-readable report.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the run environment, every task record
and, when traced, every span is written to ``perfbench/results/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, PER_LAYER_UNITS, Tracer, layer_metrics, mean_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_CHILDREN = 2
#: a run stops early rather than pass this, so that it ends within 180 s
HARD_LIMIT_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "ratio",
    "perim_ratio": "ratio",
    "ttq_s": "s",
}


def load_library():
    """Import polyperim from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polyperim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polyperim sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import polyperim

    if Path(polyperim.__file__).resolve().parent != src / "polyperim":
        sys.exit(f"perfbench: imported polyperim from {polyperim.__file__}, not {src}")
    return polyperim


def setup(workload: str, seed: int, sizes: dict | None = None) -> dict:
    """Import the library and generate the inputs of the first pass."""
    load_library()
    import workloads

    return workloads.pass_inputs(workload, sizes or workloads.FULL, seed, 0)


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it and scaled to
    the reference speed."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def scaled_setup(raw: float) -> float:
    import hostspeed

    return raw * hostspeed.factor(hostspeed.probe())


def run_one_pass(workload, sizes, inputs, traced, scratch):
    import workloads

    ctx = workloads.Context(Tracer(traced), scratch)
    workloads.run_pass(ctx, workload, sizes, inputs)
    wall, ttq = ctx.scaled()
    return {
        "wall_s": wall,
        "ttq_s": ttq,
        "raw_wall_s": sum(t["seconds"] for t in ctx.top),
        "top": ctx.top,
        "tasks": ctx.tasks,
        "ratios": ctx.ratios,
        "spans": ctx.tracer.spans,
    }


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes of a run: fixed by ``--seconds``, never by the clock, so every
    run of a workload attempts the same tasks.  A traced run counts pairs."""
    import workloads

    passes = max(2, int(seconds // workloads.PASS_SECONDS[workload]))
    return max(1, passes // 2) if trace else passes


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: dict, first_inputs: dict) -> dict:
    """Run the passes of one run (see ``pass_count``)."""
    import workloads

    untraced, traced = [], []
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=RESULTS))
    try:
        start = time.perf_counter()
        for k in range(pass_count(workload, seconds, trace)):
            if k and (time.perf_counter() - start) * (k + 1) / k > HARD_LIMIT_S:
                print(f"perfbench: stopped after {k} passes, the next would pass {HARD_LIMIT_S} s")
                break
            inputs = first_inputs if k == 0 else workloads.pass_inputs(workload, sizes, seed, k)
            untraced.append(run_one_pass(workload, sizes, inputs, False, scratch))
            if trace:
                traced.append(run_one_pass(workload, sizes, inputs, True, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"untraced": untraced, "traced": traced}


def end_to_end(untraced: list[dict], setup_samples: list[float]) -> dict:
    tasks = [t for p in untraced for t in p["tasks"]]
    ratios = [r for p in untraced for r in p["ratios"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": sum(t["ok"] for t in tasks) / len(tasks),
        "perim_ratio": sum(ratios) / len(ratios),
        "ttq_s": statistics.median(p["ttq_s"] for p in untraced),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    pairs = [layer_metrics(p["spans"]) for p in traced]
    metrics = mean_metrics([m for m, _ in pairs])
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)
    )
    metrics["bench.raw_wall_s"] = statistics.median(p["raw_wall_s"] for p in untraced)
    metrics["bench.host_speed"] = (
        sum(p["raw_wall_s"] for p in untraced) / sum(p["wall_s"] for p in untraced)
    )
    return metrics, pairs[-1][1]


def blas_threads() -> int | None:
    """OpenBLAS pool size of numpy's bundled BLAS, when it can be queried."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (a plain export has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def report(workload: str, env: dict, result: dict, untraced: list[dict], bases: dict) -> None:
    tasks = [t for p in untraced for t in p["tasks"]]
    failed = [t for t in tasks if not t["ok"]]
    print(f"perfbench {workload}: seed {env['seed']}, {len(untraced)} passes, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, blas threads {env['blas_threads']}, commit {env['git_commit']}")
    print(f"  fail_frac = {len(failed) / len(tasks):.4f} ({len(failed)} of {len(tasks)} tasks failed)")
    for t in failed:
        print(f"  FAIL {t['id']}: {'; '.join(f.splitlines()[-1] for f in t['failures'])}")
    for name, m in result["metrics"].items():
        base = f"   [{bases[name]}]" if name in bases else ""
        print(f"  {name} = {m['value']!r} {m['unit']}{base}")


def summarize(runs: dict, setup_samples: list[float], trace: bool) -> dict:
    """The result object: counts over every untraced pass, plus the metrics."""
    untraced = runs["untraced"]
    tasks = [t for p in untraced for t in p["tasks"]]
    if trace:
        values, bases = per_layer(untraced, runs["traced"])
        units = PER_LAYER_UNITS
    else:
        values, bases, units = end_to_end(untraced, setup_samples), {}, END_TO_END
    return {
        "correct": all(t["valid"] for t in tasks),
        "attempted": len(tasks),
        "failed": sum(not t["ok"] for t in tasks),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "bases": bases,
    }


def main(argv=None, sizes: dict | None = None) -> int:
    """Run the benchmark; ``sizes`` overrides the measured pass size (tests)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    first_inputs = setup(args.workload, args.seed, sizes)
    own_setup = scaled_setup(time.perf_counter() - _T0)
    if args.setup_only:
        print(repr(own_setup))
        return 0

    import workloads

    samples = [own_setup] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes or workloads.FULL, first_inputs)
    result = summarize(runs, samples, bool(args.trace))
    env = environment(args)
    report(args.workload, env, result, runs["untraced"], result.pop("bases"))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "environment": env,
        "layers": LAYERS,
        "setup_samples_s": samples,
        "result": result,
        "passes": [
            {"traced": traced, "wall_s": p["wall_s"], "ttq_s": p["ttq_s"], "raw_wall_s": p["raw_wall_s"],
             "top": p["top"], "tasks": p["tasks"],
             "spans": [s.to_json() for s in p["spans"]]}
            for traced, group in ((False, runs["untraced"]), (True, runs["traced"]))
            for p in group
        ],
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
