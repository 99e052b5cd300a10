"""Host speed probe: a fixed reference computation timed between tasks.

The shared host this benchmark was tuned on runs a process at speeds up to
1.6x apart, in phases that last from seconds to minutes, so that whole runs
of the same code differ by that much.  A fixed computation slows down with
the workload: in 6-second windows its time and a solver call's time moved
together, and their ratio stayed within +-8% while each moved +-20%.

The benchmark therefore times this probe before and after every top-level
task and scales the task's time by ``REF_S / probe``: its times read as
seconds at the reference speed.  The probe is part of the benchmark, not of
the program, so a change to the program moves the scaled times as it moves
the raw ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: the probe's time at the reference speed, a typical value on the 2-core
#: x86-64 host the benchmark was tuned on (Python 3.11, numpy 2.4), where
#: it measured 0.010-0.016 s
REF_S = 0.0120

_XS = [float(i % 97) for i in range(1024)]
_ARR = np.linspace(0.0, 1.0, 20_000)


def _kernel() -> float:
    """Interpreter-bound indexing and float arithmetic, like the annealer's
    flip loop, then a few vectorised passes over a small array."""
    xs = _XS
    acc = 0.0
    j = 0
    for _ in range(48_000):
        j = (j * 31 + 7) & 1023
        acc += xs[j] * 0.5 - math.sqrt(xs[(j + 1) & 1023] + 1.0)
    a = _ARR
    for _ in range(8):
        a = np.sqrt(a * a + 1.0) - 0.5
    return acc + float(a.sum())


def probe(repeats: int = 5) -> float:
    """Mean of ``repeats`` kernel timings, in seconds."""
    start = perf_counter()
    for _ in range(repeats):
        _kernel()
    return (perf_counter() - start) / repeats


def factor(*probes: float) -> float:
    """Scale from raw seconds to seconds at the reference speed."""
    return REF_S * len(probes) / sum(probes)
