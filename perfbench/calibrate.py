"""Machine-speed probes, timed next to the requests.

On a shared machine the speed one process gets drifts by tens of
percent within seconds.  The benchmark times a probe between requests
and scales every measured time by (reference time) / (probe time), so
drift cancels while a change in trilink shows in full.  Raw times are
printed too.  There are two probes:

  probe()          fixed integer Python in trilink's style (small-int
                   lists, tuples, dicts, recursion), for requests served
                   in process;
  startup_probe()  a bare `python -c pass`, for requests and set-up that
                   start a fresh interpreter, whose cost is mostly
                   interpreter start-up and tracks the Python probe
                   poorly.

Neither runs any of trilink's code.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from oracles import bilinear, det, hermite_rows

REFERENCE_S = 0.002  # probe() time at the reference speed
STARTUP_REFERENCE_S = 0.06  # startup_probe() time at the reference speed
PROBE_EVERY_S = 0.2  # serving time between probe() runs

_M = [[(3 * i + 5 * j) % 7 - 3 for j in range(6)] for i in range(6)]
_V = [[1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -2, 0], [2, 0, -1, 1, 1, 3]]


def _work() -> int:
    acc = det(_M)
    for _ in range(6):
        acc += len(hermite_rows(_V))
        acc += sum(bilinear(u, _M, v) for u in _V for v in _V)
        series = {(): 1}
        for i in (1, 2, 3, 1, 2, 3, 2, 1):
            nxt: dict[tuple, int] = {}
            for m, c in series.items():
                for m2 in ((), (i,)):
                    if len(m) + len(m2) <= 3:
                        nxt[m + m2] = nxt.get(m + m2, 0) + c
            series = nxt
        acc += len(series)
    return acc


def probe(reps: int = 3) -> float:
    """Median seconds of `reps` runs of the fixed probe work."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def startup_probe() -> float:
    """Seconds for a fresh interpreter to start and exit."""
    t0 = time.perf_counter()
    # stdout is the worker's report pipe, so the child must not write there
    subprocess.run([sys.executable, "-c", "pass"], stdout=subprocess.DEVNULL, check=True,
                   timeout=60)
    return time.perf_counter() - t0


def factor(before: float, after: float, reference: float) -> float:
    """Scale for a time measured between two probes."""
    return 2 * reference / (before + after)
