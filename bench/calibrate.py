"""Machine-speed calibration of the end-to-end timings.

The hosts this benchmark runs on are shared: their speed drifts by a fifth
or more over tens of seconds, for every process alike, so two runs of the
same code a minute apart can differ by more than a regression bound.  A
fixed reference computation, written here and independent of liesym, is
timed between operations, about once every ``REF_EVERY`` seconds of the
run; it slows and speeds up with the machine.  Each operation's latency is
divided by the reference time measured around it (the median of the
samples within ``WINDOW`` seconds) and multiplied by ``NOMINAL_S``, the
reference time of the nominal machine.  The timings are thus milliseconds
on a machine on which :func:`reference` takes ``NOMINAL_S``.  A change to
liesym leaves the reference as it is, so it shows in the scaled figures in
full.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Seconds :func:`reference` takes on the nominal machine (a 2-core x86-64
#: VM at 2.1 GHz with Python 3.11 and numpy 2.4, when the host is quiet).
NOMINAL_S = 2.0e-3
#: A reference sample is taken between operations once this many seconds
#: have passed since the last one, and one more for each further REF_EVERY.
REF_EVERY = 0.05
MAX_BURST = 20
#: An operation is scaled by the samples taken within this many seconds of it.
WINDOW = 2.0

#: Runs in a fresh interpreter next to each set-up measurement: work of the
#: kinds that importing liesym does (loading numpy and its shared libraries,
#: then plain Python), written without liesym.  Importing depends on the
#: host's file and memory paths more than on its CPU, and those drift on
#: their own: set-up time once fell by 30% between runs while the in-process
#: reference did not move.
SETUP_REF_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibrate\n"
    "for _ in range(20):\n"
    "    calibrate.reference()\n"
    "print(time.perf_counter() - t0)\n"
)
#: Seconds SETUP_REF_CODE takes on the nominal machine.
SETUP_NOMINAL_S = 0.15


def _tree(depth: int):
    if depth == 0:
        return ("leaf", 1.0)
    return ("add" if depth % 2 else "mul", _tree(depth - 1),
            _tree(max(depth - 2, 0)))


_TREE = _tree(12)
_X = np.linspace(0.5, 2.0, 120)
_A = np.eye(8) + 0.01 * np.arange(64.0).reshape(8, 8) / 64.0


def _walk(node, memo: dict) -> float:
    """Tree recursion with tuple unpacking and dict lookups, like ``expr``."""
    if node[0] == "leaf":
        return node[1]
    key = id(node)
    if key in memo:
        return memo[key]
    a, b = _walk(node[1], memo), _walk(node[2], memo)
    out = a + b if node[0] == "add" else 0.5 * a * b
    memo[key] = out
    return out


def reference() -> float:
    """Fixed work in the mix of the workloads: pure-Python recursion and
    arithmetic, elementwise numpy on sample-sized arrays, and small dense
    linear algebra."""
    acc = 0.0
    for _ in range(5):
        acc += _walk(_TREE, {}) * 1e-9
    d = {}
    for i in range(2500):
        d[i & 63] = acc
        acc += (i * 0.5) % 7.0
    y = _X
    for _ in range(60):
        y = np.sqrt(y * y + 0.25) - 0.1 * y
    a = _A
    for _ in range(50):
        b = a @ a
        c = np.linalg.solve(a + np.eye(8), b[:, 0])
        a = np.eye(8) + 0.01 * np.abs(b) / max(1.0, float(np.max(b)))
    return acc + float(y[0]) + float(c[0])


class Clock:
    """Reference samples taken through a run, and the scaling they give."""

    def __init__(self):
        self.times: list[float] = []      # midpoints, increasing
        self.samples: list[float] = []    # reference durations

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)
        return t1 - t0

    def maybe_sample(self) -> None:
        """One sample per REF_EVERY seconds passed since the last one (at
        most MAX_BURST at once), so that long operations have as many
        samples around them as short ones."""
        if not self.times:
            self.sample()
            return
        due = int((time.perf_counter() - self.times[-1]) / REF_EVERY)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Median reference time within WINDOW seconds of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if lo == hi:
            raise ValueError("no reference sample near the span")
        return statistics.median(self.samples[lo:hi])

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, on the nominal machine."""
        return seconds * NOMINAL_S / self.around(start, start + seconds)
