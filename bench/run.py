#!/usr/bin/env python3
"""Benchmark for liesym, run from the root of a source checkout:

    python3 bench/run.py --workload check --seed 1 --seconds 16 --trace 0

It imports the package from ``src/`` of the checkout, runs one workload
(see ``workloads.py``) in whole rounds for at least ``--seconds`` seconds and
at least 100 operations, checks every output outside the timed spans, and
prints one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, their
timings scaled to a nominal machine speed (``calibrate.py``; the unscaled
figures go to standard error); with ``--trace 1`` the same operations run
once plain and once under the per-layer tracer (``layertrace.py``), and the
metrics are the per-layer ones.  The result is also written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("catalog_verify", "covariance", "check", "normalize")
MIN_OPS = 100          # op_p90_ms then has at least ten operations above it
WARMUP_OPS = 10         # untimed operations before a traced run's plain pass
SETUP_PROCESSES = 7    # fresh interpreters timed for setup_s; the median counts

# Runs in a fresh interpreter: the time to import the package, which builds
# the catalog registry, and the CLI module.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import liesym, liesym.cli\n"
    "liesym.entry_ids()\n"
    "print(time.perf_counter() - t0)\n"
)


def run_child(code: str, path: Path) -> float:
    out = subprocess.run([sys.executable, "-c", code, str(path)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    return float(out.stdout.split()[-1])


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of the set-up time, scaled by the
    median time of the set-up reference run next to each; and the raw median."""
    raw, refs = [], []
    for _ in range(SETUP_PROCESSES):
        refs.append(run_child(calibrate.SETUP_REF_CODE, HERE))
        raw.append(run_child(SETUP_CODE, SRC))
    setup = statistics.median(raw)
    return setup * calibrate.SETUP_NOMINAL_S / statistics.median(refs), setup


class Pass:
    """Latencies, failures and check problems of one sequence of operations."""

    def __init__(self, clock: calibrate.Clock | None = None):
        self.clock = clock       # samples the machine's speed between operations
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.busy = 0.0          # seconds inside timed operations
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def run(self, workload, ops, paused=None) -> None:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception:   # an operation that raises counts as failed
                self.busy += time.perf_counter() - t0
                self.failed += 1
                print(f"operation failed: {op!r}", file=sys.stderr)
                traceback.print_exc()
                continue
            dt = time.perf_counter() - t0
            self.busy += dt
            self.starts.append(t0)
            self.latencies.append(dt)
            with paused() if paused else contextlib.nullcontext():
                try:
                    workload.check(op, out)
                except Exception as exc:   # a malformed output is a wrong one
                    self.problems.append(f"{op!r}: {type(exc).__name__}: {exc}")
            if self.clock:
                self.clock.maybe_sample()


def latency_metrics(lat: list[float]) -> dict:
    done = len(lat) > 0
    return {
        "ops_per_s": (len(lat) / sum(lat) if done else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3 if done else 0.0, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3
                      if len(lat) > 1 else 0.0, "ms"),
    }


def timed_run(workload, seconds: float, clock: calibrate.Clock) -> tuple[Pass, dict, dict]:
    """Whole rounds until ``seconds`` have passed and MIN_OPS ran.  The
    timings are scaled to the nominal machine; the raw ones come second."""
    p = Pass(clock)
    clock.sample()
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds or p.attempted < MIN_OPS:
        p.run(workload, workload.round(r))
        r += 1
    clock.sample()
    p.problems += workload.finish()
    scaled = [clock.scale(t0, dt) for t0, dt in zip(p.starts, p.latencies)]
    metrics = latency_metrics(scaled)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return p, metrics, latency_metrics(p.latencies)


def traced_run(workload, liesym) -> tuple[Pass, dict]:
    """The fewest whole rounds that reach MIN_OPS, once plain and once
    traced, after a few warm-up operations; per-layer totals come from the
    traced pass."""
    ops, r = [], 0
    while len(ops) < MIN_OPS:
        ops += workload.round(r)
        r += 1
    p = Pass()
    p.run(workload, ops[:WARMUP_OPS])   # first-call costs stay out of the ratio
    gc.collect()
    before = p.busy
    p.run(workload, ops)
    plain = p.busy - before
    tracer = layertrace.install(liesym)
    gc.collect()
    before = p.busy
    try:
        p.run(workload, ops, tracer.paused)
    finally:
        tracer.uninstall()
    traced = p.busy - before
    p.problems += workload.finish()
    return p, tracer.metrics(traced / plain if plain > 0 else 0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "liesym" / "__init__.py").is_file():
        print(f"run.py: no liesym package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liesym
    import workloads

    setup_s, setup_raw = measure_setup() if not args.trace else (None, None)
    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            p, metrics = traced_run(workload, liesym)
        else:
            clock = calibrate.Clock()
            p, scaled, raw = timed_run(workload, args.seconds, clock)
            scaled["setup_s"] = (setup_s, "s")
            raw["setup_s"] = (setup_raw, "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in scaled.items()}
            print("unscaled: " + json.dumps({k: v for k, (v, _) in raw.items()}, sort_keys=True)
                  + f", reference median {statistics.median(clock.samples) * 1e3:.4g} ms"
                  f" (nominal {calibrate.NOMINAL_S * 1e3:.4g} ms)", file=sys.stderr)
    for line in p.problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {"correct": not p.problems, "attempted": p.attempted,
              "failed": p.failed, "metrics": metrics}
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
