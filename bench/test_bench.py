"""Tests of the benchmark itself: every workload runs at a tiny size and
passes its checks, a corrupted output is caught by each check, and the
tracer and BENCHMARK.json agree on what is reported.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import liesym  # noqa: E402
from liesym import catalog, expr  # noqa: E402

import calibrate  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make(name, tmp_path, seed=5):
    return workloads.WORKLOADS[name](seed, tmp_path)


def first_ops(w, pick=None, n=3):
    ops = w.round(0)
    return [op for op in ops if pick is None or pick(op)][:n]


def one(w, op):
    out = w.run(op)
    w.check(op, out)
    return out


# ---------------------------------------------------------------------------
# the specification file
# ---------------------------------------------------------------------------

def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layertrace.LAYER_METRICS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert SPEC["command"] == ["python3", "bench/run.py"]


# ---------------------------------------------------------------------------
# tiny runs pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_passes(name, tmp_path):
    w = make(name, tmp_path)
    small = {"check": lambda op: len(op["F"]) <= 4}.get(name)
    p = run.Pass()
    p.run(w, first_ops(w, small, n=4))
    assert p.failed == 0 and p.problems == [] and len(p.latencies) == 4


def test_catalog_finish_rejects_bumped_fields(tmp_path):
    assert make("catalog_verify", tmp_path).finish() == []


def test_inputs_depend_on_seed_only(tmp_path):
    a = make("covariance", tmp_path, seed=9).round(3)
    b = make("covariance", tmp_path, seed=9).round(3)
    c = make("covariance", tmp_path, seed=10).round(3)
    assert [(e, P, s) for e, P, s in a] == [(e, P, s) for e, P, s in b]
    assert a != c


# ---------------------------------------------------------------------------
# corrupted outputs are caught
# ---------------------------------------------------------------------------

def test_catalog_check_catches_flipped_verdict(tmp_path):
    w = make("catalog_verify", tmp_path)
    op = ("T2.1", None, 3)
    report = one(w, op)
    with pytest.raises(CheckFailed):
        w.check(op, dataclasses.replace(report, passed=False))
    bad = dataclasses.replace(report.checks[1], value=report.checks[1].value + 1.0)
    with pytest.raises(CheckFailed, match="determining equation"):
        w.check(op, dataclasses.replace(report, checks=(report.checks[0], bad)))


def test_catalog_check_catches_quarantine_passing(tmp_path):
    w = make("catalog_verify", tmp_path)
    op = ("T2.3", None, 4)
    report = one(w, op)
    with pytest.raises(CheckFailed):
        w.check(op, dataclasses.replace(report, passed=True))
    # the T2.3 signature is checked, not just the verdict
    ext = report.checks[1]
    with pytest.raises(CheckFailed):
        w.check(op, dataclasses.replace(
            report, checks=(report.checks[0], dataclasses.replace(ext, value=-ext.value))))


def test_catalog_bump_check_catches_admitted_field(monkeypatch):
    import numpy as np
    from liesym import symmetry

    # a program that ignores the bump and checks the kernel instead
    honest = symmetry.residual_expressions
    monkeypatch.setattr(symmetry, "residual_expressions",
                        lambda system, g: honest(system, symmetry.basis_generator(1)))
    with pytest.raises(CheckFailed, match="admitted"):
        workloads.CatalogVerify._check_bumped("T2.7", np.random.default_rng(0))


def test_covariance_check_catches_bad_ratio_and_system(tmp_path):
    w = make("covariance", tmp_path)
    op = next(o for o in w.round(0) if o[0] == "T2.1")
    system, ratios, spot = one(w, op)
    with pytest.raises(CheckFailed, match="ratio"):
        w.check(op, (system, [ratios[0], 1e-3], spot))
    untouched = catalog.get_entry("T2.1").build()
    with pytest.raises(CheckFailed, match="linear_change"):
        w.check(op, (untouched, ratios, spot))


def test_conjugate_field_matches_transform_generator():
    from liesym.odesys import Mat2
    from liesym.symmetry import Generator, LinearGenerator

    lg = LinearGenerator.from_coefficients([0.3, 0.7, 0.2, -0.4, 1.1, 0.5, -0.6, 0.9])
    P = Mat2(1.1, 0.2, -0.15, 0.95)
    via_library = workloads.conjugate_field(lg, P).expand()
    plain = lg.expand()
    by_hand = workloads.conjugate_field(Generator(plain.xi, plain.eta1, plain.eta2), P)
    for name in ("eta1", "eta2"):
        for y, z in ((0.3, 1.7), (2.0, -0.4)):
            b = {"x": 0.5, "y": y, "z": z}
            assert expr.evaluate(getattr(by_hand, name), b) == pytest.approx(
                expr.evaluate(getattr(via_library, name), b), rel=1e-12)


def test_check_check_catches_wrong_verdicts(tmp_path):
    w = make("check", tmp_path)
    ok_op, bad_op = first_ops(w, n=2)
    code, text = one(w, ok_op)
    with pytest.raises(CheckFailed, match="exit code"):
        w.check(ok_op, (2, text))
    flipped = json.loads(text)
    flipped["verdict"] = "rejected"
    with pytest.raises(CheckFailed, match="verdict"):
        w.check(ok_op, (0, json.dumps(flipped)))
    short = json.loads(text)
    del short["witness"]["zp"]
    with pytest.raises(CheckFailed, match="witness"):
        w.check(ok_op, (0, json.dumps(short)))
    code, text = one(w, bad_op)
    assert code == 2
    off = json.loads(text)
    off["value"] *= 1.01
    with pytest.raises(CheckFailed, match="dimensional analysis"):
        w.check(bad_op, (2, json.dumps(off)))


def test_normalize_check_catches_wrong_word(tmp_path):
    w = make("normalize", tmp_path)
    op = next(o for o in w.round(0) if o[1] == "J2")
    reps, jr = one(w, op)
    rep, replay, canon = reps[2]
    assert rep.word, "need a non-empty word to corrupt"
    short = dataclasses.replace(rep, word=rep.word[:-1])
    # the library's own replay of the shortened word, as a lying program
    # would report it, is caught by the series-exponential replay
    with pytest.raises(CheckFailed, match="adjoint-series"):
        w.check(op, (reps[:2] + [(short, replay, canon)], jr))
    with pytest.raises(CheckFailed):
        w.check(op, (reps, dataclasses.replace(jr, scale=2.0 * jr.scale)))
    with pytest.raises(CheckFailed, match="Jordan kind"):
        w.check(op, (reps, dataclasses.replace(jr, kind="J1")))


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def test_tracer_covers_callers_names_and_restores_them(tmp_path):
    original, differentiate = expr.zero_report_at, expr.differentiate
    tracer = layertrace.install(liesym)
    try:
        assert catalog.zero_report_at is not original
        assert liesym.symmetry.differentiate is not differentiate
        w = make("catalog_verify", tmp_path)
        p = run.Pass()
        p.run(w, first_ops(w, n=2), tracer.paused)
    finally:
        tracer.uninstall()
    assert catalog.zero_report_at is original and expr.zero_report_at is original
    assert p.problems == []
    m = tracer.metrics(1.0)
    assert [k for k in m] == [k for k, _ in layertrace.LAYER_METRICS]
    assert m["catalog.verify_entry.self_s"]["value"] > 0
    # the first two operations are T1.J1 (kernel + 3 generators), each
    # residual pair zero-tested once
    assert m["expr.zero_report_at.calls"]["value"] == 2 * 4 * 2
    assert m["expr.eval.calls"]["value"] >= 8
    assert m["residual.nodes"]["value"] >= m["residual.distinct"]["value"] > 0
    assert sum(tracer.self_s.values()) <= p.busy


def test_recursion_folds_into_the_outermost_span():
    e = expr.parse(" + ".join(f"{k} * y ^ {k}" for k in range(1, 40)))
    tracer = layertrace.install(liesym)
    try:
        expr.fold_constants(expr.differentiate(e, "y"))
    finally:
        tracer.uninstall()
    assert tracer.calls["expr.fold_constants"] == 1
    assert tracer.calls["expr.differentiate"] == 1


def test_size_counters():
    x, y = expr.sym("x"), expr.sym("y")
    shared = x * y
    e = shared + shared            # 7 tree nodes, 4 distinct subtrees
    assert layertrace.tree_nodes(e) == 7
    assert layertrace.distinct_subtrees(e) == 4
    assert layertrace.distinct_subtrees(x * y + x * y) == 4


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

def test_scaling_cancels_machine_speed():
    clock = calibrate.Clock()
    # the machine runs at half speed from t = 10 on: the reference and an
    # operation both take twice as long there
    clock.times = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
    clock.samples = [calibrate.NOMINAL_S] * 3 + [2 * calibrate.NOMINAL_S] * 3
    assert clock.scale(0.05, 0.004) == pytest.approx(0.004)
    assert clock.scale(10.05, 0.008) == pytest.approx(0.004)
    # a long operation is scaled by every sample within WINDOW of it
    assert clock.around(0.0, 10.2) == pytest.approx(1.5 * calibrate.NOMINAL_S)
    with pytest.raises(ValueError):
        clock.around(5.0, 5.1)


def test_samples_keep_pace_with_long_operations():
    clock = calibrate.Clock()
    clock.times, clock.samples = [time.perf_counter() - 5.2 * calibrate.REF_EVERY], [1.0]
    clock.maybe_sample()
    assert len(clock.samples) == 1 + 5
    clock.maybe_sample()          # just sampled: nothing is due
    assert len(clock.samples) == 1 + 5
    clock.times[-1] -= 1000 * calibrate.REF_EVERY
    clock.maybe_sample()
    assert len(clock.samples) == 1 + 5 + calibrate.MAX_BURST


def test_timed_run_reports_scaled_and_raw_timings(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 4)
    w = make("normalize", tmp_path)
    clock = calibrate.Clock()
    p, scaled, raw = run.timed_run(w, 0.0, clock)
    assert p.problems == [] and p.failed == 0 and p.attempted == w.ROUND
    assert len(clock.samples) >= 2
    assert set(scaled) == {"ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    factor = calibrate.NOMINAL_S / statistics.median(clock.samples)
    assert scaled["op_p50_ms"][0] == pytest.approx(raw["op_p50_ms"][0] * factor, rel=0.5)


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "check",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
