"""Acceptance suite: twelve end-to-end criteria, one test function each.

Each test wraps its assertions in the ``criterion`` context manager, which
records a PASS/FAIL line (with the tolerance it enforced); the conftest
terminal-summary hook prints the collected lines after the run, so the
acceptance status is readable at a glance in the pytest output.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oracles import eig2_quadratic
from test_catalog import random_unimodularish, transformed_worst

from liesym.catalog import (
    draw_params,
    entry_ids,
    general_solution_system,
    get_entry,
    instantiate,
    verify_entry,
    xi_family,
)
from liesym.expr import (
    Expr,
    differentiate,
    evaluate,
    fold_constants,
    parse,
    sym,
    zero_report_at,
)
from liesym.jordan import classify2x2
from liesym.liealg import (
    ADJOINT_SIGNS,
    AlgebraElement,
    adjoint_exp,
    apply_word,
    automorphism,
    bracket,
    canonical_vector,
    kind_to_L4_rep,
    normalize_L4,
    normalize_L6,
    normalize_L8,
    rep_violations,
)
from liesym.odesys import Mat2, OdeSystem
from liesym.symmetry import (
    LinearGenerator,
    admits,
    autonomous_residual,
    basis_generator,
    commutator_vf,
    prolong2_residual,
    residual_expressions,
)

RESULTS: dict[int, tuple[bool, str]] = {}


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        RESULTS[num] = (False, text)
        raise
    RESULTS[num] = (True, text)


# the ten nonzero basis brackets, as (i, j) -> {k: coefficient}
PRINTED_BRACKETS = {
    (1, 2): {1: 1.0},
    (3, 5): {3: 1.0},
    (3, 8): {4: 1.0},
    (4, 6): {4: 1.0},
    (4, 7): {3: 1.0},
    (5, 7): {7: -1.0},
    (5, 8): {8: 1.0},
    (6, 7): {7: 1.0},
    (6, 8): {8: -1.0},
    (7, 8): {5: -1.0, 6: 1.0},
}

# dyadic coordinates keep polynomial-field arithmetic exact in floats
_DYADIC_POINTS = [
    {"x": 0.5, "y": 1.0, "z": 2.0},
    {"x": 1.0, "y": 0.5, "z": 0.25},
    {"x": 2.0, "y": 2.0, "z": 0.5},
    {"x": 0.25, "y": 1.5, "z": 1.0},
]


def _same_field_exact(g, h):
    for b in _DYADIC_POINTS:
        for e1, e2 in ((g.xi, h.xi), (g.eta1, h.eta1), (g.eta2, h.eta2)):
            assert evaluate(e1, b) == evaluate(e2, b)


def test_c01_commutator_table_dual_route():
    with criterion(1, "commutator table: all 10 printed brackets via structure "
                      "constants AND vector-field differentiation (exact); "
                      "antisymmetry + Jacobi over all 8^3 triples (exact); "
                      "< 1 s"):
        started = time.perf_counter()
        X = {i: AlgebraElement.basis(i) for i in range(1, 9)}
        for (i, j), entries in PRINTED_BRACKETS.items():
            want = [0.0] * 8
            for k, v in entries.items():
                want[k - 1] = v
            assert bracket(X[i], X[j]).c == tuple(want), f"[X{i}, X{j}]"
            vf = commutator_vf(basis_generator(i), basis_generator(j))
            expected = LinearGenerator.from_coefficients(want).expand()
            _same_field_exact(vf, expected)
        for i in range(1, 9):
            for j in range(1, 9):
                ij = bracket(X[i], X[j])
                ji = bracket(X[j], X[i])
                assert ij.c == tuple(-v for v in ji.c)
                for k in range(1, 9):
                    total = [
                        a + b + c for a, b, c in zip(
                            bracket(ij, X[k]).c,
                            bracket(bracket(X[j], X[k]), X[i]).c,
                            bracket(bracket(X[k], X[i]), X[j]).c)
                    ]
                    assert total == [0.0] * 8, (i, j, k)
        assert time.perf_counter() - started < 1.0


def test_c02_action_families():
    with criterion(2, "action families: 3 entries x kappa in {0,-1,+1} x 2 "
                      "draws; kernel + every listed generator at rel < 1e-8 "
                      "on 200 points; < 20 s"):
        started = time.perf_counter()
        ctr = 0
        for entry_id in ("T1.J1", "T1.J2", "T1.J3"):
            for kappa in (0.0, -1.0, 1.0):
                for _ in range(2):
                    ctr += 1
                    p = draw_params(entry_id, rng=300 + 7 * ctr)
                    p["kappa"] = kappa
                    rep = verify_entry(entry_id, p, tol=1e-8, n=200, seed=ctr)
                    assert rep.passed and rep.worst() < 1e-8, (
                        entry_id, kappa, rep.worst())
        assert ctr == 18
        assert time.perf_counter() - started < 20.0


def test_c03_kernel_extension_rows():
    with criterion(3, "extension rows: 9 verifiable rows x 3 profile draws at "
                      "rel < 1e-8 (spiral/polar rows sampled via (u, v)); "
                      "T2.3 quarantined with failure signature r1 = -2*G, "
                      "r2 = +2*F confirmed at < 1e-9"):
        rows = [f"T2.{k}" for k in range(1, 11)]
        for entry_id in rows:
            entry = get_entry(entry_id)
            if entry.quarantined:
                continue
            for d in range(3):
                p = draw_params(entry_id, rng=900 + 13 * d)
                rep = verify_entry(entry_id, p, tol=1e-8, n=200, seed=d)
                assert rep.passed, (entry_id, d, rep.worst())
        # rows parameterized implicitly sample their (u, v) boxes directly
        for entry_id in ("T2.3", "T2.4", "T2.5", "T2.6"):
            assert get_entry(entry_id).pushforward is not None
        # the quarantined row: generator listed, residuals provably wrong
        entry = get_entry("T2.3")
        assert entry.quarantined
        p = entry.resolve()
        system = entry.build(p)
        ((_, gen),) = entry.labeled_generators(p)
        r1, r2 = residual_expressions(system, gen)
        pts = entry.sample_points(p, n=150, seed=1)
        assert zero_report_at(fold_constants(r1 + 2.0 * system.G), pts).ok
        assert zero_report_at(fold_constants(r2 - 2.0 * system.F), pts).ok
        assert not verify_entry("T2.3").passed


def test_c04_separable_families():
    with criterion(4, "separable families: every entry, 1 admissible draw; "
                      "defining + extension at rel < 1e-8; quarantine and "
                      "subfamily caveats present in README"):
        t3 = [e for e in entry_ids() if e.startswith("T3.")]
        assert len(t3) == 21
        for k, entry_id in enumerate(t3):
            p = draw_params(entry_id, rng=1200 + 31 * k)
            rep = verify_entry(entry_id, p, tol=1e-8, n=200, seed=5)
            assert rep.passed, (entry_id, rep.worst())
            labels = [c.label for c in rep.checks]
            assert "defining" in labels and "extension" in labels
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "T2.3" in readme and "quarantin" in readme.lower()
        assert "S5a" in readme and "gamma = 1/2" in readme


def _random_profile(rng) -> Expr:
    u = sym("u")
    mag = rng.uniform(0.3, 1.2, 3)
    sign = np.where(rng.uniform(size=3) < 0.5, -1.0, 1.0)
    c = mag * sign
    return c[0] * u ** (-2.0) + c[1] * u + c[2] * u * u


def test_c05_reduced_general_solution():
    with criterion(5, "reduced general solution: 20 random (a, b, c, f, g) "
                      "satisfy 3F + y*F_y + z*F_z = a*y + b and the z-analog "
                      "at rel < 1e-9"):
        rng = np.random.default_rng(5)
        y, z = sym("y"), sym("z")
        done = 0
        while done < 20:
            a, b, c = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
            try:
                system = general_solution_system(
                    a, b, c, _random_profile(rng), _random_profile(rng))
            except ValueError:
                continue  # astronomically rare degenerate draw
            pts = {"y": rng.uniform(0.3, 2.5, 150),
                   "z": rng.uniform(0.3, 2.5, 150)}
            for rhs, lin, low in ((system.F, y, b), (system.G, z, c)):
                resid = fold_constants(
                    3.0 * rhs + y * differentiate(rhs, "y")
                    + z * differentiate(rhs, "z") - a * lin - low)
                assert zero_report_at(resid, pts, tol=1e-9).ok
            done += 1


def test_c06_x_profile_basis():
    with criterion(6, "x-profile basis: xi''' - a*xi' vanishes at < 1e-10 for "
                      "a in {0, -4, 4}; the a = -4/+4 members equal the "
                      "trig/exp profile coefficients at < 1e-12"):
        xs = np.linspace(-2.0, 2.0, 41)
        for a in (0.0, -4.0, 4.0):
            for member in xi_family(a):
                d1 = differentiate(member, "x")
                d3 = differentiate(differentiate(d1, "x"), "x")
                resid = fold_constants(d3 - a * d1)
                worst = max(abs(evaluate(resid, {"x": float(x)})) for x in xs)
                assert worst < 1e-10, (a, worst)
        grid = np.linspace(0.1, 2.0, 17)

        def col(e):
            return np.array([evaluate(e, {"x": float(x)}) for x in grid])

        entry = get_entry("T1.J3")
        for kappa, a in ((-1.0, -4.0), (1.0, 4.0)):
            p = entry.resolve({"kappa": kappa})
            fam = [col(m) for m in xi_family(a)[1:]]
            profile_gens = [g for lbl, g in entry.labeled_generators(p)
                            if lbl != "shear-action"]
            assert len(profile_gens) == 2
            for g in profile_gens:
                assert any(np.max(np.abs(col(g.xi) - f)) < 1e-12 for f in fam)


def _random_vector(rng, lo_idx: int) -> AlgebraElement:
    c = np.zeros(8)
    c[lo_idx:] = rng.uniform(-2.0, 2.0, 8 - lo_idx)
    if rng.uniform() < 0.35:
        mask = rng.uniform(size=8 - lo_idx) < 0.5
        c[lo_idx:][mask] = 0.0
    return AlgebraElement(tuple(float(v) for v in c))


def test_c07_normalizers():
    with criterion(7, "normalizers: 1000 random vectors per algebra land in "
                      "the published family lists (0 range violations); word "
                      "replay reproduces scale * canonical at < 1e-12; "
                      "scaling-family choice matches the Jordan classifier "
                      "1000/1000"):
        rng = np.random.default_rng(7)
        for fn, lo_idx in ((normalize_L4, 4), (normalize_L6, 2),
                           (normalize_L8, 0)):
            for _ in range(1000):
                e = _random_vector(rng, lo_idx)
                rep = fn(e)
                assert rep_violations(rep) == []
                replay = apply_word(rep.word, e)
                canon = canonical_vector(rep)
                bound = 1e-12 * (1.0 + abs(rep.scale) + e.norm())
                worst = max(abs(a - rep.scale * b)
                            for a, b in zip(replay.c, canon.c))
                assert worst <= bound, (rep.algebra, rep.family, worst)
        agreements = 0
        while agreements < 1000:
            e = _random_vector(rng, 4)
            if e.norm() < 1e-9:
                continue
            fn_family = normalize_L4(e).family
            c = e.c
            jordan_family = kind_to_L4_rep(classify2x2(
                Mat2(c[4], c[6], c[7], c[5]))).family
            assert fn_family == jordan_family, (c, fn_family, jordan_family)
            agreements += 1


def test_c08_automorphism_flows():
    with criterion(8, "automorphisms: 8 directions x 50 random flows match "
                      "the signed adjoint exponential at < 1e-9; the c7*c8 "
                      "product (flows 5, 6) and c5+c6 sum (flows 7, 8) are "
                      "invariant at < 1e-12"):
        rng = np.random.default_rng(8)
        for i in range(1, 9):
            sign = ADJOINT_SIGNS[i - 1]
            for _ in range(50):
                t = float(rng.uniform(-1.2, 1.2))
                e = AlgebraElement.from_coeffs(rng.uniform(-2.0, 2.0, 8))
                got = automorphism(i, t, e)
                want = adjoint_exp(i, sign * t, e)
                worst = max(abs(a - b) for a, b in zip(got.c, want.c))
                assert worst < 1e-9 * (1.0 + e.norm()), (i, t, worst)
                if i in (5, 6):
                    before, after = e.c[6] * e.c[7], got.c[6] * got.c[7]
                    assert abs(after - before) < 1e-12 * (1.0 + abs(before))
                if i in (7, 8):
                    before, after = e.c[4] + e.c[5], got.c[4] + got.c[5]
                    assert abs(after - before) < 1e-12 * (1.0 + abs(before))


def test_c09_jordan_layer():
    with criterion(9, "Jordan layer: 1000 random matrices reconstruct "
                      "P A P^-1 = scale * J at < 1e-9 and agree with the "
                      "discriminant oracle; designed inputs produce all "
                      "three shapes"):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            vals = rng.uniform(-3.0, 3.0, 4)
            M = Mat2(*(float(v) for v in vals))
            result = classify2x2(M)
            assert result.reconstruction_error(M) < 1e-9
            kind, p1, p2 = eig2_quadratic(*vals)
            disc_scale = 1e-6 * (1.0 + float(np.max(np.abs(vals))) ** 2)
            if kind == "complex" and p2 > disc_scale:
                assert result.kind == "J2"
            elif kind == "real" and p1 - p2 > disc_scale:
                assert result.kind == "J1"
        assert classify2x2(Mat2.diag(2.0, 3.0)).kind == "J1"
        assert classify2x2(Mat2(1.0, 2.0, -2.0, 1.0)).kind == "J2"
        assert classify2x2(Mat2(1.0, 1.0, 0.0, 1.0)).kind == "J3"


def test_c10_equivalence_covariance():
    with criterion(10, "equivalence covariance: 50 random (entry, nonsingular "
                       "P) keep all transformed generators admitted by the "
                       "transformed system at rel < 1e-8"):
        rng = np.random.default_rng(10)
        usable = [e for e in entry_ids() if not get_entry(e).quarantined]
        for k in range(50):
            entry_id = usable[k % len(usable)]
            P = random_unimodularish(rng)
            worst = transformed_worst(entry_id, P, n=120, seed=k)
            assert worst < 1e-8, (entry_id, worst)


def test_c11_residual_route_equality():
    with criterion(11, "residual routes: full second prolongation equals the "
                       "velocity-free autonomous form at < 1e-10 for 100 "
                       "random affine fields on catalog systems"):
        rng = np.random.default_rng(11)
        eids = ["T1.J1", "T1.J2", "T1.J3", "T2.1", "T2.2", "T2.7",
                "T3.S1a", "T3.S2", "T3.S5b", "T3.S6"]
        checked = 0
        for j, entry_id in enumerate(eids):
            p = draw_params(entry_id, rng=600 + j)
            system, _ = instantiate(entry_id, p)
            assert system.is_autonomous
            for k in range(10):
                c = [float(v) for v in rng.uniform(-1.5, 1.5, 8)]
                lg = LinearGenerator.from_coefficients(c)
                pts = get_entry(entry_id).sample_points(p, n=1, seed=700 + k)
                pt5 = tuple(float(pts[nm][0])
                            for nm in ("x", "y", "z", "yp", "zp"))
                full = prolong2_residual(system, lg, pt5)
                auto = autonomous_residual(system, lg.k2, lg.A,
                                           (c[2], c[3]), pt5[:3])
                for rf, ra in zip(full, auto):
                    assert abs(rf - ra) <= 1e-10 * (1.0 + abs(ra)), (
                        entry_id, c, rf, ra)
                checked += 1
        assert checked == 100


def _control_rejected(entry_id: str, gen, seed: int):
    entry = get_entry(entry_id)
    p = entry.resolve()
    system = entry.build(p)
    pts = entry.sample_points(p, n=120, seed=seed)
    worst, witness = 0.0, None
    for r in residual_expressions(system, gen):
        rep = zero_report_at(r, pts)
        if rep.max_ratio >= worst:
            worst, witness = rep.max_ratio, rep.witness
    return worst, witness


def test_c12_negative_controls():
    with criterion(12, "negative controls: 20 deliberately wrong pairs all "
                       "rejected (worst rel residual > 1e-6), each with a "
                       "5-coordinate witness point"):
        rejected = 0
        exp_system = OdeSystem(parse("exp(y)"), parse("exp(z)"))
        for gen in (basis_generator(2), basis_generator(5)):
            verdict = admits(exp_system, gen)
            assert not verdict.admitted and verdict.max_ratio > 1e-6
            assert len(verdict.witness) == 5
            rejected += 1
        rotation = LinearGenerator.from_coefficients(
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0])
        for entry_id in ("T1.J1", "T1.J3", "T2.1", "T2.2", "T2.7", "T2.8",
                         "T2.9", "T2.10", "T3.S2"):
            worst, witness = _control_rejected(entry_id, rotation,
                                               seed=rejected)
            assert worst > 1e-6, (entry_id, worst)
            assert witness is not None and len(witness) == 5
            rejected += 1
        bumps = {"T1.J1": 4, "T1.J2": 4, "T1.J3": 4,   # action matrix slot
                 "T2.1": 1, "T2.2": 1, "T2.4": 1,      # x-scaling slot
                 "T3.S1a": 2, "T3.S2": 2, "T3.S6": 2}  # y-translation slot
        for entry_id, slot in bumps.items():
            entry = get_entry(entry_id)
            p = entry.resolve()
            label, gen = entry.labeled_generators(p)[-1]
            c = list(gen.to_coefficients())
            c[slot] += 0.1
            worst, witness = _control_rejected(
                entry_id, LinearGenerator.from_coefficients(c), seed=rejected)
            assert worst > 1e-6, (entry_id, label, worst)
            assert witness is not None and len(witness) == 5
            rejected += 1
        assert rejected == 20
