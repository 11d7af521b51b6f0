"""Tests for the prolongation / residual / admissibility layer.

The independent oracle here is a flow-and-rediscretize check: transport an
RK4 solution curve by the near-identity point map of a field, measure the
defect of the transported curve directly with finite differences, and
compare the first-order-in-epsilon slope of that defect against
prolong2_residual.  That validates the symbolic prolongation without
reusing any of its machinery.
"""

import math
import re
import warnings

import numpy as np
import pytest
from pytest import approx
from hypothesis import given, settings
from hypothesis import strategies as st

import liesym.expr as ex
from liesym import catalog, liealg, symmetry
from liesym.expr import SamplingDomain, evaluate, parse
from liesym.odesys import Mat2, OdeSystem, linear_change
from liesym.symmetry import (Generator, LinearGenerator, admits,
                             autonomous_residual, basis_generator,
                             commutator_vf, default_domain,
                             determining_generator, determining_matrix,
                             determining_residual,
                             generator_from_json, generator_to_json,
                             prolong2_residual, residual_expressions,
                             system_from_json, transform_generator)

from oracles import (reference_fold, reference_residuals, reference_total,
                     rk4_second_order)

# A pair with an exponential right-hand side: admits translation in x but
# almost nothing else — good for nonzero residuals.
EXP_SYS = OdeSystem(parse("exp(y)"), parse("exp(z)"))

# A scale-invariant pair: stretching x by e^2t, y by e^2t and z by e^t maps
# solutions to solutions, so it admits x d/dx + y d/dy + z/2 d/dz.
POW_SYS = OdeSystem(parse("z^(-2)"), parse("z^(-3)"))
POW_GEN = LinearGenerator(0.0, 0.5, Mat2.diag(1.0, 0.5))


def _gen_values(g, x, y, z):
    b = {"x": x, "y": y, "z": z}
    return (evaluate(g.xi, {"x": x}), evaluate(g.eta1, b), evaluate(g.eta2, b))


def _assert_gen_close(got, want, pts=((0.7, 1.3, 2.1), (-0.4, 0.6, -1.8)),
                      tol=1e-12):
    for (x, y, z) in pts:
        a = _gen_values(got, x, y, z)
        b = _gen_values(want, x, y, z)
        for u, v in zip(a, b):
            assert abs(u - v) <= tol * (1.0 + abs(v))


class TestGeneratorConstruction:
    def test_coercion_from_strings_and_numbers(self):
        g = Generator("sin(x)", 2, "y*z")
        assert _gen_values(g, 0.5, 3.0, 4.0) == approx((math.sin(0.5), 2.0, 12.0))

    def test_xi_must_depend_on_x_only(self):
        with pytest.raises(ValueError, match="xi"):
            Generator("y", 0, 0)

    def test_eta_rejects_velocities(self):
        with pytest.raises(ValueError):
            Generator(0, "yp", 0)

    def test_unbound_parameters_rejected(self):
        with pytest.raises(ValueError, match="bind parameters"):
            Generator(0, "a*y", 0)

    def test_arithmetic_sugar(self):
        g = basis_generator(5) + 2.0 * basis_generator(7)
        assert _gen_values(g, 0.0, 3.0, 4.0) == approx((0.0, 3.0 + 8.0, 0.0))
        h = basis_generator(1) - basis_generator(2)
        assert _gen_values(h, 5.0, 0.0, 0.0)[0] == approx(1.0 - 5.0)

    def test_basis_fields(self):
        expected = {
            1: lambda x, y, z: (1.0, 0.0, 0.0),
            2: lambda x, y, z: (x, 0.0, 0.0),
            3: lambda x, y, z: (0.0, 1.0, 0.0),
            4: lambda x, y, z: (0.0, 0.0, 1.0),
            5: lambda x, y, z: (0.0, y, 0.0),
            6: lambda x, y, z: (0.0, 0.0, z),
            7: lambda x, y, z: (0.0, z, 0.0),
            8: lambda x, y, z: (0.0, 0.0, y),
        }
        for i, fn in expected.items():
            g = basis_generator(i)
            for (x, y, z) in ((0.3, 1.7, -2.2), (1.1, -0.4, 0.9)):
                assert _gen_values(g, x, y, z) == approx(fn(x, y, z))
        with pytest.raises(ValueError):
            basis_generator(9)

    def test_expand_doubles_the_x_part(self):
        g = LinearGenerator(1.5, 0.0, Mat2.zero()).expand()
        assert evaluate(g.xi, {"x": 0.7}) == approx(3.0)
        g = LinearGenerator(0.0, 0.5, Mat2.zero()).expand()
        assert evaluate(g.xi, {"x": 0.7}) == approx(0.7)

    def test_expand_matches_coefficient_combination(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = rng.uniform(-2.0, 2.0, size=8)
            lg = LinearGenerator.from_coefficients(c)
            combo = c[0] * basis_generator(1)
            for i in range(1, 8):
                combo = combo + c[i] * basis_generator(i + 1)
            _assert_gen_close(lg.expand(), combo)

    def test_coefficients_roundtrip(self):
        c = (2.0, -1.0, 0.25, 3.0, 1.5, -0.5, 0.75, -2.25)
        assert LinearGenerator.from_coefficients(c).to_coefficients() == c

    def test_coefficient_conventions(self):
        assert (LinearGenerator(1.0, 0.0, Mat2.zero()).to_coefficients()
                == (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        c = LinearGenerator(0.0, 0.0, Mat2.diag(1.0, 0.25)).to_coefficients()
        assert c == (0.0,) * 4 + (1.0, 0.25, 0.0, 0.0)
        c = LinearGenerator(0.0, 0.0, Mat2(0.0, 1.0, -1.0, 0.0)).to_coefficients()
        assert c[6] == 1.0 and c[7] == -1.0

    def test_varying_zeta_has_no_coefficients(self):
        lg = LinearGenerator(0.0, 0.0, Mat2.zero(), ("x", 0.0))
        with pytest.raises(ValueError, match="not constant"):
            lg.to_coefficients()

    def test_from_coefficients_arity(self):
        with pytest.raises(ValueError):
            LinearGenerator.from_coefficients([1.0] * 7)

    def test_json_roundtrip(self):
        g = Generator("sin(x)", "x*y", "0")
        assert isinstance(generator_from_json(generator_to_json(g)), Generator)
        _assert_gen_close(generator_from_json(generator_to_json(g)), g)
        lg = LinearGenerator(0.0, 0.5, Mat2.diag(1.0, 0.5), (1.0, "cos(x)"))
        back = generator_from_json(generator_to_json(lg))
        assert isinstance(back, LinearGenerator)
        _assert_gen_close(back.expand(), lg.expand())

    def test_json_coefficient_and_partial_shapes(self):
        g = generator_from_json({"coefficients": [1, 0, 0, 0, 1, 0.5, 0, 0]})
        assert isinstance(g, LinearGenerator)
        assert g.to_coefficients() == (1.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0)
        # missing components are 0
        _assert_gen_close(generator_from_json({"eta1": "y"}), Generator("0", "y", "0"))
        _assert_gen_close(generator_from_json({"xi": "x", "eta2": 2}),
                          Generator("x", "0", "2"))

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError, match=r"unknown keys .*\['eta9'\]"):
            generator_from_json({"xi": "1", "eta9": "y"})
        with pytest.raises(ValueError, match="exactly one of"):
            generator_from_json({"xi": "1", "coefficients": [0.0] * 8})
        with pytest.raises(ValueError, match="exactly one of"):
            generator_from_json({"linear": {"A": [[1, 0], [0, 1]]},
                                 "coefficients": [0.0] * 8})
        with pytest.raises(ValueError, match="exactly one of"):
            generator_from_json({})
        with pytest.raises(ValueError):
            generator_from_json({"xi": "0", "eta1": "0", "eta2": "0", "extra": 1})
        with pytest.raises(ValueError):
            generator_from_json({"linear": {"k1": 0.0}})
        with pytest.raises(ValueError, match="'A' must be two rows of two numbers"):
            generator_from_json({"linear": {"A": 5}})
        with pytest.raises(ValueError, match="list of 8 numbers"):
            generator_from_json({"coefficients": "12345678"})
        with pytest.raises(TypeError, match="got bool"):
            generator_from_json({"xi": True})
        with pytest.raises(ValueError, match="finite"):
            generator_from_json({"xi": float("nan")})
        with pytest.raises(ValueError, match="finite"):
            generator_from_json({"linear": {"k1": float("inf"), "A": [[0, 0], [0, 0]]}})
        for bad in ([True] + [0] * 7, ["1"] + [0] * 7, [0] * 7):
            with pytest.raises(ValueError, match="list of 8 numbers"):
                generator_from_json({"coefficients": bad})
        for name, bad in (("k1", True), ("k2", "0.5")):
            with pytest.raises(ValueError, match="'k1' and 'k2' must be numbers"):
                generator_from_json({"linear": {name: bad, "A": [[0, 0], [0, 0]]}})
        for A in ([[True, 0], [0, 1]], [["1", 0], [0, 1]]):
            with pytest.raises(ValueError, match="'A' must be two rows of two numbers"):
                generator_from_json({"linear": {"A": A}})

    @pytest.mark.parametrize("obj, message", [
        ([0, 1], "generator JSON must be an object"),
        ({"linear": [[1, 0], [0, 1]]}, "'linear' must be an object"),
        ({"linear": {"A": [[1, 0], [0, 1]], "B": 1}}, r"unknown keys in 'linear': \['B'\]"),
        ({"linear": {"A": [[1, 0], [0, 1]], "zeta": [0]}}, "'zeta' must have exactly two entries"),
        ({"linear": {"A": [[1, 0], [0, 1]], "zeta": "y"}}, "'zeta' must have exactly two entries"),
    ], ids=["not-an-object", "linear-not-an-object", "unknown-linear-key",
            "short-zeta", "string-zeta"])
    def test_json_rejects_malformed_shapes(self, obj, message):
        with pytest.raises(ValueError, match=message):
            generator_from_json(obj)


class TestSystemFromJson:
    def test_params_are_substituted(self):
        s = system_from_json({"F": "a * z^(-2)", "G": "b * z^(-3)",
                              "params": {"a": 2, "b": -0.5, "unused": 7.0}})
        assert (s.F, s.G) == (parse("2 * z^(-2)"), parse("(-0.5) * z^(-3)"))
        assert system_from_json({"F": 0, "G": -1.5}).resolved() == (parse("0"),
                                                                    parse("-1.5"))
        # keys outside F, G and params are ignored
        assert system_from_json({"F": "y", "G": "z", "note": 1}).F == parse("y")

    @pytest.mark.parametrize("obj, message", [
        ([1, 2], "system JSON must be an object"),
        ({"F": "y"}, "missing right-hand side 'G'"),
        ({"G": "z"}, "missing right-hand side 'F'"),
        ({"F": "y", "G": "z", "params": [1]}, "params must be an object of name: number"),
        ({"F": "a*y", "G": "z", "params": {"a": True}},
         "param 'a' must be a finite number, got true"),
        ({"F": "a*y", "G": "z", "params": {"a": "2"}},
         "param 'a' must be a finite number, got \"2\""),
        ({"F": "a*y", "G": "z", "params": {"a": float("inf")}},
         "param 'a' must be a finite number, got Infinity"),
        ({"F": "y", "G": "z", "params": {"yp": 1.0}},
         r"parameters may not shadow reserved names \['yp'\]"),
        ({"F": "x * y", "G": "z", "params": {"x": 2, "z": 1}},
         r"parameters may not shadow reserved names \['x', 'z'\]"),
        ({"F": "a * y", "G": "b + z", "params": {"a": 1}}, r"unbound symbols \['b'\]"),
        ({"F": "yp", "G": "z"}, r"must not contain \['yp'\]"),
        ({"F": "y", "G": float("nan")}, "G must be a finite number"),
    ], ids=["not-an-object", "no-G", "no-F", "params-not-an-object", "bool-param",
            "string-param", "inf-param", "yp-param", "variable-params", "unbound",
            "velocity", "nan-G"])
    def test_rejects_malformed(self, obj, message):
        with pytest.raises(ValueError, match=message):
            system_from_json(obj)

    def test_rejects_non_expression_rhs(self):
        with pytest.raises(TypeError, match="F must be an Expr, a string, or a number"):
            system_from_json({"F": [1], "G": "z"})


# ---------------------------------------------------------------------------
# Prolongation: frozen values and the flow oracle
# ---------------------------------------------------------------------------

class TestProlongationFrozen:
    def test_scaling_on_exponential_pair(self):
        # Derived by hand: for y d/dy on y''=e^y, z''=e^z the first defect is
        # e^y (1 - y) (zero-crossing at y = 1) and the second is identically 0.
        g = basis_generator(5)
        r1, r2 = prolong2_residual(EXP_SYS, g, (0.0, 2.0, 1.0, 0.0, 0.0))
        assert r1 == approx(-math.e ** 2, rel=1e-12)
        assert r2 == approx(0.0, abs=1e-14)
        r1, _ = prolong2_residual(EXP_SYS, g, (0.0, 1.0, 1.0, 0.0, 0.0))
        assert r1 == approx(0.0, abs=1e-12)
        for y0 in (0.3, 1.7):
            r1, _ = prolong2_residual(EXP_SYS, g, (0.0, y0, 1.0, 0.0, 0.0))
            assert r1 == approx(math.exp(y0) * (1.0 - y0), rel=1e-12)

    def test_affine_defect_ignores_velocities(self):
        g = basis_generator(5)
        r_still = prolong2_residual(EXP_SYS, g, (0.0, 2.0, 1.0, 0.0, 0.0))
        r_moving = prolong2_residual(EXP_SYS, g, (0.0, 2.0, 1.0, 0.8, -0.6))
        assert r_moving == approx(r_still, rel=1e-12)

    def test_translation_defect_vanishes(self):
        r1, r2 = prolong2_residual(EXP_SYS, basis_generator(1),
                                   (0.4, 1.2, 0.7, 0.3, -0.2))
        assert (r1, r2) == approx((0.0, 0.0), abs=1e-14)


def _pushforward_slope(sys, gen, x0, state0, eps=1e-4, h=1e-2):
    """Central-in-eps slope of the transported-curve defect at x0.

    Integrates the system through x0 with RK4, pushes the sampled curve
    through the eps-flow of ``gen``, re-derives the transported curve's
    second derivatives by parametric finite differences, and differences
    the defect across +/-eps.
    """
    F, G = sys.resolved()

    def rhsF(x, y, z, yp, zp):
        return evaluate(F, {"x": x, "y": y, "z": z})

    def rhsG(x, y, z, yp, zp):
        return evaluate(G, {"x": x, "y": y, "z": z})

    ts = [x0 + h * j for j in range(-2, 3)]
    states = [rk4_second_order(rhsF, rhsG, state0, x0, t, steps=60) for t in ts]

    def defect(e):
        xt = np.array([t + e * evaluate(gen.xi, {"x": t}) for t in ts])
        yt = np.array([s[0] + e * evaluate(gen.eta1, {"x": t, "y": s[0], "z": s[1]})
                       for t, s in zip(ts, states)])
        zt = np.array([s[1] + e * evaluate(gen.eta2, {"x": t, "y": s[0], "z": s[1]})
                       for t, s in zip(ts, states)])

        def d1(f):
            return (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)

        def d2(f):
            return (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)

        xp_, xs = d1(xt), d2(xt)

        def second(ft):
            # parametric second derivative d^2 f / d xt^2
            return (d2(ft) * xp_ - d1(ft) * xs) / xp_ ** 3

        b = {"x": xt[2], "y": yt[2], "z": zt[2]}
        return (second(yt) - evaluate(F, b), second(zt) - evaluate(G, b))

    dp, dm = defect(eps), defect(-eps)
    return ((dp[0] - dm[0]) / (2.0 * eps), (dp[1] - dm[1]) / (2.0 * eps))


class TestProlongationFlowOracle:
    def test_scaling_on_exponential_pair(self):
        gen = basis_generator(5)
        state0 = (2.0, 1.0, 0.3, -0.4)
        slope = _pushforward_slope(EXP_SYS, gen, 0.0, state0)
        want = prolong2_residual(EXP_SYS, gen, (0.0,) + state0[:2] + state0[2:])
        assert slope[0] == approx(want[0], rel=1e-4)
        assert slope[1] == approx(want[1], abs=1e-5)
        assert slope[0] == approx(-math.e ** 2, rel=1e-4)

    def test_generic_field_on_nonautonomous_system(self):
        sys = OdeSystem(parse("exp(y)+x*z"), parse("y*z+sin(x)"))
        gen = Generator("sin(x)", "x*y", "z^2")
        x0, state0 = 0.8, (1.1, 0.7, 0.2, -0.5)
        slope = _pushforward_slope(sys, gen, x0, state0)
        want = prolong2_residual(sys, gen, (x0,) + state0)
        assert slope[0] == approx(want[0], rel=1e-4)
        assert slope[1] == approx(want[1], rel=1e-4)

    def test_admitted_pair_has_zero_slope(self):
        slope = _pushforward_slope(POW_SYS, POW_GEN.expand(), 0.5,
                                   (1.2, 0.9, 0.1, -0.2))
        assert abs(slope[0]) < 1e-5
        assert abs(slope[1]) < 1e-5


# ---------------------------------------------------------------------------
# Residual derivation: built folded, equal to the operator-built reference
# ---------------------------------------------------------------------------

def _expanded(g):
    return g.expand() if isinstance(g, LinearGenerator) else g


def _row_cases():
    """Every catalog row at its defaults and at draw_params(id, s), s = 0..3,
    with the x-translation and each listed generator."""
    for eid in catalog.entry_ids():
        entry = catalog.get_entry(eid)
        for params in [entry.resolve()] + [catalog.draw_params(eid, rng=s)
                                           for s in range(4)]:
            system = entry.build(params)
            gens = [basis_generator(1)] + [g for _, g in entry.labeled_generators(params)]
            for g in gens:
                yield f"{eid} {params}", system, _expanded(g)


def _covariance_cases(seed=1):
    """Round 0 of the benchmark's covariance workload at ``seed``: every
    verifiable row at its defaults, pushed through a seeded P near I (the
    draws of ``bench/workloads.py``), with each field conjugated by P."""
    rng = np.random.default_rng([seed, 0])
    for eid in catalog.entry_ids():
        if eid == "T2.3":   # quarantined in the benchmark
            continue
        while True:
            m = np.eye(2) + rng.choice([-1.0, 1.0], (2, 2)) * rng.uniform(0.05, 0.25, (2, 2))
            if abs(np.linalg.det(m)) >= 0.5:
                break
        rng.integers(2**31)   # the sample seed, unused here
        P = Mat2.from_array(m)
        entry = catalog.get_entry(eid)
        params = entry.resolve()
        system = linear_change(entry.build(params), P)
        Q = np.linalg.inv(m)
        y, z = ex.sym("y"), ex.sym("z")
        back = {"y": Q[0, 0] * y + Q[0, 1] * z, "z": Q[1, 0] * y + Q[1, 1] * z}
        for _, g in [("kernel", basis_generator(1))] + entry.labeled_generators(params):
            if isinstance(g, LinearGenerator):
                g = transform_generator(g, P).expand()
            else:
                e1, e2 = ex.substitute(g.eta1, back), ex.substitute(g.eta2, back)
                g = Generator(g.xi, P.a11 * e1 + P.a12 * e2, P.a21 * e1 + P.a22 * e2)
            yield f"{eid} P={m.tolist()}", system, g


def _laurent_cases():
    """Homogeneous Laurent sums like the ``check`` workload's, against their
    scaling field written as (x, y / alpha, z / alpha) and a mis-scaled one."""
    rng = np.random.default_rng(5)
    for k in (3, 11, 32):
        d = float(rng.uniform(-3.0, 0.5))

        def text():
            exps = rng.permutation([i % 7 - 3 for i in range(k)])
            coefs = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0, k)
            return " + ".join(f"{float(c)!r} * y ^ ({a}) * z ^ ({d - a!r})"
                              for c, a in zip(coefs, exps.tolist()))

        system = OdeSystem(parse(text()), parse(text()))
        alpha = (1.0 - d) / 2.0
        for beta in (1.0 / alpha, 1.3 / alpha):
            yield f"laurent k={k} beta={beta}", system, Generator(
                "x", f"{beta!r} * y", f"{beta!r} * z")


def _signed_zero_cases():
    """Fields whose components lack y or z, several carrying a signed zero in
    their right spine (``1 - 1`` unfolded, ``-(0)``, ``0 - 0``), on systems
    that lack a variable too."""
    systems = [OdeSystem(parse("y - 1"), parse("-(0)")),
               OdeSystem(parse("-(z^2)"), parse("x - 1")),
               OdeSystem(parse("0 - y*z"), parse("exp(y) - 0")),
               POW_SYS, EXP_SYS]
    fields = [Generator("1 - 1", "-(0)", "-(x)"),
              Generator("x", "0 - y", "1 - z"),
              Generator("-(x - x)", "y - 0", "-(1)"),
              Generator("0 - 0", "x - 1", "-(y)"),
              Generator("-(0)", "-(z)", "x*x - x*x"),
              LinearGenerator(-0.0, 0.0, Mat2(-0.0, 0.0, 0.0, -0.0), ("0 - 0", "-(0)")),
              LinearGenerator(0.5, -0.0, Mat2(0.0, -1.0, 0.0, -0.0), ("-(x)", "1 - 1")),
              determining_generator("1 - 1", zeta=("0 - 0", "-(x)")),
              determining_generator("x - x", Mat2(-0.0, 1.0, 0.0, 0.0), ("-(0)", "x")),
              basis_generator(1), basis_generator(3), basis_generator(8)]
    for i, system in enumerate(systems):
        for j, g in enumerate(fields):
            yield f"system {i} field {j}", system, _expanded(g)


class TestResidualDerivation:
    """``residual_expressions`` folds every derivative on its own and
    combines the folded pieces; the reference builds the operator tree the
    formula writes and folds it.  Folding is a bottom-up map, so the two are
    one node."""

    @pytest.mark.parametrize("cases", [_row_cases, _covariance_cases, _laurent_cases,
                                       _signed_zero_cases],
                             ids=["rows", "covariance", "laurent", "signed-zero"])
    def test_residuals_are_the_reference_nodes(self, cases):
        n = 0
        for label, system, g in cases():
            got = residual_expressions(system, g)
            want = reference_residuals(system, g)
            assert got[0] is want[0] and got[1] is want[1], label
            n += 1
        assert n > 0

    @pytest.mark.parametrize("cases", [_row_cases, _covariance_cases, _signed_zero_cases],
                             ids=["rows", "covariance", "signed-zero"])
    def test_total_derivatives_skip_absent_variables(self, cases, monkeypatch):
        # X(F) and X(G) still differentiate F and G by every variable: a
        # constant coefficient keeps the sign of the zero there.  Every other
        # call comes from a total derivative, which differentiates by y or z
        # only an expression that contains it.
        calls = []
        real = symmetry.differentiate

        def counted(e, var):
            calls.append((e, var))
            return real(e, var)

        monkeypatch.setattr(symmetry, "differentiate", counted)
        skipped = 0
        for label, system, g in cases():
            calls.clear()
            rhs = set(system.resolved())
            residual_expressions(system, g)
            total = [(e, var) for e, var in calls if e not in rhs]
            assert total, label
            for e, var in total:
                assert var not in ("y", "z") or var in ex.free_symbols(e), (label, var)
            # each total derivative starts with d/dx; count those that skip
            skipped += sum(var == "x" and not {"y", "z"} <= ex.free_symbols(e)
                           for e, var in total)
        assert skipped > 0

    @pytest.mark.parametrize("text", ["-(0)", "1 - 1", "0 - 0", "-(x - x)", "-(1)",
                                      "x - 1", "-(x)", "y - 1", "0 - z", "-(y*z)",
                                      "yp - 1", "x*zp - 0", "-(yp*y)", "exp(y) - x"])
    def test_total_derivative_is_the_reference_node(self, text):
        # d/dx of a tree without x is a zero signed by its right spine; a
        # missing y or z must turn -0 into +0 as the written term yp * 0 does
        for F, G in (("y - 1", "-(0)"), ("exp(z) * y", "x - z"), ("2", "-(3)")):
            F, G = ex.fold_constants(parse(F)), ex.fold_constants(parse(G))
            e = parse(text)
            want = reference_fold(reference_total(e, F, G))
            assert symmetry._total_derivative(e, F, G) is want, (text, want)

    def test_expand_is_the_fold_of_the_operator_tree(self):
        x, y, z = ex.sym("x"), ex.sym("y"), ex.sym("z")
        for g in (LinearGenerator(0.5, 0.0, Mat2.zero()),
                  LinearGenerator(-0.0, 0.0, Mat2(-0.0, 0.0, 0.0, -0.0), ("0 - 0", "-(0)")),
                  LinearGenerator(0.3, -0.7, Mat2(1.1, 0.4, -0.2, 0.6), ("cos(x)", "1 - 1")),
                  LinearGenerator(1.0, 1.0, Mat2.from_array(np.eye(2)), (2.0, "x - x")),
                  POW_GEN):
            xi = ex.fold_constants(2.0 * (g.k1 + g.k2 * x))
            eta1 = ex.fold_constants(g.A.a11 * y + g.A.a12 * z + g.zeta[0])
            eta2 = ex.fold_constants(g.A.a21 * y + g.A.a22 * z + g.zeta[1])
            got = g.expand()
            assert got.xi is xi and got.eta1 is eta1 and got.eta2 is eta2

    def test_basis_fields_are_built_once(self):
        for i in range(1, 9):
            assert basis_generator(i) is basis_generator(i)
            c = [0.0] * 8
            c[i - 1] = 1.0
            assert basis_generator(i) == LinearGenerator.from_coefficients(c).expand()
        with pytest.raises(ValueError, match="basis index"):
            basis_generator(9)


# ---------------------------------------------------------------------------
# Determining data and the reduced autonomous form
# ---------------------------------------------------------------------------

class TestDeterminingForms:
    def test_determining_generator_x_profile(self):
        g = determining_generator("cos(2*x)/2")
        x, y, z = 0.4, 1.3, 2.1
        assert _gen_values(g, x, y, z) == approx(
            (math.cos(0.8), -math.sin(0.8) * y, -math.sin(0.8) * z), rel=1e-12)

    @pytest.mark.parametrize("zeta, name", [(("y", "0"), "zeta[0]"),
                                            (("0", "x*z"), "zeta[1]")])
    def test_determining_generator_zeta_depends_on_x_alone(self, zeta, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} may depend on ['x'] only")):
            determining_generator("x", zeta=zeta)

    def test_full_defect_is_minus_determining_defect(self):
        sys = OdeSystem(parse("exp(y)+x*z"), parse("y*z+sin(x)"))
        xi = parse("sin(x)")
        A = Mat2(0.3, -1.2, 0.7, 0.4)
        zeta = (parse("cos(x)"), parse("x^2"))
        g = determining_generator(xi, A, zeta)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y, z = rng.uniform(0.2, 2.0, size=3)
            rd = determining_residual(sys, xi, A, zeta, (x, y, z))
            for (yp, zp) in ((0.0, 0.0), (rng.uniform(-2, 2), rng.uniform(-2, 2))):
                rs = prolong2_residual(sys, g, (x, y, z, yp, zp))
                for i in range(2):
                    assert abs(rs[i] + rd[i]) <= 1e-11 * (1.0 + abs(rd[i]))

    def test_linear_generator_shifts_the_matrix(self):
        # The expanded field of (k1, k2, A, zeta-const) carries determining
        # data (xi = k1 + k2 x, A - k2 I, zeta).
        sys = OdeSystem(parse("exp(y)+x*z"), parse("y*z+sin(x)"))
        lg = LinearGenerator(0.3, -0.7, Mat2(1.1, 0.4, -0.2, 0.6), (0.5, -1.5))
        xi = parse("0.3-0.7*x")
        A_det = lg.A - Mat2.identity() * lg.k2
        rng = np.random.default_rng(4)
        for _ in range(5):
            x, y, z = rng.uniform(0.2, 2.0, size=3)
            rs = prolong2_residual(sys, lg, (x, y, z, 0.4, -0.1))
            rd = determining_residual(sys, xi, A_det, (0.5, -1.5), (x, y, z))
            for i in range(2):
                assert abs(rs[i] + rd[i]) <= 1e-11 * (1.0 + abs(rd[i]))

    def test_determining_zero_for_admitted_scaling(self):
        xi = parse("0.5*x")
        A_det = Mat2.diag(0.5, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y, z = rng.uniform(0.2, 3.0, size=3)
            r1, r2 = determining_residual(POW_SYS, xi, A_det, (0.0, 0.0), (x, y, z))
            scale = abs(evaluate(POW_SYS.F, {"y": y, "z": z}))
            assert abs(r1) <= 1e-12 * (1.0 + scale)
            assert abs(r2) <= 1e-12 * (1.0 + scale)

    def test_autonomous_requires_autonomous_system(self):
        sys = OdeSystem(parse("exp(y)+x*z"), parse("y*z"))
        with pytest.raises(ValueError, match="autonomous"):
            autonomous_residual(sys, 0.0, Mat2.zero(), (0.0, 0.0), (0.0, 1.0, 1.0))

    def test_autonomous_matches_full_prolongation(self):
        rng = np.random.default_rng(6)
        for sys in (EXP_SYS, POW_SYS):
            for _ in range(20):
                k1, k2 = rng.uniform(-1.0, 1.0, size=2)
                A = Mat2.from_array(rng.uniform(-1.0, 1.0, size=(2, 2)))
                shift = tuple(rng.uniform(-1.0, 1.0, size=2))
                lg = LinearGenerator(k1, k2, A, shift)
                pt = (rng.uniform(0.2, 2.0), rng.uniform(0.3, 2.0),
                      rng.uniform(0.3, 2.0), rng.uniform(-2, 2), rng.uniform(-2, 2))
                full = prolong2_residual(sys, lg, pt)
                red = autonomous_residual(sys, k2, A, shift, pt[:3])
                for i in range(2):
                    assert abs(full[i] - red[i]) <= 1e-10 * (1.0 + abs(red[i]))

    def test_autonomous_flags_perturbed_system(self):
        # The admitted scaling of the power pair loses its symmetry when the
        # first right-hand side is perturbed; the reduced residual sees it.
        good = POW_SYS
        bad = OdeSystem(parse("z^(-2)+0.1*y^3"), parse("z^(-3)"))
        rng = np.random.default_rng(7)
        worst_good = worst_bad = 0.0
        for _ in range(200):
            y, z = rng.uniform(0.2, 3.0, size=2)
            rg = autonomous_residual(good, 0.5, POW_GEN.A, (0.0, 0.0), (0.0, y, z))
            rb = autonomous_residual(bad, 0.5, POW_GEN.A, (0.0, 0.0), (0.0, y, z))
            worst_good = max(worst_good, abs(rg[0]), abs(rg[1]))
            worst_bad = max(worst_bad, abs(rb[0]), abs(rb[1]))
        assert worst_good < 1e-9
        assert worst_bad > 1e-3


# ---------------------------------------------------------------------------
# Sampling verdicts
# ---------------------------------------------------------------------------

class TestDeterminingMatrix:
    def test_table_at_a_point(self):
        # F = y^2 z, G = x y at (x, y, z) = (2, 3, 5): F = 45, G = 6,
        # (F_x, F_y, F_z) = (0, 30, 9), (G_x, G_y, G_z) = (3, 2, 0).
        sys = OdeSystem(parse("y^2*z"), parse("x*y"))
        M = determining_matrix(sys, {"x": np.array([2.0]), "y": np.array([3.0]),
                                     "z": np.array([5.0])})
        assert M.shape == (2, 1, 11)
        assert M[0, 0].tolist() == [0, 270, -3, 45, 144, 27, 45, 30, 9, -1, 0]
        assert M[1, 0].tolist() == [6, 24, -5, 6, 10, -45, -6, 2, 0, 0, -1]

    def test_xi_column_vanishes_on_autonomous_systems(self):
        pts = ex.sample(SamplingDomain(intervals={"x": (0.2, 3.0), "y": (0.2, 3.0),
                                                  "z": (0.2, 3.0)}, n=7, seed=1))
        M = determining_matrix(POW_SYS, pts)
        assert M.shape == (2, 7, 11)
        assert not M[:, :, 0].any()

    @pytest.mark.parametrize("F, A, point", [
        ("1/y", Mat2.zero(), (0.5, 0.0, 1.0)),            # F has a pole there
        ("1e150*z", Mat2.zero(), (0.5, 1e200, 1.0)),      # y F_z overflows
        ("y^2", Mat2(1e308, 0.0, 0.0, 0.0), (0.5, 3.0, 1.0)),  # M u overflows
    ], ids=["pole", "coefficient-overflow", "product-overflow"])
    def test_non_finite_values_raise(self, F, A, point):
        sys = OdeSystem(parse(F), parse("z"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ex.EvalError):
                determining_residual(sys, "x", A, (0.0, 0.0), point)
            with pytest.raises(ex.EvalError):
                autonomous_residual(sys, 0.5, A, (0.0, 0.0), point)


class TestAdmits:
    def test_translation_admitted_for_autonomous_systems(self):
        for sys in (EXP_SYS, POW_SYS):
            v = admits(sys, basis_generator(1))
            assert v.admitted
            assert v.max_ratio <= 1e-9

    def test_scaling_admitted_for_power_pair(self):
        v = admits(POW_SYS, POW_GEN)  # LinearGenerator accepted directly
        assert v.admitted

    def test_x_scaling_rejected_with_witness(self):
        v = admits(EXP_SYS, basis_generator(2))
        assert not v.admitted
        assert v.max_ratio > 1e-3
        assert set(v.witness) == {"x", "y", "z", "yp", "zp"}
        pt = tuple(v.witness[n] for n in ("x", "y", "z", "yp", "zp"))
        r = prolong2_residual(EXP_SYS, basis_generator(2), pt)
        assert r[v.component - 1] == approx(v.value, rel=1e-9)

    def test_y_scaling_rejected(self):
        # its defect e^y (1 - y) vanishes only on the line y = 1
        v = admits(EXP_SYS, basis_generator(5))
        assert not v.admitted
        assert v.component == 1

    def test_domain_must_cover_velocities(self):
        dom = SamplingDomain(intervals={"x": (0, 1), "y": (0, 1), "z": (0, 1)})
        with pytest.raises(ValueError, match="yp"):
            admits(EXP_SYS, basis_generator(1), dom)

    def test_reports_are_reproducible(self):
        a = admits(EXP_SYS, basis_generator(2))
        b = admits(EXP_SYS, basis_generator(2))
        assert a == b
        c = admits(EXP_SYS, basis_generator(2), default_domain(seed=123))
        assert not c.admitted
        assert c.witness != a.witness


# ---------------------------------------------------------------------------
# Covariance under linear changes of the dependent pair
# ---------------------------------------------------------------------------

class TestTransformGenerator:
    def test_swap_conjugation_exact(self):
        lg = LinearGenerator(0.1, 0.2, Mat2.diag(1.0, 2.0), (3.0, 4.0))
        P = Mat2(0.0, 1.0, 1.0, 0.0)
        out = transform_generator(lg, P)
        assert out.to_coefficients() == approx(
            (0.2, 0.4, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0))

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            transform_generator(POW_GEN, Mat2(1.0, 2.0, 2.0, 4.0))

    def test_requires_linear_generator(self):
        with pytest.raises(TypeError):
            transform_generator(basis_generator(1), Mat2.identity())

    def test_x_translation_is_invariant(self):
        lg = LinearGenerator(0.5, 0.0, Mat2.zero())
        out = transform_generator(lg, Mat2(1.0, 0.2, -0.1, 0.9))
        assert out.to_coefficients() == approx((1.0,) + (0.0,) * 7)

    def test_covariance_with_system_transform(self):
        # the singular test is relative to the entries, so a uniformly
        # tiny P is as good a change of variables as P itself
        for scale in (1.0, 1e-7):
            P = Mat2(1.0, 0.2, -0.1, 0.9) * scale
            sys2 = linear_change(POW_SYS, P)
            g2 = transform_generator(POW_GEN, P)
            v = admits(sys2, g2, tol=1e-8)
            assert v.admitted


# ---------------------------------------------------------------------------
# Vector-field commutators
# ---------------------------------------------------------------------------

class TestCommutatorVf:
    def test_matches_structure_constants_on_basis(self):
        for i in range(1, 9):
            for j in range(1, 9):
                got = commutator_vf(basis_generator(i), basis_generator(j))
                coeffs = liealg.bracket(liealg.AlgebraElement.basis(i),
                                        liealg.AlgebraElement.basis(j))
                want = LinearGenerator.from_coefficients(coeffs.c).expand()
                _assert_gen_close(got, want)

    def test_antisymmetry_for_nonlinear_fields(self):
        g = Generator("sin(x)", "x*y^2", "z*y")
        h = Generator("x^2", "cos(y)", "exp(z/3)")
        ab = commutator_vf(g, h)
        ba = commutator_vf(h, g)
        _assert_gen_close(ab, -1.0 * ba, pts=((0.7, 1.3, 2.1), (0.4, -0.6, 1.8)))

    def test_jacobi_on_basis(self):
        pts = ((0.7, 1.3, 2.1), (-0.4, 0.6, -1.8), (1.9, -2.2, 0.3))
        for i in range(1, 9):
            for j in range(i + 1, 9):
                for k in range(j + 1, 9):
                    gi, gj, gk = (basis_generator(n) for n in (i, j, k))
                    s = (commutator_vf(gi, commutator_vf(gj, gk))
                         + commutator_vf(gj, commutator_vf(gk, gi))
                         + commutator_vf(gk, commutator_vf(gi, gj)))
                    for (x, y, z) in pts:
                        assert _gen_values(s, x, y, z) == approx((0.0,) * 3, abs=1e-12)

    def test_accepts_linear_generators(self):
        lg1 = LinearGenerator(0.5, 0.0, Mat2.zero())   # d/dx
        lg2 = LinearGenerator(0.0, 0.5, Mat2.zero())   # x d/dx
        _assert_gen_close(commutator_vf(lg1, lg2), basis_generator(1))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)

# half-then-double is exact in binary floating point except at the subnormal
# underflow floor, so the roundtrip property is stated away from it
exact_scale = finite.filter(lambda v: v == 0.0 or abs(v) >= 1e-300)


class TestProperties:
    @given(c=st.lists(exact_scale, min_size=8, max_size=8))
    def test_coefficients_roundtrip(self, c):
        got = LinearGenerator.from_coefficients(c).to_coefficients()
        assert got == tuple(float(v) for v in c)

    @settings(max_examples=40)
    @given(entries=st.lists(finite, min_size=8, max_size=8),
           yp1=finite, zp1=finite, yp2=finite, zp2=finite)
    def test_affine_defect_is_velocity_free(self, entries, yp1, zp1, yp2, zp2):
        k1, k2, a, b, c, d, z1, z2 = entries
        lg = LinearGenerator(k1, k2, Mat2(a, b, c, d), (z1, z2))
        pt = (0.3, 1.1, 0.8)
        r_a = prolong2_residual(EXP_SYS, lg, pt + (yp1, zp1))
        r_b = prolong2_residual(EXP_SYS, lg, pt + (yp2, zp2))
        for i in range(2):
            assert abs(r_a[i] - r_b[i]) <= 1e-10 * (1.0 + abs(r_a[i]))

    @settings(max_examples=30)
    @given(s=finite, t=finite)
    def test_defect_is_linear_in_the_field(self, s, t):
        g1 = Generator("sin(x)", "x*y", "z^2")
        g2 = Generator("x^2", "cos(y)", "y*z")
        combo = s * g1 + t * g2
        pt = (0.8, 1.1, 0.7, 0.2, -0.5)
        rc = prolong2_residual(EXP_SYS, combo, pt)
        r1 = prolong2_residual(EXP_SYS, g1, pt)
        r2 = prolong2_residual(EXP_SYS, g2, pt)
        for i in range(2):
            want = s * r1[i] + t * r2[i]
            assert abs(rc[i] - want) <= 1e-10 * (1.0 + abs(want))
