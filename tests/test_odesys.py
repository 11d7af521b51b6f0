"""System representation and equivalence-transformation tests.

The substantial transformations (shifts and reparametrizations) are checked
against a solution-mapping oracle: integrate the original system, transform
the initial conditions by hand, integrate the transformed system, and compare
endpoints.  RK4 lives in oracles.py and knows nothing about this package's
symbolic machinery.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from liesym.expr import (
    EvalError, SamplingDomain, const, evaluate, fold_constants, parse,
    substitute, sym,
)
from liesym.odesys import (
    Mat2, OdeSystem, ReducibilityHint, linear_change, reducibility_hint,
    reparam_change, shift_change,
)
from oracles import rk4_second_order


def _rhs_fn(e):
    """Expression in (x, y, z) -> callable (x, y, z, yp, zp)."""
    return lambda x, y, z, yp, zp: evaluate(e, {"x": x, "y": y, "z": z})


def _sys_fns(s: OdeSystem):
    F, G = s.resolved()
    return _rhs_fn(F), _rhs_fn(G)


# ---------------------------------------------------------------------------
# Mat2
# ---------------------------------------------------------------------------

def test_mat2_algebra():
    P = Mat2(1.0, 2.0, 3.0, 4.0)
    assert P.det == pytest.approx(-2.0)
    assert P.trace == pytest.approx(5.0)
    assert (P @ P.inv()).allclose(Mat2.identity())
    assert (P.inv() @ P).allclose(Mat2.identity())
    assert Mat2.from_array(P.to_array()) == P
    assert Mat2.from_rows(P.rows()) == P
    v = P.apply_vec(1.0, 1.0)
    assert v[0] == pytest.approx(3.0) and v[1] == pytest.approx(7.0)


def test_mat2_singular_raises():
    for P in (Mat2(1.0, 2.0, 2.0, 4.0), Mat2.zero(), Mat2(1e-7, 2e-7, 2e-7, 4e-7)):
        with pytest.raises(ValueError, match=r"matrix is singular \(det="):
            P.inv()


# ---------------------------------------------------------------------------
# OdeSystem validation
# ---------------------------------------------------------------------------

def test_odesystem_validation():
    OdeSystem(parse("y*z"), parse("z^2"))  # fine
    with pytest.raises(ValueError):
        OdeSystem(parse("yp + y"), parse("z"))
    with pytest.raises(ValueError, match=r"unbound symbols \['gamma'\]"):
        OdeSystem(parse("gamma*y"), parse("z"))


def test_odesystem_autonomy_and_resolution():
    s = OdeSystem(substitute(parse("gamma*y"), {"gamma": 2.0}), parse("z"))
    assert s.is_autonomous
    F, G = s.resolved()
    assert F == parse("2*y")
    assert not OdeSystem(parse("x + y"), parse("z")).is_autonomous


# ---------------------------------------------------------------------------
# linear_change
# ---------------------------------------------------------------------------

def test_linear_change_identity_structural():
    s = OdeSystem(fold_constants(parse("y*z - y^3")), fold_constants(parse("z^2")))
    t = linear_change(s, Mat2.identity())
    assert t.F == s.F and t.G == s.G


def test_linear_change_diag_example():
    s = OdeSystem(parse("y"), parse("z"))
    t = linear_change(s, Mat2.diag(2.0, 1.0))
    got = evaluate(t.F, {"y": 2.0, "z": 1.0})
    assert got == pytest.approx(2.0)


def test_linear_change_swap_evaluates_swapped():
    s = OdeSystem(parse("z"), parse("y"))
    swap = Mat2(0.0, 1.0, 1.0, 0.0)
    t = linear_change(s, swap)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.uniform(0.2, 3.0, size=2)
        # Direct substitution oracle: Ftil(v) = first row of P·(F,G)(P^{-1}v).
        ya, za = b, a
        want_F = evaluate(s.G, {"y": ya, "z": za})
        want_G = evaluate(s.F, {"y": ya, "z": za})
        assert evaluate(t.F, {"y": a, "z": b}) == pytest.approx(want_F, rel=1e-12)
        assert evaluate(t.G, {"y": a, "z": b}) == pytest.approx(want_G, rel=1e-12)


def test_linear_change_general_matches_substitution_oracle():
    s = OdeSystem(parse("y*z - y^3 + 1"), parse("z^2 - 2*y"))
    P = Mat2(1.0, 2.0, -1.0, 1.0)
    t = linear_change(s, P)
    Q = P.inv()
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        ya, za = Q.apply_vec(a, b)
        f = evaluate(s.F, {"y": ya, "z": za})
        g = evaluate(s.G, {"y": ya, "z": za})
        want = P.apply_vec(f, g)
        assert evaluate(t.F, {"y": a, "z": b}) == pytest.approx(want[0], rel=1e-10, abs=1e-12)
        assert evaluate(t.G, {"y": a, "z": b}) == pytest.approx(want[1], rel=1e-10, abs=1e-12)


def test_linear_change_round_trip_evaluates_equal():
    s = OdeSystem(parse("y*z - y^3 + 1"), parse("z^2 - 2*y"))
    P = Mat2(2.0, 1.0, 1.0, 1.0)
    t = linear_change(linear_change(s, P), P.inv())
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        for e1, e2 in ((s.F, t.F), (s.G, t.G)):
            v1 = evaluate(e1, {"y": a, "z": b})
            v2 = evaluate(e2, {"y": a, "z": b})
            assert abs(v1 - v2) <= 1e-9 * (1.0 + abs(v1))


def test_linear_change_preserves_autonomy_flag():
    s = OdeSystem(parse("y^2"), parse("y*z"))
    assert linear_change(s, Mat2(1.0, 1.0, 0.0, 1.0)).is_autonomous
    s2 = OdeSystem(parse("x + y"), parse("z"))
    assert not linear_change(s2, Mat2(1.0, 1.0, 0.0, 1.0)).is_autonomous


def test_linear_change_singular_raises():
    with pytest.raises(ValueError):
        linear_change(OdeSystem(parse("y"), parse("z")), Mat2(1.0, 1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# shift_change
# ---------------------------------------------------------------------------

def test_shift_zero_is_identity():
    s = OdeSystem(fold_constants(parse("y*z")), fold_constants(parse("z^2 - y")))
    t = shift_change(s, const(0.0), const(0.0))
    assert t.F == s.F and t.G == s.G


def test_shift_constant_forcing():
    s = OdeSystem(const(0.0), const(0.0))
    t = shift_change(s, parse("x^2"), const(0.0))
    assert t.F == const(2.0)
    assert t.G == const(0.0)


def test_shift_rejects_dependent_variables():
    s = OdeSystem(parse("y"), parse("z"))
    with pytest.raises(ValueError):
        shift_change(s, parse("y + x"), const(0.0))


def test_shift_solution_mapping():
    # Solutions of the original system, shifted by (phi, psi), must solve the
    # transformed system.  Checked end-to-end with the RK4 oracle.
    s = OdeSystem(parse("0.3*y*z - y"), parse("0.2*y^2 - z"))
    phi = parse("0.3*x^2 + 0.5*x")
    psi = parse("-0.2*x^2 + x + 0.1")
    t = shift_change(s, phi, psi)

    F0, G0 = _sys_fns(s)
    F1, G1 = _sys_fns(t)

    def dphi(x):
        return 0.6 * x + 0.5

    def dpsi(x):
        return -0.4 * x + 1.0

    y0, z0, yp0, zp0 = 1.0, 0.8, 0.1, -0.2
    end0 = rk4_second_order(F0, G0, (y0, z0, yp0, zp0), 0.0, 1.0, steps=400)
    start1 = (y0 + evaluate(phi, {"x": 0.0}), z0 + evaluate(psi, {"x": 0.0}),
              yp0 + dphi(0.0), zp0 + dpsi(0.0))
    end1 = rk4_second_order(F1, G1, start1, 0.0, 1.0, steps=400)

    assert end1[0] == pytest.approx(end0[0] + evaluate(phi, {"x": 1.0}), abs=1e-6)
    assert end1[1] == pytest.approx(end0[1] + evaluate(psi, {"x": 1.0}), abs=1e-6)
    assert end1[2] == pytest.approx(end0[2] + dphi(1.0), abs=1e-6)
    assert end1[3] == pytest.approx(end0[3] + dpsi(1.0), abs=1e-6)


# ---------------------------------------------------------------------------
# reparam_change
# ---------------------------------------------------------------------------

def test_reparam_identity():
    s = OdeSystem(fold_constants(parse("y*z")), fold_constants(parse("z^2")))
    t = reparam_change(s, sym("x"))
    assert t.F == s.F and t.G == s.G


def test_reparam_constraint_identity():
    # psi = sqrt(phi') satisfies phi''/phi' = 2 psi'/psi; spot-check the
    # exponential case where both sides are the constant 2.
    from liesym.expr import differentiate, sample, sqrt, zero_report_at
    phi = parse("exp(2*x)")
    d1 = differentiate(phi, "x")
    d2 = differentiate(d1, "x")
    psi = sqrt(d1)
    psi1 = differentiate(psi, "x")
    resid = d2 / d1 - 2.0 * psi1 / psi
    dom = SamplingDomain(intervals={"x": (0.2, 1.5)}, n=100, seed=0)
    assert zero_report_at(resid, sample(dom), tol=1e-9).ok


def test_reparam_requires_inverse_for_nonaffine():
    s = OdeSystem(parse("y"), parse("z"))
    with pytest.raises(ValueError, match="phi_inv"):
        reparam_change(s, parse("exp(2*x)"))


def _reparam_solution_mapping(s, phi, phi_inv, dphi_fn, x_end):
    """Shared oracle: integrate both systems and compare endpoints under
    xtil = phi(x), ytil = y*psi(x), psi = sqrt(phi')."""
    t = reparam_change(s, phi, phi_inv=phi_inv) if phi_inv is not None \
        else reparam_change(s, phi)
    F0, G0 = _sys_fns(s)
    F1, G1 = _sys_fns(t)

    def psi(x):
        return math.sqrt(dphi_fn(x))

    def dpsi(x, h=1e-6):
        return (psi(x + h) - psi(x - h)) / (2 * h)

    y0, z0, yp0, zp0 = 1.0, 0.8, 0.1, -0.2
    end0 = rk4_second_order(F0, G0, (y0, z0, yp0, zp0), 0.0, x_end, steps=400)

    x0t = evaluate(phi, {"x": 0.0})
    x1t = evaluate(phi, {"x": x_end})
    start1 = (
        y0 * psi(0.0),
        z0 * psi(0.0),
        (yp0 * psi(0.0) + y0 * dpsi(0.0)) / dphi_fn(0.0),
        (zp0 * psi(0.0) + z0 * dpsi(0.0)) / dphi_fn(0.0),
    )
    end1 = rk4_second_order(F1, G1, start1, x0t, x1t, steps=400)

    assert end1[0] == pytest.approx(end0[0] * psi(x_end), abs=2e-6)
    assert end1[1] == pytest.approx(end0[1] * psi(x_end), abs=2e-6)


def test_reparam_solution_mapping_affine():
    s = OdeSystem(parse("0.3*y*z - y"), parse("0.2*y^2 - z"))
    phi = parse("2*x + 1")
    _reparam_solution_mapping(s, phi, None, lambda x: 2.0, x_end=0.8)


def test_reparam_solution_mapping_exponential():
    s = OdeSystem(parse("0.3*y*z - y"), parse("0.2*y^2 - z"))
    phi = parse("exp(2*x)")
    phi_inv = parse("ln(x)/2")
    _reparam_solution_mapping(s, phi, phi_inv, lambda x: 2.0 * math.exp(2.0 * x),
                              x_end=0.5)


# ---------------------------------------------------------------------------
# reducibility_hint
# ---------------------------------------------------------------------------

U_DOM = SamplingDomain(intervals={"u": (0.2, 3.0)}, n=200, seed=0)


def test_reducibility_hint_derivative_zero():
    got = reducibility_hint(parse("u^2"), const(5.0), U_DOM)
    assert got is ReducibilityHint.ReducibleFPrimeGPrimeZero


def test_reducibility_hint_proportional():
    got = reducibility_hint(parse("u^3"), parse("2*u^3"), U_DOM)
    assert got is ReducibilityHint.ReducibleProportional


def test_reducibility_hint_none():
    got = reducibility_hint(parse("u^(-3)"), parse("u*u^(-3)"), U_DOM)
    assert got is ReducibilityHint.NoHint


def test_reducibility_hint_with_params():
    got = reducibility_hint(substitute(parse("c*u^3"), {"c": 2.0}), parse("u^3"), U_DOM)
    assert got is ReducibilityHint.ReducibleProportional


def test_reducibility_hint_needs_univariate_domain():
    dom = SamplingDomain(intervals={"u": (0.2, 3.0), "v": (0.2, 3.0)}, n=50, seed=0)
    with pytest.raises(ValueError):
        reducibility_hint(parse("u"), parse("u^2"), dom)
