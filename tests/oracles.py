"""Independent numeric oracles used by the test suite.

Deliberately written against *formulas*, not against the library under test:
the only liesym imports are the expression evaluator needed to turn right-hand
sides into floats and the node constructor the symbolic references build
with.  Each oracle is a textbook method simple enough to audit by eye, so
expected values derived from them count as independent evidence.
"""

from __future__ import annotations

import math

import numpy as np

from liesym.expr import EvalError, Expr, evaluate


def fd_derivative(f, x: float, h: float = 1e-6) -> float:
    """Central finite difference f'(x) ~ (f(x+h) - f(x-h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_partial(e, binding: dict, var: str, h: float = 1e-6) -> float:
    """Central finite difference of an expression in one variable."""

    def at(v: float) -> float:
        b = dict(binding)
        b[var] = v
        return evaluate(e, b)

    return fd_derivative(at, binding[var], h)


def fd_second(f, x: float, h: float = 1e-4) -> float:
    """Central second difference f''(x) ~ (f(x+h) - 2 f(x) + f(x-h)) / h^2."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def rk4_second_order(F, G, state0, x0: float, x1: float, steps: int = 400):
    """Integrate y'' = F(y, z), z'' = G(y, z) by classical RK4.

    ``state0`` is (y, z, yp, zp) at x0; returns the state at x1.  F and G are
    callables of (x, y, z, yp, zp) so non-autonomous right-hand sides (which
    appear after point transformations) integrate too.
    """
    h = (x1 - x0) / steps
    s = np.asarray(state0, dtype=float)

    def rhs(x, st):
        y, z, yp, zp = st
        return np.array([yp, zp, F(x, y, z, yp, zp), G(x, y, z, yp, zp)])

    x = x0
    for _ in range(steps):
        k1 = rhs(x, s)
        k2 = rhs(x + h / 2.0, s + h / 2.0 * k1)
        k3 = rhs(x + h / 2.0, s + h / 2.0 * k2)
        k4 = rhs(x + h, s + h * k3)
        s = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x += h
    return s


def eig2_quadratic(a11: float, a12: float, a21: float, a22: float):
    """Eigenvalues of a real 2x2 matrix straight from the quadratic formula.

    Returns ('real', l1, l2) with l1 >= l2, or ('complex', re, im) with
    im > 0.
    """
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        r = math.sqrt(disc)
        return ("real", (tr + r) / 2.0, (tr - r) / 2.0)
    return ("complex", tr / 2.0, math.sqrt(-disc) / 2.0)


def matexp_series(M: np.ndarray, terms: int = 60) -> np.ndarray:
    """Plain truncated Taylor series for exp(M) (no scaling tricks).

    Fine as an oracle for the small, well-scaled matrices in these tests;
    the implementation under test must agree to tight tolerance.
    """
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# Symbolic references: plain recursion, no caches, no explicit stacks.  They
# restate the folding and differentiation rules node by node, for trees
# shallow enough for the interpreter's recursion limit.
# ---------------------------------------------------------------------------

def _c(v: float) -> Expr:
    return Expr("constant", v)


def _is(e: Expr, v: float) -> bool:
    return e.kind == "constant" and e.value == v


def reference_fold(e: Expr) -> Expr:
    """Constant folding: evaluate constant subtrees, drop 0*e, e*1, e+0,
    e^1, e^0, 0/e, e/1 and neg(neg(e))."""
    k = e.kind
    if k in ("constant", "symbol"):
        return e
    args = tuple(reference_fold(a) for a in e.args)
    if all(a.kind == "constant" for a in args):
        try:
            v = evaluate(Expr(k, e.value, args), {})
        except EvalError:
            return Expr(k, e.value, args)
        return _c(v) if math.isfinite(v) else Expr(k, e.value, args)
    a, b = args[0], args[-1]
    if k == "sum" and (_is(a, 0.0) or _is(b, 0.0)):
        return b if _is(a, 0.0) else a
    if k == "product":
        if _is(a, 0.0) or _is(b, 0.0):
            return _c(0.0)
        if _is(a, 1.0) or _is(b, 1.0):
            return b if _is(a, 1.0) else a
    if k == "quotient":
        if _is(a, 0.0) and not _is(b, 0.0):
            return _c(0.0)
        if _is(b, 1.0):
            return a
    if k == "power" and (_is(b, 1.0) or _is(b, 0.0)):
        return a if _is(b, 1.0) else _c(1.0)
    if k == "neg" and a.kind == "constant":
        return _c(-a.value)
    if k == "neg" and a.kind == "neg":
        return a.args[0]
    return Expr(k, e.value, args)


def _neg(a):
    if a.kind == "constant":
        return _c(-a.value)
    return a.args[0] if a.kind == "neg" else Expr("neg", None, (a,))


def _add(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else Expr("sum", None, (a, b))


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _c(0.0)
    return b if _is(a, 1.0) else a if _is(b, 1.0) else Expr("product", None, (a, b))


def _div(a, b):
    return _c(0.0) if _is(a, 0.0) else a if _is(b, 1.0) else Expr("quotient", None, (a, b))


def _sq(a):
    return Expr("power", None, (a, _c(2.0)))


def _fn(name, *args):
    return Expr("call", name, args)


def reference_differentiate(e: Expr, var: str) -> Expr:
    """The textbook rules, built through the same identity-dropping
    constructors (0*e, e*1, e+0, 0/e, e/1, neg(neg(e)) never appear)."""
    k = e.kind
    if k == "constant":
        return _c(0.0)
    if k == "symbol":
        return _c(1.0 if e.value == var else 0.0)
    d = [reference_differentiate(a, var) for a in e.args]
    if k == "sum":
        return _add(d[0], d[1])
    if k == "neg":
        return _neg(d[0])
    if k == "product":
        a, b = e.args
        return _add(_mul(d[0], b), _mul(a, d[1]))
    if k == "quotient":
        a, b = e.args
        return _div(_add(_mul(d[0], b), _neg(_mul(a, d[1]))), _sq(b))
    if k == "power":
        u, v = e.args
        du, dv = d
        if _is(dv, 0.0):
            v1 = _c(v.value - 1.0) if v.kind == "constant" else Expr("sum", None, (v, _c(-1.0)))
            return _mul(_mul(v, Expr("power", None, (u, v1))), du)
        if _is(du, 0.0):
            return _mul(_mul(e, _fn("ln", u)), dv)
        return _mul(e, _add(_mul(dv, _fn("ln", u)), _div(_mul(v, du), u)))
    fn = e.value
    if fn == "atan2":
        a, b = e.args
        return _div(_add(_mul(d[0], b), _neg(_mul(a, d[1]))), _add(_sq(a), _sq(b)))
    u, du = e.args[0], d[0]
    if _is(du, 0.0):
        return _c(0.0)
    return {
        "sin": lambda: _mul(_fn("cos", u), du),
        "cos": lambda: _neg(_mul(_fn("sin", u), du)),
        "exp": lambda: _mul(e, du),
        "ln": lambda: _div(du, u),
        "sqrt": lambda: _div(du, _mul(_c(2.0), e)),
        "atan": lambda: _div(du, _add(_c(1.0), _sq(u))),
    }[fn]()


def _symbols(e: Expr) -> set:
    if e.kind == "symbol":
        return {e.value}
    return set().union(*(_symbols(a) for a in e.args))


def reference_total(e: Expr, F: Expr, G: Expr) -> Expr:
    """The total x-derivative d/dx + yp d/dy + zp d/dz of ``e`` on
    solutions (F for y'' and G for z''), with the operators, unfolded: every
    term is written, also the ones whose derivative is zero."""
    yp, zp = Expr("symbol", "yp"), Expr("symbol", "zp")
    d = reference_differentiate
    out = d(e, "x") + yp * d(e, "y") + zp * d(e, "z")
    free = _symbols(e)
    if "yp" in free:
        out = out + F * d(e, "yp")
    if "zp" in free:
        out = out + G * d(e, "zp")
    return out


def reference_residuals(system, g) -> tuple[Expr, Expr]:
    """The symmetry defects (r1, r2) of the field ``g`` (``xi``, ``eta1``,
    ``eta2``) on y'' = F, z'' = G, written with the node operators as the
    formula reads: r_i = eta_i'' - X(rhs_i), eta_i'' the second prolonged
    coefficient on solutions.  Derivatives come from
    :func:`reference_differentiate`, and :func:`reference_fold` folds xi',
    each first prolonged coefficient and each whole residual."""
    F, G = reference_fold(system.F), reference_fold(system.G)
    yp, zp = Expr("symbol", "yp"), Expr("symbol", "zp")
    d = reference_differentiate

    def total(e):
        return reference_total(e, F, G)

    dxi = reference_fold(total(g.xi))
    out = []
    for eta, vel, rhs in ((g.eta1, yp, F), (g.eta2, zp, G)):
        e1 = reference_fold(total(eta) - vel * dxi)
        e2 = total(e1) - rhs * dxi
        act = g.xi * d(rhs, "x") + g.eta1 * d(rhs, "y") + g.eta2 * d(rhs, "z")
        out.append(reference_fold(e2 - act))
    return out[0], out[1]
