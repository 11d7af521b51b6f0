"""Independent numeric oracles used by the test suite.

Deliberately written against *formulas*, not against the library under test:
the only liesym imports are the expression evaluator needed to turn right-hand
sides into floats, the node constructor the symbolic references build with,
and the node kinds, function table and error type the reference parser
needs.  Each oracle is a textbook method simple enough to audit by eye, so
expected values derived from them count as independent evidence.
"""

from __future__ import annotations

import math
import re

import numpy as np

from liesym.expr import (
    CALL, CONSTANT, FUNCTIONS, NEG, POWER, PRODUCT, QUOTIENT, SUM,
    EvalError, Expr, ParseError, const, evaluate, sym,
)


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


# ---------------------------------------------------------------------------
# The reference parser: a per-character tokenizer and one group object per
# open parenthesis or call, the parser the library shipped before its
# one-scan version.  The library's parse must return the same node, or raise
# the same ParseError message and position, on every input.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)

#: binary operator -> precedence; '^' is the one right-associative operator
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _binary(op: str, a: Expr, b: Expr) -> Expr:
    if op == "+":
        return Expr(SUM, None, (a, b))
    if op == "-":
        return Expr(SUM, None, (a, Expr(NEG, None, (b,))))
    if op == "^":
        return Expr(POWER, None, (a, b))
    return Expr(PRODUCT if op == "*" else QUOTIENT, None, (a, b))


class _Group:
    """One ``expr`` of the grammar being read: the whole input, a
    parenthesized expression, or the arguments of a call to ``fn``."""

    def __init__(self, fn: str | None, pos: int):
        self.fn, self.pos = fn, pos
        self.operands: list[Expr] = []
        self.ops: list[str] = []
        self.negs = 0            # '-' signs read before the next base
        self.args: list[Expr] = []

    def push_op(self, op: str):
        prec = _PRECEDENCE[op]
        while self.ops and (_PRECEDENCE[self.ops[-1]] > prec
                            or _PRECEDENCE[self.ops[-1]] == prec and op != "^"):
            self.reduce()
        self.ops.append(op)

    def reduce(self):
        b = self.operands.pop()
        self.operands.append(_binary(self.ops.pop(), self.operands.pop(), b))

    def result(self) -> Expr:
        while self.ops:
            self.reduce()
        return self.operands.pop()


def reference_parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with a position on syntax errors, unknown
    function names, wrong call arities, and numbers beyond the float range.
    Operator precedence and nesting are handled with explicit stacks, so
    deep input costs no Python frames.
    """
    tokens = _tokenize(text)
    i = 0
    groups = [_Group(None, 0)]
    while True:
        # Read one base, opening a group for each '(' or call on the way.
        kind, tok, pos = tokens[i]
        i += 1
        if kind == "op" and tok == "-":
            groups[-1].negs += 1
            continue
        if kind == "op" and tok == "(":
            groups.append(_Group("(", pos))
            continue
        if kind == "name" and tokens[i][:2] == ("op", "("):
            if tok not in FUNCTIONS:
                raise ParseError(f"unknown function {tok!r}", pos)
            i += 1
            groups.append(_Group(tok, pos))
            continue
        if kind == "num":
            if not math.isfinite(float(tok)):
                raise ParseError(f"number {tok!r} is out of the float range", pos)
            base = const(float(tok))
        elif kind == "name":
            base = sym(tok)
        else:
            raise ParseError(f"unexpected token {tok!r}" if tok else "unexpected end of input", pos)
        # Hand the base to its group; close every group that ends after it.
        while True:
            g = groups[-1]
            for _ in range(g.negs):
                # A negated literal becomes a negative constant right away, so
                # "y^(-3)" carries an exponent node of -3, not neg(3).
                base = const(-base.value) if base.kind == CONSTANT else Expr(NEG, None, (base,))
            g.negs = 0
            g.operands.append(base)
            kind, tok, pos = tokens[i]
            if kind == "op" and tok in _PRECEDENCE:
                i += 1
                g.push_op(tok)
                break
            value = g.result()
            if g.fn is None:
                if kind != "end":
                    raise ParseError(f"trailing input {tok!r}", pos)
                return value
            if g.fn != "(":
                g.args.append(value)
                if kind == "op" and tok == "," and len(g.args) == 1:
                    i += 1
                    break
            if kind != "op" or tok != ")":
                raise ParseError("expected ')'", pos)
            i += 1
            groups.pop()
            if g.fn == "(":
                base = value
                continue
            if len(g.args) != FUNCTIONS[g.fn]:
                raise ParseError(
                    f"{g.fn} expects {FUNCTIONS[g.fn]} argument(s), got {len(g.args)}",
                    g.pos,
                )
            base = Expr(CALL, g.fn, tuple(g.args))
