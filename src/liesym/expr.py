"""Immutable expression trees plus the numeric plumbing built on them.

Everything downstream (ODE systems, prolongations, the catalog) manipulates
right-hand sides symbolically, so this module keeps the expression language
deliberately small: constants, symbols, binary sum/product/quotient/power,
unary negation, and calls to a fixed set of elementary functions.  On top of
the trees it provides a parser, differentiation, constant folding,
substitution, one vectorized numpy evaluator, and rejection-sampled domains
for deciding "is this expression numerically zero".

Design notes:

- Trees are frozen dataclasses; structural equality is dataclass equality.
- Printing parenthesizes so that ``parse(to_string(e))`` reproduces the tree
  node-for-node for any parser- or fold-produced tree.
- Domain errors (log of a non-positive number, division by zero, fractional
  power of a negative base) raise :class:`EvalError` — never a silent NaN.
  The vectorized path enforces the same policy with a finiteness check.
- :func:`compile_evaluator` lays expressions out as one tape with a slot per
  distinct subtree and one numpy call per slot; a zero test reads the value
  and its cancellation-scale terms from that single pass.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr", "ParseError", "EvalError", "SamplingError", "SamplingDomain",
    "ZeroReport", "RESERVED_NAMES", "FUNCTIONS",
    "const", "sym", "call", "sin", "cos", "exp", "ln", "sqrt", "atan", "atan2",
    "parse", "to_string", "evaluate", "differentiate", "fold_constants",
    "substitute", "free_symbols", "top_level_terms", "compile_evaluator",
    "sample", "zero_report", "zero_report_at", "is_zero_numeric",
]

# Node kinds.
CONSTANT = "constant"
SYMBOL = "symbol"
SUM = "sum"
PRODUCT = "product"
QUOTIENT = "quotient"
POWER = "power"
NEG = "neg"
CALL = "call"

#: Variable names with a fixed meaning in this package: independent variable,
#: the two dependent variables, and their first derivatives.  Parameters may
#: be any other identifier.
RESERVED_NAMES = ("x", "y", "z", "yp", "zp")

#: function name -> arity
FUNCTIONS = {
    "sin": 1, "cos": 1, "exp": 1, "ln": 1, "sqrt": 1, "atan": 1, "atan2": 2,
}


class ParseError(ValueError):
    """Syntax error; carries the 0-based position in the input text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ArithmeticError):
    """Evaluation failed: unbound symbol, domain error, or overflow."""


class SamplingError(RuntimeError):
    """Rejection sampling could not collect enough admissible points."""


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree.

    ``value`` holds the float for constants and the name for symbols and
    calls; it is None for the arithmetic kinds.  ``args`` are the children.
    """

    kind: str
    value: float | str | None = None
    args: tuple["Expr", ...] = ()

    # -- arithmetic sugar so client code reads like the formulas it encodes --
    def __add__(self, other):
        return Expr(SUM, None, (self, _as_expr(other)))

    def __radd__(self, other):
        return Expr(SUM, None, (_as_expr(other), self))

    def __sub__(self, other):
        return Expr(SUM, None, (self, Expr(NEG, None, (_as_expr(other),))))

    def __rsub__(self, other):
        return Expr(SUM, None, (_as_expr(other), Expr(NEG, None, (self,))))

    def __mul__(self, other):
        return Expr(PRODUCT, None, (self, _as_expr(other)))

    def __rmul__(self, other):
        return Expr(PRODUCT, None, (_as_expr(other), self))

    def __truediv__(self, other):
        return Expr(QUOTIENT, None, (self, _as_expr(other)))

    def __rtruediv__(self, other):
        return Expr(QUOTIENT, None, (_as_expr(other), self))

    def __pow__(self, other):
        return Expr(POWER, None, (self, _as_expr(other)))

    def __rpow__(self, other):
        return Expr(POWER, None, (_as_expr(other), self))

    def __neg__(self):
        return Expr(NEG, None, (self,))

    def __str__(self):
        return to_string(self)


def const(v: float) -> Expr:
    return Expr(CONSTANT, float(v))


def sym(name: str) -> Expr:
    return Expr(SYMBOL, name)


def call(fn: str, *args: "Expr | float") -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    exprs = tuple(_as_expr(a) for a in args)
    if len(exprs) != FUNCTIONS[fn]:
        raise ValueError(f"{fn} expects {FUNCTIONS[fn]} argument(s), got {len(exprs)}")
    return Expr(CALL, fn, exprs)


def sin(e):
    return call("sin", e)


def cos(e):
    return call("cos", e)


def exp(e):
    return call("exp", e)


def ln(e):
    return call("ln", e)


def sqrt(e):
    return call("sqrt", e)


def atan(e):
    return call("atan", e)


def atan2(a, b):
    return call("atan2", a, b)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' factor)?                (power is right-associative)
#   base   := number | name | name '(' expr (',' expr)? ')'
#           | '(' expr ')' | '-' base

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                if text == "-":
                    rhs = Expr(NEG, None, (rhs,))
                e = Expr(SUM, None, (e, rhs))
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_factor()
                e = Expr(PRODUCT if text == "*" else QUOTIENT, None, (e, rhs))
            else:
                return e

    def parse_factor(self) -> Expr:
        e = self.parse_base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Expr(POWER, None, (e, self.parse_factor()))
        return e

    def parse_base(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return const(float(text))
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                args = [self.parse_expr()]
                ck, ct, _ = self.peek()
                if ck == "op" and ct == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        f"{text} expects {FUNCTIONS[text]} argument(s), got {len(args)}",
                        pos,
                    )
                return Expr(CALL, text, tuple(args))
            return sym(text)
        if kind == "op" and text == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if kind == "op" and text == "-":
            inner = self.parse_base()
            # A negated literal becomes a negative constant right away, so
            # "y^(-3)" carries an exponent node of -3, not neg(3).
            if inner.kind == CONSTANT:
                return const(-inner.value)
            return Expr(NEG, None, (inner,))
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with a position on syntax errors, unknown
    function names, and wrong call arities.
    """
    p = _Parser(text)
    e = p.parse_expr()
    kind, text_, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text_!r}", pos)
    return e


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

_LEVEL = {SUM: 1, PRODUCT: 2, QUOTIENT: 2, NEG: 2, POWER: 4,
          CONSTANT: 5, SYMBOL: 5, CALL: 5}


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) <= 1e15:
        return str(int(v))
    return repr(v)


def _render(e: Expr, min_level: int) -> str:
    k = e.kind
    if k == CONSTANT:
        body = _fmt_number(e.value)
        # "-3" re-parses as a negated literal only in base position; treat a
        # negative constant like a neg node for parenthesization.
        level = _LEVEL[NEG] if e.value < 0 else _LEVEL[CONSTANT]
    elif k == SYMBOL:
        body, level = e.value, _LEVEL[SYMBOL]
    elif k == CALL:
        body = f"{e.value}({', '.join(_render(a, 1) for a in e.args)})"
        level = _LEVEL[CALL]
    elif k == SUM:
        a, b = e.args
        if b.kind == NEG:
            body = f"{_render(a, 1)} - {_render(b.args[0], 2)}"
        elif b.kind == CONSTANT and b.value < 0:
            body = f"{_render(a, 1)} - {_fmt_number(-b.value)}"
        else:
            body = f"{_render(a, 1)} + {_render(b, 2)}"
        level = _LEVEL[SUM]
    elif k == PRODUCT:
        body = f"{_render(e.args[0], 2)} * {_render(e.args[1], 3)}"
        level = _LEVEL[PRODUCT]
    elif k == QUOTIENT:
        body = f"{_render(e.args[0], 2)} / {_render(e.args[1], 3)}"
        level = _LEVEL[QUOTIENT]
    elif k == NEG:
        # '-' binds a bare base in the grammar, so anything that is not an
        # atom (powers included: "-a ^ b" would re-parse as "(-a) ^ b") gets
        # parentheses.
        body = f"-{_render(e.args[0], 5)}"
        level = _LEVEL[NEG]
    elif k == POWER:
        body = f"{_render(e.args[0], 5)} ^ {_render(e.args[1], 4)}"
        level = _LEVEL[POWER]
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown node kind {k!r}")
    if level < min_level:
        return f"({body})"
    return body


def to_string(e: Expr) -> str:
    """Render ``e`` so that ``parse(to_string(e))`` rebuilds it structurally."""
    return _render(e, 1)


# --------------------------------------------------------------------------
# Evaluation (scalar)
# --------------------------------------------------------------------------

_SCALAR_FNS: dict[str, Callable] = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
    "sqrt": math.sqrt, "atan": math.atan, "atan2": math.atan2,
}


def evaluate(e: Expr, binding: Mapping[str, float]) -> float:
    """Evaluate at a point.  Raises :class:`EvalError` on any failure."""
    k = e.kind
    if k == CONSTANT:
        return e.value
    if k == SYMBOL:
        try:
            return float(binding[e.value])
        except KeyError:
            raise EvalError(f"unbound symbol {e.value!r}") from None
    if k == SUM:
        return evaluate(e.args[0], binding) + evaluate(e.args[1], binding)
    if k == PRODUCT:
        return evaluate(e.args[0], binding) * evaluate(e.args[1], binding)
    if k == QUOTIENT:
        num = evaluate(e.args[0], binding)
        den = evaluate(e.args[1], binding)
        if den == 0.0:
            raise EvalError("division by zero")
        return num / den
    if k == NEG:
        return -evaluate(e.args[0], binding)
    if k == POWER:
        b = evaluate(e.args[0], binding)
        p = evaluate(e.args[1], binding)
        try:
            return math.pow(b, p)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"pow({b!r}, {p!r}): {exc}") from None
    if k == CALL:
        vals = [evaluate(a, binding) for a in e.args]
        try:
            return _SCALAR_FNS[e.value](*vals)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{e.value}({vals!r}): {exc}") from None
    raise ValueError(f"unknown node kind {k!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

_ZERO = const(0.0)
_ONE = const(1.0)


def _is_const(e: Expr, v: float) -> bool:
    return e.kind == CONSTANT and e.value == v


def _neg(e: Expr) -> Expr:
    if e.kind == CONSTANT:
        return const(-e.value)
    if e.kind == NEG:
        return e.args[0]
    return Expr(NEG, None, (e,))


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Expr(SUM, None, (a, b))


def _sub(a: Expr, b: Expr) -> Expr:
    return _add(a, _neg(b))


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Expr(PRODUCT, None, (a, b))


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Expr(QUOTIENT, None, (a, b))


def _minus_one(v: Expr) -> Expr:
    if v.kind == CONSTANT:
        return const(v.value - 1.0)
    return Expr(SUM, None, (v, const(-1.0)))


def differentiate(e: Expr, var: str) -> Expr:
    """Partial derivative with respect to ``var``.

    The result is built through identity-dropping constructors (``0*e``,
    ``e+0`` and friends never appear) but is not otherwise simplified; apply
    :func:`fold_constants` when a tidy tree matters.
    """
    k = e.kind
    if k == CONSTANT:
        return _ZERO
    if k == SYMBOL:
        return _ONE if e.value == var else _ZERO
    if k == SUM:
        return _add(differentiate(e.args[0], var), differentiate(e.args[1], var))
    if k == NEG:
        return _neg(differentiate(e.args[0], var))
    if k == PRODUCT:
        a, b = e.args
        da, db = differentiate(a, var), differentiate(b, var)
        return _add(_mul(da, b), _mul(a, db))
    if k == QUOTIENT:
        a, b = e.args
        da, db = differentiate(a, var), differentiate(b, var)
        return _div(_sub(_mul(da, b), _mul(a, db)), Expr(POWER, None, (b, const(2.0))))
    if k == POWER:
        u, v = e.args
        du, dv = differentiate(u, var), differentiate(v, var)
        if _is_const(dv, 0.0):
            return _mul(_mul(v, Expr(POWER, None, (u, _minus_one(v)))), du)
        if _is_const(du, 0.0):
            return _mul(_mul(e, ln(u)), dv)
        return _mul(e, _add(_mul(dv, ln(u)), _div(_mul(v, du), u)))
    if k == CALL:
        fn = e.value
        if fn == "atan2":
            a, b = e.args
            da, db = differentiate(a, var), differentiate(b, var)
            num = _sub(_mul(da, b), _mul(a, db))
            den = _add(Expr(POWER, None, (a, const(2.0))), Expr(POWER, None, (b, const(2.0))))
            return _div(num, den)
        u = e.args[0]
        du = differentiate(u, var)
        if _is_const(du, 0.0):
            return _ZERO
        if fn == "sin":
            return _mul(cos(u), du)
        if fn == "cos":
            return _neg(_mul(sin(u), du))
        if fn == "exp":
            return _mul(e, du)
        if fn == "ln":
            return _div(du, u)
        if fn == "sqrt":
            return _div(du, _mul(const(2.0), e))
        if fn == "atan":
            return _div(du, _add(_ONE, Expr(POWER, None, (u, const(2.0)))))
    raise ValueError(f"unknown node kind {k!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# Folding, substitution, inspection
# --------------------------------------------------------------------------

def fold_constants(e: Expr) -> Expr:
    """Bottom-up simplification: constant subtrees are evaluated, and the
    identities ``0*e``, ``e*1``, ``e+0``, ``e^1``, ``e^0``, ``0/e``, ``e/1``,
    ``neg(neg(e))`` are dropped.  Idempotent; preserves values everywhere the
    input evaluates.  A constant subtree whose evaluation fails (say ``1/0``)
    is kept as-is so the error still surfaces at evaluation time.
    """
    k = e.kind
    if k in (CONSTANT, SYMBOL):
        return e
    args = tuple(fold_constants(a) for a in e.args)
    if all(a.kind == CONSTANT for a in args):
        try:
            return const(evaluate(Expr(k, e.value, args), {}))
        except EvalError:
            return Expr(k, e.value, args)
    if k == SUM:
        a, b = args
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    elif k == PRODUCT:
        a, b = args
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return _ZERO
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
    elif k == QUOTIENT:
        a, b = args
        if _is_const(a, 0.0) and not _is_const(b, 0.0):
            return _ZERO
        if _is_const(b, 1.0):
            return a
    elif k == POWER:
        a, b = args
        if _is_const(b, 1.0):
            return a
        if _is_const(b, 0.0):
            return _ONE
    elif k == NEG:
        (a,) = args
        if a.kind == CONSTANT:
            return const(-a.value)
        if a.kind == NEG:
            return a.args[0]
    return Expr(k, e.value, args)


def substitute(e: Expr, mapping: Mapping[str, "Expr | float"]) -> Expr:
    """Replace symbols by expressions (numbers are coerced to constants)."""
    if not mapping:
        return e
    if e.kind == SYMBOL:
        if e.value in mapping:
            return _as_expr(mapping[e.value])
        return e
    if e.kind in (CONSTANT,):
        return e
    args = tuple(substitute(a, mapping) for a in e.args)
    if args == e.args:
        return e
    return Expr(e.kind, e.value, args)


def free_symbols(e: Expr) -> frozenset[str]:
    if e.kind == SYMBOL:
        return frozenset((e.value,))
    if e.kind == CONSTANT:
        return frozenset()
    out: frozenset[str] = frozenset()
    for a in e.args:
        out |= free_symbols(a)
    return out


def top_level_terms(e: Expr) -> tuple[Expr, ...]:
    """The additive terms of ``e`` seen from the root (signs stripped).

    They set the cancellation scale in :func:`zero_report_at`: an expression
    that is "zero" because huge terms cancel should be judged relative to the
    size of those terms, not of the sum.  Each term is a subtree of ``e``, so
    one tape pass over ``e`` yields the terms' values too.
    """
    if e.kind == SUM:
        return top_level_terms(e.args[0]) + top_level_terms(e.args[1])
    if e.kind == NEG:
        return top_level_terms(e.args[0])
    return (e,)


# --------------------------------------------------------------------------
# Vectorized evaluation: one tape of distinct subtrees
# --------------------------------------------------------------------------

# The numpy call of a tape slot, by node kind or function name.  The operators
# are the ones a node-by-node walk would apply, so results match it bit for bit.
_TAPE_FNS = {
    SUM: operator.add, PRODUCT: operator.mul, QUOTIENT: operator.truediv,
    POWER: np.power, NEG: operator.neg,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log,
    "sqrt": np.sqrt, "atan": np.arctan, "atan2": np.arctan2,
}


def _tape(roots: Sequence[Expr], idx: Mapping[str, int]):
    """Lay the roots out as a Wengert list: one slot per distinct subtree.

    The walk is an explicit-stack, left-to-right post-order, so slots are
    ordered by first occurrence in a plain tree walk and depth costs no
    Python frames.  A slot is keyed by (kind, value, child slots); constants
    are keyed by ``float.hex`` so that 0.0 and -0.0 (which ``atan2`` tells
    apart) stay separate.  Returns ``(steps, outs)``: ``steps[i]`` is
    ``(op, arg, node)`` and ``outs[j]`` the slot holding ``roots[j]``.
    """
    steps: list[tuple] = []
    slots: dict[tuple, int] = {}
    seen: dict[int, int] = {}   # id(node) -> slot; every node stays alive via roots
    for root in roots:
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in seen:
                stack.pop()
                continue
            todo = [a for a in e.args if id(a) not in seen]
            if todo:
                stack.extend(reversed(todo))
                continue
            stack.pop()
            k = e.kind
            if k == CONSTANT:
                # np.float64, not float: scalar 0/0 must flow through numpy's
                # nan semantics (caught by the finiteness check), not raise.
                key, op, arg = (k, float(e.value).hex()), CONSTANT, np.float64(e.value)
            elif k == SYMBOL:
                if e.value not in idx:
                    raise EvalError(f"unbound symbol {e.value!r}")
                key, op, arg = (k, e.value), SYMBOL, idx[e.value]
            else:
                arg = tuple(seen[id(a)] for a in e.args)
                key, op = (k, e.value, arg), _TAPE_FNS[e.value if k == CALL else k]
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(steps)
                steps.append((op, arg, e))
            seen[id(e)] = slot
    return steps, [seen[id(r)] for r in roots]


def compile_evaluator(e: Expr, names: Sequence[str], terms: Sequence[Expr] = (),
                      strict: bool = True):
    """Compile ``e`` to a callable over equal-length numpy arrays.

    The returned callable takes one array per name (in order) and returns the
    elementwise values of ``e``; with ``terms`` it returns ``(value, [value
    of each term])`` from the same pass, and terms that are subtrees of ``e``
    cost nothing extra.  With ``strict`` (the default) any non-finite value —
    in the result or at any intermediate step — raises :class:`EvalError`
    naming the first such sub-expression and the point, so the vectorized
    path enforces the same no-silent-NaN policy as :func:`evaluate`.  Without
    it non-finite entries stay NaN/inf.
    """
    names = tuple(names)
    steps, outs = _tape((e, *terms), {n: i for i, n in enumerate(names)})

    def run(*cols):
        arrs = [np.asarray(c, dtype=float) for c in cols]
        shape = np.broadcast_shapes(*(a.shape for a in arrs)) if arrs else ()
        vals = []
        with np.errstate(all="ignore"):
            for op, arg, node in steps:
                if op is CONSTANT:
                    v = arg
                elif op is SYMBOL:
                    v = arrs[arg]
                else:
                    v = op(*[vals[j] for j in arg])
                if strict and not np.isfinite(v).all():
                    i = int(np.argmax(np.ravel(~np.isfinite(v))))
                    point = {n: float(a.ravel()[i % a.size]) if a.size else float("nan")
                             for n, a in zip(names, arrs)}
                    raise EvalError(f"non-finite value in {to_string(node)!r} near {point}")
                vals.append(v)
        res = [np.asarray(vals[s], dtype=float) for s in outs]
        res = [r if r.shape == shape else np.broadcast_to(r, shape) for r in res]
        return (res[0], res[1:]) if terms else res[0]

    return run


# --------------------------------------------------------------------------
# Sampling domains and numeric zero tests
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingDomain:
    """A box of variable ranges with excluded loci.

    ``excluded`` expressions mark places to stay away from: a sampled point is
    kept only if every excluded expression has magnitude above ``guard``
    there (non-finite values also reject the point).  Draws are uniform per
    coordinate from ``numpy.random.default_rng(seed)``, so sampling is
    reproducible.  Raises ``ValueError`` unless ``n >= 1`` and every interval
    is finite with ``lo < hi``.
    """

    intervals: Mapping[str, tuple[float, float]]
    excluded: tuple[Expr, ...] = ()
    guard: float = 1e-3
    n: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"need at least one sample point, got n={self.n}")
        for name, (lo, hi) in self.intervals.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(
                    f"interval for {name!r} must be finite with lo < hi, got {lo}:{hi}")

    def names(self) -> tuple[str, ...]:
        return tuple(self.intervals)


def sample(dom: SamplingDomain, params: Mapping[str, float] | None = None) -> dict[str, np.ndarray]:
    """Draw ``dom.n`` admissible points; raises :class:`SamplingError` if the
    rejection loop cannot collect them within ``200 * dom.n`` draws."""
    names = dom.names()
    lows = np.array([dom.intervals[nm][0] for nm in names], dtype=float)
    highs = np.array([dom.intervals[nm][1] for nm in names], dtype=float)
    filters = []
    for e in dom.excluded:
        ee = fold_constants(substitute(e, dict(params or {})))
        extra = free_symbols(ee) - set(names)
        if extra:
            raise SamplingError(
                f"excluded locus has unbound symbols {sorted(extra)}; bind them via params")
        filters.append(compile_evaluator(ee, names, strict=False))

    rng = np.random.default_rng(dom.seed)
    kept: list[np.ndarray] = []
    total = 0
    drawn = 0
    cap = 200 * dom.n
    while total < dom.n and drawn < cap:
        m = min(max(dom.n, 64), cap - drawn)
        batch = rng.uniform(lows, highs, size=(m, len(names)))
        drawn += m
        mask = np.ones(m, dtype=bool)
        for f in filters:
            vals = f(*batch.T)
            mask &= np.isfinite(vals) & (np.abs(vals) > dom.guard)
        good = batch[mask]
        if good.size:
            kept.append(good)
            total += good.shape[0]
    if total < dom.n:
        raise SamplingError(
            f"collected {total}/{dom.n} admissible points after {drawn} draws; "
            "widen the intervals or shrink the guard")
    pts = np.concatenate(kept, axis=0)[: dom.n]
    return {nm: pts[:, i].copy() for i, nm in enumerate(names)}


@dataclass(frozen=True)
class ZeroReport:
    """Outcome of a numeric zero test over a sampling domain.

    ``max_ratio`` is the worst value of |e| / (1 + scale) seen, where the
    scale at a point is the largest top-level additive term there.
    ``witness`` is the argmax point and ``value`` the raw value of ``e`` at
    it (diagnostics even when the test passes).
    """

    ok: bool
    max_ratio: float
    witness: dict[str, float]
    value: float


def zero_report_at(e: Expr, pts: Mapping[str, np.ndarray],
                   tol: float = 1e-9) -> ZeroReport:
    """Zero test of ``e`` at explicit sample points (one array per symbol).

    At each point the test is |e| <= tol * (1 + scale), the scale being the
    largest of the :func:`top_level_terms` there; ``e`` and its terms come
    from one compiled pass.  Every other zero test in the package ends here;
    call it directly when the points come from somewhere other than a box —
    e.g. pushed through a change of coordinates whose inverse is only valid on
    a slice.  Raises ``ValueError`` unless ``tol`` is finite and positive and
    there is at least one point.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    ee = fold_constants(e)
    names = tuple(pts)
    extra = free_symbols(ee) - set(names)
    if extra:
        raise EvalError(
            f"expression has unbound symbols {sorted(extra)}; supply a column for each")
    cols = [np.asarray(pts[nm], dtype=float) for nm in names]
    if any(c.size == 0 for c in cols):
        raise ValueError("need at least one sample point, got none")
    vals, terms = compile_evaluator(ee, names, top_level_terms(ee))(*cols)
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    ratio = np.abs(vals) / (1.0 + scale)
    i = int(np.argmax(ratio))
    witness = {nm: float(cols[k][i]) for k, nm in enumerate(names)}
    return ZeroReport(ok=bool(ratio[i] <= tol), max_ratio=float(ratio[i]),
                      witness=witness, value=float(vals[i]))


def zero_report(e: Expr, dom: SamplingDomain, tol: float = 1e-9,
                params: Mapping[str, float] | None = None) -> ZeroReport:
    """:func:`zero_report_at` on the points :func:`sample` draws from ``dom``,
    after binding ``params``; unbound symbols raise before any sampling."""
    ee = fold_constants(substitute(e, dict(params or {})))
    names = dom.names()
    extra = free_symbols(ee) - set(names)
    if extra:
        raise EvalError(
            f"expression has unbound symbols {sorted(extra)}; bind them via params or the domain")
    pts = sample(dom, params)
    return zero_report_at(ee, pts, tol)


def is_zero_numeric(e: Expr, dom: SamplingDomain, tol: float = 1e-9,
                    params: Mapping[str, float] | None = None) -> bool:
    """Is ``e`` numerically zero on ``dom``?

    The relative test of :func:`zero_report_at` on the points of ``dom``.
    Raises :class:`EvalError` if ``e`` fails to evaluate at a sampled point.
    """
    return zero_report(e, dom, tol, params).ok
