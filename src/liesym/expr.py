"""Hash-consed expression trees plus the numeric plumbing built on them.

Everything downstream (ODE systems, prolongations, the catalog) manipulates
right-hand sides symbolically, so this module keeps the expression language
deliberately small: constants, symbols, binary sum/product/quotient/power,
unary negation, and calls to a fixed set of elementary functions.  On top of
the trees it provides a parser, differentiation, constant folding,
substitution, one vectorized numpy evaluator, and seeded uniform draws from
a box for deciding "is this expression numerically zero".

Design notes:

- Nodes are hash-consed (Filliâtre & Conchon, "Type-Safe Modular
  Hash-Consing", 2006): building a node whose kind, value and children match
  a live node returns that node, so structurally equal trees are one object
  and ``==`` and ``hash`` are identity.  The intern table holds nodes weakly,
  keyed on the flat tuple (kind, value, *child ids); constants are keyed by
  ``float.hex``, so ``const(0.0) is not const(-0.0)``.  Nodes are immutable:
  a new node is filled by plain attribute stores on the field-only base
  class ``_Node`` and then made an ``Expr``, whose guards refuse any later
  assignment.
- Each node caches its :func:`fold_constants` result, its derivatives (raw
  and folded) by each variable it contains and its :func:`free_symbols`,
  so shared work is done once per distinct node, and a cached result dies
  with its node.  A result equal to the node is stored as a sentinel; a
  fold result is cached as its own fold.  A derivative that contains its
  node (``exp(u)``) or another node whose derivative contains this one
  (``sin(u)`` and ``cos(u)``) forms a reference cycle, which the cycle
  collector frees.
- Folding is a bottom-up map (:func:`_fold_op`), so a derivation that would
  fold what it builds from folded pieces builds the fold directly with the
  folded constructors (:func:`_fsum` and friends), as the residuals of
  :func:`liesym.symmetry.residual_expressions`, :func:`substitute_folded`
  and :func:`derivative` do; the unfolded tree is never born.
- No value depends on the sign of a zero: ``atan2``, the one operation
  whose finite result could (Kahan, "Branch Cuts for Complex Elementary
  Functions, or Much Ado About Nothing's Sign Bit", 1987), reads -0 as +0.
  A zero's sign shows only in the node and its text.
- Every walk over a tree, pickling included, uses an explicit stack, so
  depth costs no Python frames; :func:`_postorder` asks its readiness test
  once per edge.  A walk skips what its caches or :func:`free_symbols`
  already answer: :func:`differentiate` does not enter a subtree without
  its variable, nor :func:`substitute` one without a mapped symbol.
- :func:`parse` splits its text with one regular-expression scan and
  applies operator precedence with explicit stacks in one loop.
- Printing parenthesizes so that ``parse(to_string(e))`` reproduces the tree
  node-for-node for any parser- or fold-produced tree.
- Domain errors (log of a non-positive number, division by zero, fractional
  power of a negative base) and any other result that is not finite (an
  overflow) raise :class:`EvalError` — never a silent NaN or infinity.
- :func:`compile_evaluator` lays expressions out as a tape (a Wengert
  list) with one numpy call per distinct node; a zero test reads the value
  and its cancellation-scale terms from that one pass.  Zero tests on one
  set of points may grow one tape, a :class:`ValueTable`: each lays out and
  runs only the nodes the table lacks, with the numpy call and operands it
  would have without the table, so results are bit-identical.
- The tape runs with numpy's floating-point flags trapping (overflow, divide
  by zero and invalid; not underflow).  From finite operands the first
  non-finite step is the first to trap; it alone is recomputed with the
  flags off to find the point, and a finite recomputation (a spurious flag)
  is kept.  Columns and constants raise no flag: their slots are checked.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expr", "ParseError", "EvalError", "SamplingDomain",
    "ZeroReport", "ValueTable", "RESERVED_NAMES", "FUNCTIONS",
    "const", "sym", "call", "sin", "cos", "exp", "ln", "sqrt", "atan", "atan2",
    "parse", "to_string", "evaluate", "differentiate", "derivative",
    "fold_constants", "substitute", "substitute_folded", "free_symbols",
    "top_level_terms", "compile_evaluator", "sample", "zero_report_at",
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


#: Weak references to the live nodes, keyed on the flat tuple (kind, value,
#: *child ids); constants on (kind, float.hex).  A node holds its children,
#: so their ids stay valid while its entry lives, and the entry goes when the
#: node is freed.  Ids rather than the children themselves: a key that held
#: its children would keep alive every node on a cycle through the caches
#: below.
_INTERNED: dict[tuple, "_NodeRef"] = {}


class _NodeRef(weakref.ref):
    """A weak reference to a node that knows the node's intern key."""

    __slots__ = ("key",)


def _forget(ref: _NodeRef) -> None:
    """Drop a freed node's entry, unless a new node holds the key by now."""
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


#: A cache entry meaning "the node itself"; storing the node would make a
#: reference cycle that only the cycle collector frees.
_SELF = object()

_NO_SYMBOLS: frozenset[str] = frozenset()

_set = object.__setattr__


class _Node:
    """The fields of a node, with no immutability guard.  :class:`Expr`
    fills a new node through plain stores on this class, then turns it into
    an ``Expr``; no ``_Node`` outlives that."""

    __slots__ = ("kind", "value", "args", "_fold", "_diff", "_free", "__weakref__")


_new_node = object.__new__


class Expr(_Node):
    """One node of an expression tree.

    ``value`` holds the float for constants and the name for symbols and
    calls; it is None for the arithmetic kinds.  ``args`` are the children.
    ``Expr(kind, value, args)`` returns the live node with those fields if
    there is one, so equal trees are the same object.
    """

    __slots__ = ()

    def __new__(cls, kind: str, value: float | str | None = None,
                args: tuple["Expr", ...] = ()):
        if kind == CONSTANT:
            value = float(value)
            key = (kind, value.hex())
        else:
            args = tuple(args)
            # the flat (kind, value, *child ids), spelled out for the two
            # arities nodes have
            if len(args) == 2:
                key = (kind, value, id(args[0]), id(args[1]))
            elif len(args) == 1:
                key = (kind, value, id(args[0]))
            else:
                key = (kind, value, *map(id, args))
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new_node(_Node)
        node.kind = kind
        node.value = value
        node.args = args
        node._diff = None
        # a leaf folds to itself and knows its symbols from the start
        if kind == SYMBOL:
            node._fold = _SELF
            node._free = frozenset((value,))
        elif kind == CONSTANT:
            node._fold = _SELF
            node._free = _NO_SYMBOLS
        else:
            node._fold = node._free = None
        node.__class__ = Expr
        ref = _INTERNED[key] = _NodeRef(node, _forget)
        ref.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError("Expr nodes are immutable")

    def __reduce__(self):
        # (kind, value, *child positions) per distinct node in post-order:
        # flat, so depth costs no frames in pickle or in _rebuild
        pos: dict[Expr, int] = {}
        for n in _postorder(self, pos.__contains__):
            pos[n] = len(pos)
        return (_rebuild, ([(n.kind, n.value, *map(pos.get, n.args)) for n in pos],))

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            e = stack.pop()
            if isinstance(e, str):
                out.append(e)
                continue
            parts = [f"Expr(kind={e.kind!r}, value={e.value!r}, args=("]
            for i, a in enumerate(e.args):
                parts += [", "] * (i > 0) + [a]
            parts.append(",))" if len(e.args) == 1 else "))")
            stack.extend(reversed(parts))
        return "".join(out)

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


def _rebuild(flat: list) -> Expr:
    """The node :meth:`Expr.__reduce__` flattened (the live one if any)."""
    nodes: list[Expr] = []
    for kind, value, *kids in flat:
        nodes.append(Expr(kind, value, tuple(map(nodes.__getitem__, kids))))
    return nodes[-1]


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


def _postorder(root: Expr, ready: Callable[[Expr], bool]) -> Iterator[Expr]:
    """Yield each node under ``root`` that is not ``ready``, children before
    parents and left to right, once.  The caller makes a yielded node ready
    before it asks for the next.  ``ready`` is asked once for the root and
    once per edge below a yielded node.  The stack is explicit, so depth
    costs no Python frames."""
    stack = [root]
    push, pop = stack.append, stack.pop
    while stack:
        e = pop()
        if e is None:  # an expansion marker: the node under it is due
            yield pop()
        elif not ready(e):
            args = e.args
            if args:
                push(e)
                push(None)
                if len(args) == 2:  # no node has more than two children
                    push(args[1])
                push(args[0])  # the leftmost child ends on top
            else:
                yield e


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' factor)?                (power is right-associative)
#   base   := number | name | name '(' expr (',' expr)? ')'
#           | '(' expr ')' | '-' base

#: One token per match, after any whitespace: a number, a name, an operator,
#: or a character that starts no token (which only an error reads).
_SCAN = re.compile(
    r"\s*(?:((?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|([-+*/^(),])"
    r"|(\S))"
)
_END = ("", "", "", "")

#: binary operator -> precedence; '^' is the one right-associative operator
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_BINARY = {"+": SUM, "*": PRODUCT, "/": QUOTIENT, "^": POWER}


def _error(text: str, message: str, index: int) -> ParseError:
    """The error at token ``index`` of ``text``; but a character that starts
    no token is reported first, wherever it stands."""
    spans = [(m.lastindex, m.start(m.lastindex)) for m in _SCAN.finditer(text)]
    for group, pos in spans:
        if group == 4:
            return ParseError(f"unexpected character {text[pos]!r}", pos)
    return ParseError(message, spans[index][1] if index < len(spans) else len(text))


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with a position on syntax errors, unknown
    function names, wrong call arities, and numbers beyond the float range.
    The text is split into tokens by one regular-expression scan, which
    keeps no positions; an error scans again to find its position.
    Operator precedence and nesting are handled with explicit stacks, so
    deep input costs no Python frames.
    """
    tokens = _SCAN.findall(text)
    tokens.append(_END)
    i = 0
    # The group being read: the whole input (fn None), a parenthesized
    # expression (fn "("), or the arguments of a call to fn, named by token
    # ``start``.  Its operands wait under its operators; ``negs`` counts the
    # '-' signs read before the next base.  ``frames`` holds the groups
    # around it.
    fn = start = args = None
    operands, ops, negs, frames = [], [], 0, []
    while True:
        # Read one base, opening a group for each '(' or call on the way.
        num, name, op, _ = tokens[i]
        i += 1
        if op == "-":
            negs += 1
            continue
        if op == "(" or name and tokens[i][2] == "(":
            if name and name not in FUNCTIONS:
                raise _error(text, f"unknown function {name!r}", i - 1)
            frames.append((fn, start, args, operands, ops, negs))
            fn, start, args, operands, ops, negs = name or "(", i - 1, [], [], [], 0
            i += bool(name)
            continue
        if num:
            base = Expr(CONSTANT, float(num))
            if not math.isfinite(base.value):
                raise _error(text, f"number {num!r} is out of the float range", i - 1)
        elif name:
            base = Expr(SYMBOL, name)
        else:
            raise _error(text, f"unexpected token {op!r}" if op else "unexpected end of input", i - 1)
        # Hand the base to its group; close every group that ends after it.
        while True:
            for _ in range(negs):
                # A negated literal becomes a negative constant right away, so
                # "y^(-3)" carries an exponent node of -3, not neg(3).
                base = (Expr(CONSTANT, -base.value) if base.kind == CONSTANT
                        else Expr(NEG, None, (base,)))
            negs = 0
            # Apply the waiting operators that bind at least as tightly as
            # the next token; one that is no binary operator applies them all.
            op = tokens[i][2]
            prec = _PRECEDENCE.get(op, 0)
            bound = prec + (op == "^") if prec else 1
            while ops and _PRECEDENCE[ops[-1]] >= bound:
                left, o = operands.pop(), ops.pop()
                base = (Expr(SUM, None, (left, Expr(NEG, None, (base,)))) if o == "-"
                        else Expr(_BINARY[o], None, (left, base)))
            if prec:
                operands.append(base)
                ops.append(op)
                i += 1
                break
            if fn is None:
                if tokens[i] is not _END:
                    raise _error(text, f"trailing input {''.join(tokens[i])!r}", i)
                return base
            if fn != "(":
                args.append(base)
                if op == "," and len(args) == 1:
                    i += 1
                    break
            if op != ")":
                raise _error(text, "expected ')'", i)
            i += 1
            if fn != "(":
                if len(args) != FUNCTIONS[fn]:
                    raise _error(
                        text, f"{fn} expects {FUNCTIONS[fn]} argument(s), got {len(args)}", start)
                base = Expr(CALL, fn, tuple(args))
            fn, start, args, operands, ops, negs = frames.pop()


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

_LEVEL = {SUM: 1, PRODUCT: 2, QUOTIENT: 2, NEG: 2, POWER: 4,
          CONSTANT: 5, SYMBOL: 5, CALL: 5}


def _fmt_number(v: float) -> str:
    if abs(v) <= 1e15 and v == int(v):  # inf and NaN fall through to repr
        # int() drops the sign of -0.0; "-0" keeps it, so the text re-parses
        # to the same node (no value depends on it)
        return "-0" if v == 0 and math.copysign(1.0, v) < 0 else str(int(v))
    return repr(v)


def _layout(e: Expr) -> tuple[int, list]:
    """The precedence level of ``e`` and its text: strings and
    ``(child, min_level)`` pairs, in order."""
    k = e.kind
    if k == CONSTANT:
        # "-3" re-parses as a negated literal only in base position; treat a
        # negative constant (-0 too) like a neg node for parenthesization.
        neg = math.copysign(1.0, e.value) < 0
        return _LEVEL[NEG] if neg else _LEVEL[CONSTANT], [_fmt_number(e.value)]
    if k == SYMBOL:
        return _LEVEL[SYMBOL], [e.value]
    if k == CALL:
        parts: list = [f"{e.value}("]
        for i, a in enumerate(e.args):
            parts += [", "] * (i > 0) + [(a, 1)]
        return _LEVEL[CALL], parts + [")"]
    if k == SUM:
        a, b = e.args
        if b.kind == NEG:
            return _LEVEL[SUM], [(a, 1), " - ", (b.args[0], 2)]
        if b.kind == CONSTANT and b.value < 0:
            return _LEVEL[SUM], [(a, 1), f" - {_fmt_number(-b.value)}"]
        return _LEVEL[SUM], [(a, 1), " + ", (b, 2)]
    if k == PRODUCT:
        return _LEVEL[PRODUCT], [(e.args[0], 2), " * ", (e.args[1], 3)]
    if k == QUOTIENT:
        return _LEVEL[QUOTIENT], [(e.args[0], 2), " / ", (e.args[1], 3)]
    if k == NEG:
        # '-' binds a bare base in the grammar, so anything that is not an
        # atom (powers included: "-a ^ b" would re-parse as "(-a) ^ b") gets
        # parentheses.
        return _LEVEL[NEG], ["-", (e.args[0], 5)]
    if k == POWER:
        return _LEVEL[POWER], [(e.args[0], 5), " ^ ", (e.args[1], 4)]
    raise ValueError(f"unknown node kind {k!r}")  # pragma: no cover


def to_string(e: Expr) -> str:
    """Render ``e`` so that ``parse(to_string(e))`` rebuilds it structurally."""
    out: list[str] = []
    stack: list = [(e, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, min_level = item
        level, parts = _layout(node)
        if level < min_level:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


# --------------------------------------------------------------------------
# Evaluation (scalar)
# --------------------------------------------------------------------------

# atan2 adds +0.0 to each operand, which turns -0.0 into +0.0 and leaves
# every other value as it is: the principal value in (-pi, pi] then does not
# depend on the sign of a zero, and no value in this package does.
_SCALAR_FNS: dict[str, Callable] = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
    "sqrt": math.sqrt, "atan": math.atan,
    "atan2": lambda a, b: math.atan2(a + 0.0, b + 0.0),
}


def _apply(k: str, fn: str | None, vals: list[float]) -> float:
    """The operation of a node of kind ``k`` (function ``fn`` for a call) on
    its children's values.  A domain error raises; a result that is not
    finite (an overflow) comes back for the caller to judge."""
    if k == SUM:
        return vals[0] + vals[1]
    if k == PRODUCT:
        return vals[0] * vals[1]
    if k == QUOTIENT:
        if vals[1] == 0.0:
            raise EvalError("division by zero")
        return vals[0] / vals[1]
    if k == NEG:
        return -vals[0]
    if k == POWER:
        b, p = vals
        try:
            return math.pow(b, p)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"pow({b!r}, {p!r}): {exc}") from None
    if k == CALL:
        try:
            return _SCALAR_FNS[fn](*vals)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{fn}({vals!r}): {exc}") from None
    raise ValueError(f"unknown node kind {k!r}")  # pragma: no cover


def evaluate(e: Expr, binding: Mapping[str, float]) -> float:
    """Evaluate at a point.  Raises :class:`EvalError` on any failure,
    a result that is not finite included.

    Children are evaluated left to right before their parent, and a shared
    node once, so the first failure is the one a plain tree walk meets.
    """
    vals: dict[Expr, float] = {}
    for n in _postorder(e, vals.__contains__):
        k = n.kind
        if k == CONSTANT:
            vals[n] = n.value
        elif k == SYMBOL:
            try:
                vals[n] = float(binding[n.value])
            except KeyError:
                raise EvalError(f"unbound symbol {n.value!r}") from None
        else:
            v = vals[n] = _apply(k, n.value, [vals[a] for a in n.args])
            if not math.isfinite(v):
                raise EvalError(f"non-finite value in {to_string(n)!r}")
    return vals[e]


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

_ZERO = const(0.0)
_ONE = const(1.0)
_TWO = const(2.0)
_MINUS_ONE = const(-1.0)


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


class _Rules(NamedTuple):
    """A constructor set for the rule table :func:`_derivative`.  ``add``,
    ``mul``, ``div`` and ``neg`` drop identities as :func:`_add` and friends
    do; ``node`` builds a node of a kind, value and children, and ``lift``
    gives the form (as it is, or folded) of a node of the input."""

    add: Callable
    mul: Callable
    div: Callable
    neg: Callable
    node: Callable
    lift: Callable


def _same(e: Expr) -> Expr:
    return e


#: The raw set: values are the derivative trees themselves.
_RAW = _Rules(_add, _mul, _div, _neg, Expr, _same)


def _derivative(e: Expr, d: list, rules: _Rules):
    """The derivative of the non-leaf ``e`` from its children's derivatives
    ``d``, built by ``rules``."""
    add, mul, div, neg, node, lift = rules
    k = e.kind
    if k == SUM:
        return add(d[0], d[1])
    if k == NEG:
        return neg(d[0])
    if k == PRODUCT:
        a, b = e.args
        return add(mul(d[0], lift(b)), mul(lift(a), d[1]))
    if k == QUOTIENT:
        a, b = map(lift, e.args)
        return div(add(mul(d[0], b), neg(mul(a, d[1]))), node(POWER, None, (b, _TWO)))
    if k == POWER:
        u, v = e.args
        du, dv = d
        if _is_const(dv, 0.0):
            w = (const(v.value - 1.0) if v.kind == CONSTANT
                 else node(SUM, None, (lift(v), _MINUS_ONE)))
            return mul(mul(lift(v), node(POWER, None, (lift(u), w))), du)
        ln_u = node(CALL, "ln", (lift(u),))
        if _is_const(du, 0.0):
            return mul(mul(lift(e), ln_u), dv)
        return mul(lift(e), add(mul(dv, ln_u), div(mul(lift(v), du), lift(u))))
    if k == CALL:
        fn = e.value
        if fn == "atan2":
            a, b = map(lift, e.args)
            num = add(mul(d[0], b), neg(mul(a, d[1])))
            return div(num, add(node(POWER, None, (a, _TWO)), node(POWER, None, (b, _TWO))))
        du = d[0]
        if _is_const(du, 0.0):
            return _ZERO
        u = lift(e.args[0])
        if fn == "sin":
            return mul(node(CALL, "cos", (u,)), du)
        if fn == "cos":
            return neg(mul(node(CALL, "sin", (u,)), du))
        if fn == "exp":
            return mul(lift(e), du)
        if fn == "ln":
            return div(du, u)
        if fn == "sqrt":
            return div(du, mul(_TWO, lift(e)))
        if fn == "atan":
            return div(du, add(_ONE, node(POWER, None, (u, _TWO))))
    raise ValueError(f"unknown node kind {k!r}")  # pragma: no cover


def _differentiate(e: Expr, var: str, rules: _Rules, key):
    """The derivative of ``e`` by ``var`` built by ``rules``, kept on each
    node that contains ``var`` under ``key``."""
    free_symbols(e)  # fills every node's _free, read by ready() below
    lift, neg = rules.lift, rules.neg
    done: dict[Expr, Expr] = {}

    def ready(n: Expr) -> bool:
        if n in done:
            return True
        if var not in n._free:
            # the zeros of the spine nodes are stored too, so shared spines
            # are walked once
            spine = []
            while n not in done and (n.kind == SUM or n.kind == NEG):
                spine.append(n)
                n = n.args[-1]
            d = done.setdefault(n, _ZERO)
            for m in reversed(spine):
                if m.kind == NEG:
                    d = neg(d)
                done[m] = d
            return True
        if n.kind == SYMBOL:
            done[n] = _ONE
            return True
        r = None if n._diff is None else n._diff.get(key)
        if r is not None:
            done[n] = lift(n) if r is _SELF else r
            return True
        return False

    for n in _postorder(e, ready):
        r = done[n] = _derivative(n, [done[a] for a in n.args], rules)
        if n._diff is None:
            _set(n, "_diff", {})
        n._diff[key] = _SELF if r == lift(n) else r
    return done[e]


def differentiate(e: Expr, var: str) -> Expr:
    """Partial derivative with respect to ``var``.

    The result is built through identity-dropping constructors (``0*e``,
    ``e+0`` and friends never appear) but is not otherwise simplified;
    the library calls the folded :func:`derivative`.  Each node that
    contains ``var`` keeps its derivative by ``var``.

    A subtree without ``var`` (known from the cached :func:`free_symbols`)
    is not walked.  These constructors make its derivative a zero whose
    sign follows its right spine of sums and negations: a sum whose left
    derivative is zero keeps the right one, a negation flips the sign, and
    every other kind gives +0.  So d(y - 1)/dz is -0; no value depends on
    that sign.
    """
    return _differentiate(e, var, _RAW, var)


# --------------------------------------------------------------------------
# Folding, substitution, inspection
# --------------------------------------------------------------------------

def _fold_of(e: Expr) -> Expr:
    """``fold_constants(e)``, read from the cache when it is there."""
    r = e._fold
    return e if r is _SELF else fold_constants(e) if r is None else r


def _fold_op(k: str, value, args: tuple[Expr, ...]) -> Expr:
    """The fold of a node of kind ``k`` and ``value`` whose children fold to
    ``args``, without building that node unless it is what the fold keeps.

    Folding is a bottom-up map, so this is the one rule: for folded ``a`` and
    ``b``, ``_fold_op(SUM, None, (a, b)) is fold_constants(a + b)``.  The
    result is marked as its own fold.
    """
    if args[0].kind == CONSTANT and (len(args) == 1 or args[1].kind == CONSTANT):
        try:
            v = _apply(k, value, [a.value for a in args])
        except EvalError:
            v = math.inf
        # a failure or an overflow stays as written, like 1/0 and 1e308*10
        r = const(v) if math.isfinite(v) else Expr(k, value, args)
    elif k == SUM:
        r = _add(*args)
    elif k == PRODUCT:
        r = _mul(*args)
    elif k == NEG:
        r = _neg(args[0])
    elif (k == QUOTIENT and _is_const(args[0], 0.0)
          and not _is_const(args[1], 0.0)):
        r = _ZERO
    elif (k == QUOTIENT or k == POWER) and _is_const(args[1], 1.0):
        r = args[0]
    elif k == POWER and _is_const(args[1], 0.0):
        r = _ONE
    else:
        r = Expr(k, value, args)
    if r._fold is None:
        _set(r, "_fold", _SELF)
    return r


# Folded constructors: each takes folded operands and returns the fold of the
# operator-built tree, ``_fsum(a, b) is fold_constants(a + b)``, without
# building that tree.
def _fsum(a: Expr, b: Expr) -> Expr:
    return _fold_op(SUM, None, (a, b))


def _fmul(a: Expr, b: Expr) -> Expr:
    return _fold_op(PRODUCT, None, (a, b))


def _fneg(a: Expr) -> Expr:
    return _fold_op(NEG, None, (a,))


def _fsub(a: Expr, b: Expr) -> Expr:
    return _fsum(a, _fneg(b))


def fold_constants(e: Expr) -> Expr:
    """Bottom-up simplification: constant subtrees are evaluated, and the
    identities ``0*e``, ``e*1``, ``e+0``, ``e^1``, ``e^0``, ``0/e``, ``e/1``,
    ``neg(neg(e))`` are dropped.  Idempotent; preserves values everywhere the
    input evaluates.  A constant subtree whose evaluation fails (say ``1/0``)
    or overflows (``1e308*10``) is kept as-is so the error still surfaces at
    evaluation time, naming what the input wrote.  The result is cached on
    every node it visits, and on the result, which folds to itself.
    """
    for n in _postorder(e, lambda n: n._fold is not None):
        r = _fold_op(n.kind, n.value, tuple([_fold_of(a) for a in n.args]))
        if r is not n:
            _set(n, "_fold", r)
    return _fold_of(e)


def _fdiv(a: Expr, b: Expr) -> Expr:
    # a literal zero numerator is dropped, as :func:`_div` drops it, so the
    # derivative of atan2(0 * y, 0 * y) by y is 0, not 0 / 0
    return _ZERO if _is_const(a, 0.0) else _fold_op(QUOTIENT, None, (a, b))


#: The folded set: values are folded nodes, built by the folded constructors.
_FOLDED = _Rules(_fsum, _fmul, _fdiv, _fneg, _fold_op, _fold_of)


def derivative(e: Expr, var: str) -> Expr:
    """The folded partial derivative by ``var``: the rule table of
    :func:`differentiate` run over the folded constructors, in one walk.
    Where both evaluate, its values are those of the folded
    :func:`differentiate` tree, up to the sign of a zero.  Each node that
    contains ``var`` keeps it, under a key beside the raw derivative's."""
    return _differentiate(e, var, _FOLDED, (var,))


def _substitute(e: Expr, mapping: Mapping[str, "Expr | float"],
                leaf: Callable[[Expr], Expr], build: Callable) -> Expr:
    """The one walk of :func:`substitute` and :func:`substitute_folded`:
    ``leaf`` maps a subtree without mapped symbols and each mapped value,
    ``build`` makes a node from its kind, value and mapped children."""
    if not mapping:
        return leaf(e)
    names = mapping.keys()
    free_symbols(e)  # fills every node's _free, read by ready() below
    done: dict[Expr, Expr] = {}

    def ready(n: Expr) -> bool:
        if n in done:
            return True
        if names.isdisjoint(n._free):
            done[n] = leaf(n)
            return True
        if n.kind == SYMBOL:
            done[n] = leaf(_as_expr(mapping[n.value]))
            return True
        return False

    for n in _postorder(e, ready):
        done[n] = build(n.kind, n.value, tuple([done[a] for a in n.args]))
    return done[e]


def substitute(e: Expr, mapping: Mapping[str, "Expr | float"]) -> Expr:
    """Replace symbols by expressions (numbers are coerced to constants).

    A subtree with none of the mapped symbols comes back as it is, found
    from the cached :func:`free_symbols` without walking it.  The result is
    not folded; :func:`substitute_folded` returns its fold in one walk.
    """
    return _substitute(e, mapping, _same, Expr)


def substitute_folded(e: Expr, mapping: Mapping[str, "Expr | float"]) -> Expr:
    """The :func:`fold_constants` of ``substitute(e, mapping)``, built in one
    walk.

    Substitution drops no identities, so its fold is :func:`_fold_op` applied
    bottom-up over the folds of the untouched subtrees and of the mapped
    values; the unfolded tree is never built.
    """
    return _substitute(e, mapping, _fold_of, _fold_op)


def free_symbols(e: Expr) -> frozenset[str]:
    """The symbol names in ``e``; cached on every node."""
    for n in _postorder(e, lambda n: n._free is not None):
        out = n.args[0]._free
        for a in n.args[1:]:
            if not a._free <= out:  # else share the child's set
                out = out | a._free
        _set(n, "_free", out)
    return e._free


def top_level_terms(e: Expr) -> tuple[Expr, ...]:
    """The additive terms of ``e`` seen from the root (signs stripped).

    They set the cancellation scale in :func:`zero_report_at`: an expression
    that is "zero" because huge terms cancel should be judged relative to the
    size of those terms, not of the sum.  Each term is a subtree of ``e``, so
    one tape pass over ``e`` yields the terms' values too.
    """
    terms = []
    stack = [e]
    while stack:
        n = stack.pop()
        if n.kind == SUM:
            stack += [n.args[1], n.args[0]]
        elif n.kind == NEG:
            stack.append(n.args[0])
        else:
            terms.append(n)
    return tuple(terms)


# --------------------------------------------------------------------------
# Vectorized evaluation: one tape of distinct nodes
# --------------------------------------------------------------------------

# The numpy call of a tape slot, by node kind or function name.  The operators
# are the ones a node-by-node walk would apply, so results match it bit for bit.
_TAPE_FNS = {
    SUM: operator.add, PRODUCT: operator.mul, QUOTIENT: operator.truediv,
    POWER: np.power, NEG: operator.neg,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log,
    "sqrt": np.sqrt, "atan": np.arctan,
    "atan2": lambda a, b: np.arctan2(a + 0.0, b + 0.0),  # as in _SCALAR_FNS
}


class ValueTable(dict):
    """The tape of one set of points: node -> value of each node, leaves
    included, that the callables :func:`compile_evaluator` makes on it have
    evaluated.  A compile lays out only the nodes the table lacks, and its
    callable's first run evaluates exactly those, so a column is read and
    checked once per table; compiling while an earlier callable waits for
    that run raises ``ValueError``.  The first run binds the table:
    ``points`` holds copies of its columns, and a run on other names or
    columns (or these changed in place) raises ``ValueError``.  A refused
    compile adds nothing, and a run that raises takes its values off again.
    Do not write to the arrays an evaluator returns while in a table.
    """

    __slots__ = ("points", "_key", "_cols", "_pending")

    def __init__(self):
        super().__init__()
        self.points: dict[str, np.ndarray] | None = None
        self._pending: list | None = None  # steps laid out, not yet run

    def _lay_out(self, roots: Sequence[Expr], idx: Mapping[str, int]) -> list[tuple]:
        if self._pending:
            raise ValueError("an earlier evaluator on this value table has not run")
        self._pending = _tape(roots, idx, self)
        return self._pending

    def _bind(self, names: tuple[str, ...], arrs: list[np.ndarray]) -> None:
        key = names, [a.shape for a in arrs], [a.tobytes() for a in arrs]
        if self.points is None:
            self._cols = [a.copy() for a in arrs]
            self.points, self._key = dict(zip(names, self._cols)), key
        elif key != self._key:
            raise ValueError("the value table was filled at other points")


def _tape(roots: Sequence[Expr], idx: Mapping[str, int], held=()) -> list[tuple]:
    """Lay the roots out as a Wengert list: one step per distinct node not in
    ``held`` (nothing held is walked), in left-to-right post-order of first
    occurrence.  A step is ``(op, a, b, node)``: an operation reads nodes
    ``a`` and ``b`` (``b`` is None for one operand); a constant step holds
    its value in ``a``, a symbol step its column index."""
    laid: dict[Expr, tuple] = {}  # node -> its step, in tape order
    ready = (lambda e: e in laid or e in held) if held else laid.__contains__
    for root in roots:
        if ready(root):
            continue
        for e in _postorder(root, ready):
            k = e.kind
            if k == CONSTANT:
                # np.float64, not float: scalar 0/0 must go through numpy's
                # floating-point flags (trapped by the run), not raise.
                step = (CONSTANT, np.float64(e.value), None, e)
            elif k == SYMBOL:
                if e.value not in idx:
                    raise EvalError(f"unbound symbol {e.value!r}")
                step = (SYMBOL, idx[e.value], None, e)
            else:
                args = e.args
                step = (_TAPE_FNS[e.value if k == CALL else k], args[0],
                        args[1] if len(args) == 2 else None, e)
            laid[e] = step
    return list(laid.values())


def _run(steps: list[tuple], vals: dict, names: tuple[str, ...], arrs: list[np.ndarray],
         roots: tuple[Expr, ...], terms) -> object:
    """Add each step's value to ``vals`` at the columns ``arrs`` of ``names``;
    return the roots' values in the columns' shape, as documented for the
    callable of :func:`compile_evaluator`."""

    def fail(node, v):
        i = int(np.argmax(np.ravel(~np.isfinite(v))))
        point = {n: float(a.ravel()[i % a.size]) if a.size else float("nan")
                 for n, a in zip(names, arrs)}
        raise EvalError(f"non-finite value in {to_string(node)!r} near {point}")

    # the first step whose value is not finite traps (see the module notes);
    # it alone is recomputed with the flags off, and a finite value is kept
    with np.errstate(all="raise", under="ignore"):
        for op, a, b, node in steps:
            if op is CONSTANT:
                v = a
                if not math.isfinite(v):
                    fail(node, v)
            elif op is SYMBOL:
                v = arrs[a]
                if not np.isfinite(v).all():
                    fail(node, v)
            else:
                operands = (vals[a],) if b is None else (vals[a], vals[b])
                try:
                    v = op(*operands)
                except FloatingPointError:
                    with np.errstate(all="ignore"):
                        v = op(*operands)
                    if not np.isfinite(v).all():
                        fail(node, v)
            vals[node] = v
    shapes = {a.shape for a in arrs}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    # a value is a float64 array or scalar; np.full broadcasts every bit
    res = [v if type(v) is np.ndarray and v.shape == shape else np.full(shape, v)
           for v in map(vals.__getitem__, roots)]
    return (res[0], res[1:]) if terms else res[0]


def compile_evaluator(e: Expr, names: Sequence[str], terms: Sequence[Expr] = (), *,
                      shared: ValueTable | None = None):
    """Compile ``e`` to a callable over equal-length numpy arrays.

    The returned callable takes one array per name (in order) and returns the
    elementwise values of ``e``; with ``terms`` it returns ``(value, [value
    of each term])`` from the same pass, and terms that are subtrees of ``e``
    cost nothing extra.  Any non-finite value — in the result or at any
    intermediate step — raises :class:`EvalError` naming the first such
    sub-expression and the point, so the vectorized path enforces the same
    no-silent-NaN policy as :func:`evaluate`.

    With ``shared``, a :class:`ValueTable`, only the nodes the table lacks
    are laid out, and only the first call evaluates them; a call that raises
    takes them off, for a later call to lay out again.  Values and errors
    are those of a callable without the table.
    """
    names = tuple(names)
    roots = (e, *terms)
    idx = {n: i for i, n in enumerate(names)}
    if shared is None:
        steps = _tape(roots, idx)
        return lambda *cols: _run(steps, {}, names,
                                  [np.asarray(c, dtype=float) for c in cols], roots, terms)

    table = shared
    steps = table._lay_out(roots, idx)

    def run(*cols):
        nonlocal steps
        if steps is None:  # taken off by a run that raised
            steps = table._lay_out(roots, idx)
        try:
            table._bind(names, [np.asarray(c, dtype=float) for c in cols])
            out = _run(steps, table, names, table._cols, roots, terms)
        except BaseException:
            if steps:  # take its values off; an emptied table is unbound
                for step in steps:
                    table.pop(step[3], None)
                if not table:
                    table.points = None
                steps = table._pending = None
            raise
        if steps:  # run: its values are the table's now
            steps, table._pending = (), None
        return out

    return run


# --------------------------------------------------------------------------
# Sampling boxes and the numeric zero test
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingDomain:
    """A box of variable ranges to draw ``n`` points from.

    Draws are uniform per coordinate from ``numpy.random.default_rng(seed)``,
    so sampling is reproducible.  Raises ``ValueError`` unless ``n >= 1``,
    ``seed >= 0`` and every interval is finite with ``lo < hi``.
    """

    intervals: Mapping[str, tuple[float, float]]
    n: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"need at least one sample point, got n={self.n}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        for name, (lo, hi) in self.intervals.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(
                    f"interval for {name!r} must be finite with lo < hi, got {lo}:{hi}")

    def names(self) -> tuple[str, ...]:
        return tuple(self.intervals)


def sample(dom: SamplingDomain) -> dict[str, np.ndarray]:
    """Draw ``dom.n`` points: one ``(n, k)`` uniform draw over the box, one
    column per name."""
    names = dom.names()
    lows = np.array([dom.intervals[nm][0] for nm in names], dtype=float)
    highs = np.array([dom.intervals[nm][1] for nm in names], dtype=float)
    pts = np.random.default_rng(dom.seed).uniform(lows, highs, size=(dom.n, len(names)))
    return {nm: pts[:, i].copy() for i, nm in enumerate(names)}


@dataclass(frozen=True)
class ZeroReport:
    """Outcome of a numeric zero test at a set of sample points.

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
                   tol: float = 1e-9, *, shared: ValueTable | None = None) -> ZeroReport:
    """Zero test of ``e`` at explicit sample points (one array per symbol).

    At each point the test is |e| <= tol * (1 + scale), the scale being the
    largest of the :func:`top_level_terms` there; ``e`` and its terms come
    from one compiled pass.  This is the package's one zero test: bind
    parameters with :func:`substitute` first; the points come from
    :func:`sample` or, e.g., a change of coordinates pushed onto a slice.
    Raises ``ValueError`` unless ``tol`` is finite and positive and there is
    at least one point, with one column shape for all symbols.

    Several tests on the same ``pts`` may grow one :class:`ValueTable`, passed
    as ``shared``: each test lays out and runs only the nodes the table
    lacks, and its report is the one an unshared call gives.  A table bound
    to other points raises ``ValueError``; a refused test adds nothing.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    ee = fold_constants(e)
    names = tuple(pts)
    try:  # columns before the compile, but an unbound symbol is reported first
        cols = [np.asarray(pts[nm], dtype=float) for nm in names]
        if not cols or any(c.size == 0 for c in cols):
            raise ValueError("need at least one sample point, got none")
        if len({c.shape for c in cols}) > 1:
            raise ValueError("sample columns differ in shape: "
                             + ", ".join(f"{nm} {c.shape}" for nm, c in zip(names, cols)))
        run = compile_evaluator(ee, names, top_level_terms(ee), shared=shared)
    except (EvalError, ValueError):
        extra = free_symbols(ee).difference(names)
        if extra:
            raise EvalError(f"expression has unbound symbols {sorted(extra)}; "
                            "supply a column for each") from None
        raise
    vals, terms = run(*cols)
    scale = np.abs(terms[0]) if len(terms) == 1 else np.abs(np.stack(terms)).max(axis=0)
    ratio = np.abs(vals) / (1.0 + scale)
    i = int(np.argmax(ratio))
    witness = {nm: float(cols[k][i]) for k, nm in enumerate(names)}
    return ZeroReport(ok=bool(ratio[i] <= tol), max_ratio=float(ratio[i]),
                      witness=witness, value=float(vals[i]))

