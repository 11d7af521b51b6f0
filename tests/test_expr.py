"""Expression engine tests.

The ground truths here are (a) a reference recursive evaluator written below
with no cleverness at all, checked bit-for-bit against the library, and
(b) central finite differences for every derivative rule.
"""

from __future__ import annotations

import ast
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import liesym.expr as ex
import oracles
from liesym import catalog
from liesym.expr import (
    EvalError, ParseError, SamplingDomain, ValueTable,
    compile_evaluator, derivative, differentiate, evaluate, fold_constants,
    free_symbols, parse, sample, substitute, substitute_folded, to_string,
    top_level_terms, zero_report_at,
)

# ---------------------------------------------------------------------------
# Oracle: the reference evaluator.  Kept deliberately naive.
# ---------------------------------------------------------------------------

# atan2 reads -0 as +0: its principal value does not hang on a zero's sign
_REF_FNS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
            "sqrt": math.sqrt, "atan": math.atan,
            "atan2": lambda a, b: math.atan2(a + 0.0, b + 0.0)}


def reference_eval(e, b):
    """Plain recursive evaluation; an operation whose result is not finite
    raises, as :func:`evaluate` documents."""
    k = e.kind
    if k == "constant":
        return e.value
    if k == "symbol":
        return float(b[e.value])
    v = [reference_eval(a, b) for a in e.args]
    if k == "sum":
        r = v[0] + v[1]
    elif k == "product":
        r = v[0] * v[1]
    elif k == "quotient":
        r = v[0] / v[1]
    elif k == "neg":
        r = -v[0]
    elif k == "power":
        r = math.pow(v[0], v[1])
    elif k == "call":
        r = _REF_FNS[e.value](*v)
    else:
        raise AssertionError(f"unknown kind {k}")
    if not math.isfinite(r):
        raise EvalError("non-finite value")
    return r


def _run(thunk):
    """Normalize result-or-error so both evaluators can be compared."""
    try:
        return ("ok", thunk())
    except (EvalError, KeyError, ZeroDivisionError, ValueError, OverflowError):
        return ("err", None)


# ---------------------------------------------------------------------------
# Random trees
# ---------------------------------------------------------------------------

_consts = st.floats(min_value=-4.0, max_value=4.0,
                    allow_nan=False, allow_infinity=False).map(ex.const)
_syms = st.sampled_from(["x", "y", "z", "p"]).map(ex.sym)
_unary_names = st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "atan"])


def _extend(ch):
    return st.one_of(
        st.tuples(ch, ch).map(lambda t: t[0] + t[1]),
        st.tuples(ch, ch).map(lambda t: t[0] - t[1]),
        st.tuples(ch, ch).map(lambda t: t[0] * t[1]),
        st.tuples(ch, ch).map(lambda t: t[0] / t[1]),
        ch.map(lambda e: -e),
        st.tuples(ch, st.integers(-3, 3)).map(lambda t: t[0] ** t[1]),
        st.tuples(_unary_names, ch).map(lambda t: ex.call(t[0], t[1])),
        st.tuples(ch, ch).map(lambda t: ex.atan2(t[0], t[1])),
    )


trees = st.recursive(st.one_of(_consts, _syms), _extend, max_leaves=10)

bindings = st.fixed_dictionaries(
    {n: st.floats(min_value=-2.5, max_value=2.5, allow_nan=False, allow_infinity=False)
     for n in ["x", "y", "z", "p"]})


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_negative_exponent_literal():
    e = parse("y^(-3)")
    assert e.kind == "power"
    base, expo = e.args
    assert base == ex.sym("y")
    assert expo == ex.const(-3.0)


def test_parse_structure():
    e = parse("2*y + z/(y - 1)")
    assert e.kind == "sum"
    left, right = e.args
    assert left == ex.const(2.0) * ex.sym("y")
    assert right.kind == "quotient"
    assert right.args[0] == ex.sym("z")


def test_parse_power_right_associative():
    e = parse("y ^ 2 ^ 3")
    assert e.kind == "power"
    assert e.args[1].kind == "power"


def test_parse_subtraction_left_associative():
    e = parse("x - y - z")
    # (x - y) - z
    assert e.kind == "sum"
    assert e.args[1] == -ex.sym("z")
    inner = e.args[0]
    assert inner.kind == "sum"
    assert inner.args[1] == -ex.sym("y")


def test_parse_unary_minus_binds_tighter_than_power_base():
    # '-' is part of the base, so -x^2 is (-x)^2 by this grammar.
    e = parse("-x^2")
    assert e.kind == "power"
    assert e.args[0] == -ex.sym("x")


def test_parse_calls():
    assert parse("atan2(z, y)") == ex.atan2(ex.sym("z"), ex.sym("y"))
    assert parse("sin(x)*cos(x)") == ex.sin(ex.sym("x")) * ex.cos(ex.sym("x"))


#: bad input -> (message, position) of its ParseError
PARSE_ERRORS = {
    "2 ** y": ("unexpected token '*'", 3),
    "y + *": ("unexpected token '*'", 4),
    "sin()": ("unexpected token ')'", 4),
    "foo(y)": ("unknown function 'foo'", 0),
    "y(2)": ("unknown function 'y'", 0),
    "(y": ("expected ')'", 2),
    "atan2(y, z, x)": ("expected ')'", 10),
    "atan2(y)": ("atan2 expects 2 argument(s), got 1", 0),
    "sin(y, z)": ("sin expects 1 argument(s), got 2", 0),
    "y $ z": ("unexpected character '$'", 2),
    "y +  \té": ("unexpected character 'é'", 6),
    # a character that starts no token is reported before an earlier error
    "(1e400 + $)": ("unexpected character '$'", 9),
    ".": ("unexpected character '.'", 0),
    "3 3": ("trailing input '3'", 2),
    "y + z)": ("trailing input ')'", 5),
    "cos y": ("trailing input 'y'", 4),
    "1.2.3": ("trailing input '.3'", 3),
    "": ("unexpected end of input", 0),
    "y +": ("unexpected end of input", 3),
    "-": ("unexpected end of input", 1),
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_errors(bad):
    message, pos = PARSE_ERRORS[bad]
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


# Pieces of token soups: every token kind, whitespace the scanner skips, and
# characters that start no token ('$', 'é', a superscript two); '٣' is a
# Unicode decimal digit, which numbers take.
_SOUP = ["y", "z", "x", "yp", "p1", "_a", "e", "0", "1", "2.5", ".5", "3.", "1e3",
         "1E+2", "1e400", "2e-999", "٣", "+", "-", "*", "/", "^", "(", ")", ",",
         " ", "\t", "\n", "$", "é", "²", ".", "..", "sin", "cos", "exp", "ln",
         "sqrt", "atan", "atan2", "foo", "sin(", "atan2(", "foo("]


def _grammatical(rng, depth=0) -> str:
    """A random text of the grammar, with random spacing."""
    def sp():
        return rng.choice(["", " ", "  ", "\t"])

    r = rng.random()
    if depth > 4 or r < 0.3:
        return rng.choice(["y", "z", "x", "p", "2", "0.5", "1e-3", "3."])
    if r < 0.6:
        op = rng.choice("+-*/^")
        return _grammatical(rng, depth + 1) + sp() + op + sp() + _grammatical(rng, depth + 1)
    if r < 0.7:
        return "-" + sp() + _grammatical(rng, depth + 1)
    if r < 0.8:
        return "(" + sp() + _grammatical(rng, depth + 1) + sp() + ")"
    fn = rng.choice(sorted(ex.FUNCTIONS))
    args = [_grammatical(rng, depth + 1) for _ in range(ex.FUNCTIONS[fn])]
    return fn + sp() + "(" + ("," + sp()).join(args) + ")"


def _soups(seed: int, n: int):
    """``n`` seeded texts: half token soups, half grammatical texts with
    every other one broken by one inserted, dropped or replaced piece."""
    rng = random.Random(seed)
    for k in range(n):
        if k % 2:
            yield "".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 14)))
            continue
        text = _grammatical(rng)
        if k % 4:
            at = rng.randint(0, len(text))
            cut = rng.randint(0, 2)
            text = text[:at] + rng.choice(_SOUP + [""]) + text[at + cut:]
        yield text


def _laurent_text(rng, k: int) -> str:
    """A right-hand side as the benchmark's ``check`` workload writes it: a
    sum of k terms c * y ^ (a) * z ^ (d - a)."""
    d = float(rng.uniform(-3.0, 0.5))
    terms = []
    for a in rng.permutation([i % 7 - 3 for i in range(k)]):
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        terms.append(f"{c!r} * y ^ ({int(a)}) * z ^ ({d - int(a)!r})")
    return " + ".join(terms)


def _same_parse(text: str) -> bool:
    """``parse`` returns the reference parser's node, or raises its error;
    True when the text parsed."""
    try:
        want = oracles.reference_parse(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (str(got.value), got.value.pos) == (str(err), err.pos), text
        return False
    assert parse(text) is want, text
    return True


def test_parse_matches_reference_on_soups():
    parsed = sum(_same_parse(text) for text in _soups(2024, 20_000))
    # both outcomes are well represented
    assert 3_000 < parsed < 17_000


@given(trees)
def test_parse_matches_reference_on_printed_trees(t):
    _same_parse(to_string(t))


def test_parse_matches_reference_on_check_workload_texts():
    rng = np.random.default_rng(161)
    for k in (2, 3, 8, 32, 181, 256):
        _same_parse(_laurent_text(rng, k))


def test_parse_rejects_numbers_beyond_float_range():
    # a literal that overflows to inf (or makes a nan) is a ParseError at its
    # position, not a constant that cannot be printed
    for text, pos in (("1e400 * y", 0), ("(1e400 - 1e400) * y", 1), ("y - 2e999", 4)):
        with pytest.raises(ParseError, match="out of the float range") as err:
            parse(text)
        assert err.value.pos == pos
    assert parse("1.7e308 * y").args[0].value == 1.7e308


def test_fold_keeps_an_overflowing_subtree():
    # folding 1e308 * 10 would make an inf constant that prints as a symbol;
    # the subtree stays as written, prints and parses back to the same node
    e = parse("1e308 * 10 * y")
    folded = fold_constants(e)
    assert folded is e
    assert parse(to_string(folded)) is e
    with pytest.raises(EvalError, match=re.escape("non-finite value in '1e+308 * 10'")):
        compile_evaluator(folded, ("y",))(np.array([1.0]))


# ---------------------------------------------------------------------------
# Printing round trip
# ---------------------------------------------------------------------------

ROUNDTRIP_CORPUS = [
    "y ^ -3",
    "-x ^ 2",
    "2 * -1.5",
    "x - -3",
    "(y + z) / (y - z) ^ 2",
    "atan2(z, y)",
    "exp(4 * atan(z / y)) * (y ^ 2 + z ^ 2) ^ -2",
    "x / y / z",
    "x / (y / z)",
    "x - (y - z)",
    "1e-3 * y + 2.5",
    "sqrt(1 + yp ^ 2)",
]


@pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
def test_roundtrip_corpus(text):
    e = parse(text)
    s = to_string(e)
    assert parse(s) == e
    assert to_string(parse(s)) == s


@pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
def test_parse_matches_reference_on_corpus(text):
    _same_parse(text)
    _same_parse(to_string(parse(text)))


@given(trees)
def test_roundtrip_property(t):
    # print∘parse is a retraction: once an expression has been through the
    # parser, printing and reparsing reproduces it exactly.
    e = parse(to_string(t))
    assert parse(to_string(e)) == e


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_ORIGIN = {"x": 0.0, "y": 0.0, "z": 0.0, "p": 0.0}


@given(trees, bindings)
@settings(max_examples=200)
@example(-ex.atan2(0.0, -ex.const(0.0)), _ORIGIN)
def test_evaluate_matches_reference_bit_for_bit(t, b):
    got = _run(lambda: evaluate(t, b))
    want = _run(lambda: reference_eval(t, b))
    assert got[0] == want[0]
    if got[0] == "ok":
        a, r = got[1], want[1]
        assert (a == r) or (math.isnan(a) and math.isnan(r))


@pytest.mark.parametrize("text, binding", [
    ("ln(y)", {"y": -1.0}),
    ("ln(y)", {"y": 0.0}),
    ("sqrt(y)", {"y": -4.0}),
    ("1 / y", {"y": 0.0}),
    ("y ^ 0.5", {"y": -2.0}),
    ("y ^ -1", {"y": 0.0}),
    ("y + z", {"y": 1.0}),
])
def test_evaluate_domain_errors(text, binding):
    with pytest.raises(EvalError):
        evaluate(parse(text), binding)
    # the tape's floating-point trap catches each one as well
    names = tuple(binding)
    with pytest.raises(EvalError):
        compile_evaluator(parse(text), names)(*[np.array([binding[n]]) for n in names])


@pytest.mark.parametrize("text, y, culprit", [
    # float division and multiplication overflow without raising
    ("(1 / y) ^ 0", 2.225073858507e-311, "1 / y"),
    ("1e308 * 10 * y", 1.0, "1e+308 * 10"),
])
def test_overflowing_intermediate_raises(text, y, culprit):
    # an infinity that a later operation would wash out must not get through
    message = re.escape(f"non-finite value in '{culprit}'")
    with pytest.raises(EvalError, match=message):
        evaluate(parse(text), {"y": y})
    with pytest.raises(EvalError, match=message):
        compile_evaluator(parse(text), ("y",))(np.array([y]))


def test_non_finite_constant_stays_and_raises():
    # const() takes any float; a fold must keep such a subtree, and the error
    # must be able to print it
    e = ex.const(math.inf) + 1.0
    assert fold_constants(e) is e
    with pytest.raises(EvalError, match=re.escape("non-finite value in 'inf + 1'")):
        evaluate(e, {})


def test_evaluate_plain():
    assert evaluate(parse("2*y + z/(y - 1)"), {"y": 3.0, "z": 4.0}) == 8.0
    assert evaluate(parse("y^(-3)"), {"y": 2.0}) == 0.125


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def test_differentiate_power_example():
    d = fold_constants(differentiate(parse("y^(-3)"), "y"))
    assert d == parse("-3 * y ^ -4")


def test_differentiate_chain_rule():
    d = fold_constants(differentiate(parse("sin(y * z)"), "y"))
    assert d == parse("cos(y * z) * z")


def test_differentiate_atan2():
    d = fold_constants(differentiate(parse("atan2(z, y)"), "y"))
    assert d == parse("-z / (z ^ 2 + y ^ 2)")


def test_differentiate_wrt_absent_symbol_is_zero():
    assert fold_constants(differentiate(parse("sin(y)*z^2"), "x")) == ex.const(0.0)


@pytest.mark.parametrize("text, var", [
    ("y - 1", "z"), ("1 - z", "y"), ("y - z", "x"), ("-(-(z))", "y"),
    ("x * -(z)", "y"), ("atan2(z, -(z))", "y"), ("-(1 - z) - y * -(2 - z)", "x"),
    ("y - (2 - -(z - 1))", "y"), ("(z - 1) * y - -(y - 1)", "y"),
])
def test_differentiate_keeps_signed_zeros(text, var):
    # a subtree without var is not walked; its zero still takes the sign the
    # rules give it, which atan2 tells apart
    from oracles import reference_differentiate
    e = parse(text)
    assert differentiate(e, var) is reference_differentiate(e, var)


def test_subtrees_without_the_variable_get_no_derivative_entry():
    inner = parse("sin(q1) * (q2 - 1)")      # names no other test uses
    e = inner * ex.sym("y") + ex.exp(ex.sym("y"))
    differentiate(e, "y")
    assert "y" in e._diff
    stack = [inner]
    while stack:
        n = stack.pop()
        assert n._diff is None or "y" not in n._diff, to_string(n)
        stack += n.args


def test_derivative_by_an_absent_variable_walks_nothing(monkeypatch):
    F = parse("a * z ^ -2 + y * exp(z) - 1")
    free_symbols(F)
    yielded = []
    real = ex._postorder

    def recording(root, ready):
        for n in real(root, ready):
            yielded.append(n)
            yield n

    monkeypatch.setattr(ex, "_postorder", recording)
    assert differentiate(F, "x") is ex.const(-0.0)
    assert yielded == []


@pytest.mark.parametrize("text, var, binding", [
    ("y * z ^ -4 * exp(4 * atan(z / y))", "y", {"y": 1.3, "z": 0.7}),
    ("y * z ^ -4 * exp(4 * atan(z / y))", "z", {"y": 1.3, "z": 0.7}),
    ("(y ^ 2 + z ^ 2) ^ -2", "z", {"y": 0.8, "z": 1.1}),
    ("exp(y / z) * z ^ -4 * (2 * y + 3 * z)", "y", {"y": 0.9, "z": 1.4}),
    ("sqrt(1 + yp ^ 2) * atan2(z, y)", "yp", {"y": 1.0, "z": 2.0, "yp": 0.3}),
    ("sqrt(1 + yp ^ 2) * atan2(z, y)", "z", {"y": 1.0, "z": 2.0, "yp": 0.3}),
    ("ln(y + 2 * z)", "y", {"y": 1.0, "z": 0.5}),
    ("y ^ z", "z", {"y": 2.0, "z": 1.5}),
    ("y ^ z", "y", {"y": 2.0, "z": 1.5}),
], ids=str)
def test_differentiate_vs_fd_fixed(text, var, binding):
    from oracles import fd_partial
    e = parse(text)
    want = fd_partial(e, binding, var, h=1e-6)
    got = evaluate(differentiate(e, var), binding)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


@given(trees, st.sampled_from(["x", "y", "z"]), bindings)
@settings(max_examples=150)
def test_differentiate_vs_fd_property(t, var, b):
    h = 1e-5
    try:
        d_analytic = evaluate(differentiate(t, var), b)
        f = [evaluate(t, {**b, var: b[var] + s}) for s in (-h, -h / 2, h / 2, h)]
        # A stencil wider than |v| reaches across 0, where these trees have
        # their poles (p / z, ln, negative powers); its quotient says nothing
        # about the derivative at v if t is singular there.
        if abs(b[var]) < h:
            evaluate(t, {**b, var: 0.0})
    except EvalError:
        assume(False)
    assume(all(abs(v) < 1e5 for v in f))
    assume(abs(d_analytic) < 1e6)
    fd1 = (f[3] - f[0]) / (2 * h)
    fd2 = (f[2] - f[1]) / h
    # Trust the finite difference only where it has converged on itself.
    assume(abs(fd1 - fd2) <= 1e-6 * (1.0 + abs(fd1)))
    assert abs(d_analytic - fd2) <= 1e-4 * (1.0 + abs(fd2))


# ---------------------------------------------------------------------------
# Folding, substitution, inspection
# ---------------------------------------------------------------------------

def test_fold_identities():
    assert fold_constants(parse("0*y + 1*z + 0")) == ex.sym("z")
    assert fold_constants(parse("y^1")) == ex.sym("y")
    assert fold_constants(parse("y^0")) == ex.const(1.0)
    assert fold_constants(parse("2*3")) == ex.const(6.0)
    assert fold_constants(parse("0/y")) == ex.const(0.0)
    assert fold_constants(parse("y/1")) == ex.sym("y")
    assert fold_constants(-(-ex.sym("y"))) == ex.sym("y")
    assert fold_constants(parse("2 + 3 * 4 - 1")) == ex.const(13.0)
    assert fold_constants(parse("sin(0)")) == ex.const(0.0)


def test_fold_keeps_failing_constant_subtree():
    e = parse("1/0")
    assert fold_constants(e) == e
    with pytest.raises(EvalError):
        evaluate(fold_constants(e), {})


@given(trees)
@settings(max_examples=150)
def test_fold_idempotent(t):
    from oracles import reference_fold

    f1 = fold_constants(t)
    assert fold_constants(f1) == f1
    # the result is cached as its own fold, so check it against a plain fold
    assert reference_fold(f1) is f1


@given(trees, bindings)
@settings(max_examples=150)
# Each example folds 0 + e or 0 - e to e, which flips the sign of a zero
# operand of atan2.  With a fresh database, the first failed here at
# --hypothesis-seed 24 and 92, the second at 44 and the third at 77.
@example(-ex.atan2(0.0, 0.0 - ex.sym("x")), _ORIGIN)
@example(-ex.atan2(0.0, 0.0 + ex.sym("y")), {**_ORIGIN, "y": -0.0})
@example(ex.atan2(0.0, 0.0 - ex.sym("x")), _ORIGIN)
def test_fold_preserves_values(t, b):
    got = _run(lambda: evaluate(t, b))
    folded = _run(lambda: evaluate(fold_constants(t), b))
    if got[0] == "ok" and folded[0] == "ok":
        a, r = got[1], folded[1]
        if math.isfinite(a) and math.isfinite(r):
            assert r == pytest.approx(a, rel=1e-12, abs=1e-12)
    elif got[0] == "err":
        # Folding may not manufacture values out of thin air except by
        # replacing an unevaluated branch of 0*e / e^0; those drop errors
        # deliberately (0 * ln(0) folds to 0).  The reverse — folding
        # introducing an error — must not happen.
        pass
    else:
        pytest.fail("fold_constants introduced an evaluation error")


def _operator_tree(kind, a, b):
    """The node the operators (or :func:`call`) build over ``a`` and ``b``."""
    return {"sum": lambda: a + b, "difference": lambda: a - b,
            "product": lambda: a * b, "quotient": lambda: a / b,
            "power": lambda: a ** b, "neg": lambda: -a,
            "atan2": lambda: ex.atan2(a, b), "sin": lambda: ex.sin(a)}[kind]()


def _folded_build(kind, a, b):
    if kind == "sum":
        return ex._fsum(a, b)
    if kind == "difference":
        return ex._fsub(a, b)
    if kind == "product":
        return ex._fmul(a, b)
    if kind == "neg":
        return ex._fneg(a)
    if kind in ("quotient", "power"):
        return ex._fold_op(kind, None, (a, b))
    return ex._fold_op("call", kind, (a, b) if kind == "atan2" else (a,))


_KINDS = ("sum", "difference", "product", "quotient", "power", "neg", "atan2", "sin")


def _assert_built_folded(kind, a, b):
    got = _folded_build(kind, a, b)
    assert got is fold_constants(_operator_tree(kind, a, b))
    assert got._fold is ex._SELF  # marked as its own fold


@given(trees, trees)
@settings(max_examples=150)
def test_folded_constructors_are_folds_of_operator_trees(t1, t2):
    a, b = fold_constants(t1), fold_constants(t2)
    for kind in _KINDS:
        _assert_built_folded(kind, a, b)


@pytest.mark.parametrize("kind, a, b, want", [
    # folding evaluates 0 + (-0) to +0, where dropping the zero would keep -0
    ("sum", 0.0, -0.0, "0"),
    ("sum", -0.0, 0.0, "0"),
    ("difference", 0.0, 0.0, "0"),
    ("product", 0.0, -3.0, "-0"),
    ("neg", 0.0, None, "-0"),
    # a failing or overflowing constant subtree stays as written
    ("quotient", 1.0, 0.0, "1 / 0"),
    ("product", 1e308, 10.0, "1e+308 * 10"),
    ("power", -8.0, 0.5, "(-8) ^ 0.5"),
    ("sum", "y", 0.0, "y"),
    ("product", -0.0, "y", "0"),
])
def test_folded_constructors_on_named_cases(kind, a, b, want):
    def node(v):
        return None if v is None else ex.sym(v) if isinstance(v, str) else ex.const(v)

    a, b = node(a), node(b)
    _assert_built_folded(kind, a, b)
    assert to_string(_folded_build(kind, a, b)) == want


def test_substitute():
    e = parse("y + sin(z)")
    assert substitute(e, {"y": ex.sym("u")}) == parse("u + sin(z)")
    assert substitute(e, {"z": parse("y + 1")}) == parse("y + sin(y + 1)")
    assert substitute(e, {"y": 2.0}) == parse("2 + sin(z)")
    assert substitute(e, {}) == e


def test_free_symbols():
    assert free_symbols(parse("2*y + z/(y - 1)")) == {"y", "z"}
    assert free_symbols(parse("gamma * y ^ alpha")) == {"gamma", "y", "alpha"}
    assert free_symbols(ex.const(3.0)) == frozenset()


def test_top_level_terms():
    e = parse("y*z - exp(y) + 2")
    terms = top_level_terms(e)
    assert set(map(to_string, terms)) == {"y * z", "exp(y)", "2"}
    assert top_level_terms(parse("y * (z + 1)")) == (parse("y * (z + 1)"),)


# ---------------------------------------------------------------------------
# The post-order walk
# ---------------------------------------------------------------------------

def _reference_postorder(root):
    """Left-to-right post-order, each node at its first occurrence."""
    out, seen = [], set()

    def visit(n):
        if n not in seen:
            for a in n.args:
                visit(a)
            seen.add(n)
            out.append(n)

    visit(root)
    return out


def _walk_counting(root):
    """The nodes ``_postorder`` yields from scratch, and its readiness calls."""
    done, calls = set(), []

    def ready(n):
        calls.append(n)
        return n in done

    out = []
    for n in ex._postorder(root, ready):
        assert n not in done
        done.add(n)
        out.append(n)
    return out, len(calls)


@pytest.mark.parametrize("build", [
    lambda: ex.sym("x") * ex.sym("x"),
    lambda: parse("(sin(y) + z) * (sin(y) - z) / sin(y)"),       # a diamond
    lambda: parse("atan2(y * z, 1 - y * z) + -(1 - y * z) ^ (y * z)"),
], ids=["square", "diamond", "shared"])
def test_postorder_yields_each_node_once_in_first_occurrence_order(build):
    e = build()
    out, calls = _walk_counting(e)
    assert out == _reference_postorder(e)
    # one readiness call for the root and at most one per edge
    edges = sum(len(n.args) for n in out)
    assert calls <= 1 + edges


def test_postorder_deep_chain_with_shared_subtrees():
    # 3,000 levels, every other one using the level below twice; the new
    # nodes of each level are listed in left-to-right post-order as built
    e = ex.sym("y")
    want = [e]
    for i in range(3000):
        if i % 2:
            s = ex.call("sin", e)
            e = s * e
            want += [s, e]
        else:
            c = ex.const(float(i))
            e = e - c
            want += [c, e.args[1], e]
    out, calls = _walk_counting(e)
    # compare by position: a failing assert must not print these nodes,
    # whose repr doubles with every shared level
    edges = sum(len(n.args) for n in out)
    first_wrong = next((i for i, (a, b) in enumerate(zip(out, want)) if a is not b), None)
    assert (len(out), first_wrong) == (len(want), None)
    assert calls <= 1 + edges


def test_postorder_skips_ready_subtrees():
    e = parse("sin(y) * (y + 1)")
    done = {parse("sin(y)"), ex.sym("y")}
    out = []
    for n in ex._postorder(e, done.__contains__):
        done.add(n)
        out.append(n)
    assert out == [ex.const(1.0), parse("y + 1"), e]
    assert list(ex._postorder(e, lambda n: True)) == []


# ---------------------------------------------------------------------------
# Interning and per-node caches
# ---------------------------------------------------------------------------

def test_equal_trees_are_one_node():
    e = parse("y*z + 1")
    assert e is parse("y * z + 1")
    assert e is ex.sym("y") * ex.sym("z") + 1
    assert e is not parse("z * y + 1")
    with pytest.raises(AttributeError):
        e.kind = "product"


def test_signed_zeros_are_distinct_nodes():
    assert ex.const(0.0) is not ex.const(-0.0)
    assert ex.const(0.0) != ex.const(-0.0)
    assert ex.const(-0.0) is ex.const(-0.0)
    assert to_string(ex.const(-0.0)) == "-0"
    assert parse(to_string(ex.const(-0.0))) is ex.const(-0.0)
    assert to_string(ex.const(2.0) * ex.const(-0.0)) == "2 * (-0)"


def test_copy_and_pickle_return_the_interned_node():
    import copy
    import pickle
    e = parse("atan2(z, y) - 2.5 * y ^ -3")
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    # large inputs: the encoding is flat, so neither depth nor width recurses
    odd = [ex.const(-0.0), ex.const(math.inf), ex.const(-math.inf), ex.const(math.nan)]
    wide = ex.const(0.0)
    for k in range(5000):
        wide = wide + odd[k % 4] * ex.sym("y") ** k
    deep = ex.sym("z") * odd[0]
    for _ in range(3000):
        deep = -deep
    for big in (wide, deep, ex.call("atan2", wide, deep)):
        assert copy.deepcopy(big) is big
        assert copy.copy(big) is big
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(big, protocol)) is big
    assert pickle.loads(pickle.dumps(odd)) == odd


def _one_node_per_kind():
    y, z = ex.sym("y"), ex.sym("z")
    return [ex.const(-2.5), y, y + z, y * z, y / z, y ** z, -y, ex.atan2(y, z)]


def test_nodes_are_built_as_expr_and_no_field_only_node_survives():
    import copy
    import gc
    import pickle

    e = parse("atan2(z, y) - 2.5 * y ^ -3 + sqrt(exp(x) / ln(y)) * cos(-z)")
    built = [e, e + 1, 2 * e, e / e, -e, e ** 2, e - 0.5]
    built += [differentiate(e, v) for v in "xyz"]
    built += [fold_constants(t) for t in built]
    built += [copy.deepcopy(t) for t in built] + [pickle.loads(pickle.dumps(t)) for t in built]
    built += _one_node_per_kind()
    gc.collect()
    assert not [o for o in gc.get_objects() if type(o) is ex._Node]
    live = [n for n in (r() for r in list(ex._INTERNED.values())) if n is not None]
    assert len(live) > 50
    assert all(type(n) is ex.Expr for n in live)


@pytest.mark.parametrize("field", ["kind", "value", "args"])
def test_every_node_kind_refuses_assignment(field):
    for n in _one_node_per_kind():
        before = getattr(n, field)
        with pytest.raises(AttributeError):
            setattr(n, field, None)
        with pytest.raises(AttributeError):
            delattr(n, field)
        assert getattr(n, field) == before


def test_intern_table_returns_to_baseline():
    # A T2.4 residual under a linear change has thousands of tree nodes but
    # only a few hundred distinct ones; once it is dropped, every node built
    # for it (and every result cached on those nodes) must go too.
    import gc
    from liesym import catalog, odesys, symmetry

    entry = catalog.get_entry("T2.4")
    params = entry.resolve()
    ((_, gen),) = entry.labeled_generators(params)

    def residuals(P):
        system = odesys.linear_change(entry.build(params), P)
        return symmetry.residual_expressions(system, symmetry.transform_generator(gen, P))

    # the first build fills the caches of the long-lived catalog nodes
    residuals(odesys.Mat2(1.1, 0.2, -0.15, 0.9))
    gc.collect()
    baseline = len(ex._INTERNED)
    res = residuals(odesys.Mat2(0.9, -0.1, 0.25, 1.2))
    assert len(ex._INTERNED) > baseline + 100
    del res
    gc.collect()
    assert len(ex._INTERNED) == baseline


def _same_value(a, b) -> bool:
    return a == b or (a[0] == b[0] == "ok" and math.isnan(a[1]) and math.isnan(b[1]))


@given(trees, st.sampled_from(["x", "y", "z"]), bindings)
@settings(max_examples=150)
def test_cached_walkers_match_recursive_reference(t, var, b):
    from oracles import reference_differentiate, reference_fold
    # fold and differentiate twice each: once filling the caches, once
    # reading them
    for _ in range(2):
        for got, want in ((fold_constants(t), reference_fold(t)),
                          (differentiate(t, var), reference_differentiate(t, var))):
            assert got is want
            assert _run(lambda: to_string(got)) == _run(lambda: to_string(want))
            assert _same_value(_run(lambda: evaluate(got, b)),
                               _run(lambda: evaluate(want, b)))


# ---------------------------------------------------------------------------
# One-pass folded derivatives and substitutions
# ---------------------------------------------------------------------------

#: trees that meet signed zeros more often than ``_consts`` draws them
_signed_zeros = st.sampled_from([0.0, -0.0]).map(ex.const)
zero_trees = st.recursive(st.one_of(_consts, _signed_zeros, _syms), _extend, max_leaves=10)

mappings = st.dictionaries(
    st.sampled_from(["x", "y", "z", "p"]),
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), _consts, zero_trees),
    max_size=3)


#: points for comparing two forms by value, zeros of either sign among them
_VALUE_POINTS = [dict(zip(("x", "y", "z", "p", "yp", "zp"), vals)) for vals in (
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0, -0.0, -0.0, -0.0),
    (0.7, -1.3, 2.1, 0.4, -0.6, 1.5), (-2.2, 0.9, -0.5, 1.7, 0.3, -1.1),
    (1.0, 1.0, -1.0, -2.0, 2.0, 0.5))]


def _assert_same_values(got, want):
    """``got`` and ``want`` agree at every point of ``_VALUE_POINTS`` where
    both evaluate."""
    for b in _VALUE_POINTS:
        g, w = _run(lambda: evaluate(got, b)), _run(lambda: evaluate(want, b))
        if g[0] == w[0] == "ok":
            assert g[1] == pytest.approx(w[1], rel=1e-12, abs=1e-12), b


def _assert_one_pass(e, var=None, mapping=None):
    # twice each: once filling the caches, once reading them
    for _ in range(2):
        if var is not None:
            # The one-pass derivative is the two-pass fold up to the signs of
            # zero constants, which no value depends on.  Where a quotient's
            # numerator and denominator both fold to zero, one form may keep
            # 0 / 0 (which does not evaluate) and the other not; there the
            # two forms agree wherever both evaluate.
            got, want = derivative(e, var), fold_constants(differentiate(e, var))
            if not oracles.same_up_to_zero_signs(got, want):
                assert oracles.has_zero_over_zero(got) or oracles.has_zero_over_zero(want), \
                    (e, var, got, want)
                _assert_same_values(got, want)
        if mapping is not None:
            assert substitute_folded(e, mapping) is fold_constants(substitute(e, mapping)), \
                (e, mapping)


@given(zero_trees, st.sampled_from(["x", "y", "z"]))
@settings(max_examples=300)
# Quotients whose numerator and denominator fold to zero; the last one's
# two-pass form keeps 0 / 0 where the one-pass form has 0.
@example(ex.sym("z") / 0.0, "z")
@example(ex.atan2(-(ex.sym("y") * -ex.const(-0.0)), -(-(ex.sym("y") * -ex.const(-0.0)))), "y")
@example(parse("ln(z) / (0 - 0)"), "z")
def test_derivative_is_the_fold_of_the_raw_derivative(t, var):
    for e in (t, fold_constants(t)):
        _assert_one_pass(e, var=var)


@given(zero_trees, mappings)
@settings(max_examples=300)
def test_substitute_folded_is_the_fold_of_the_substitution(t, mapping):
    for e in (t, fold_constants(t)):
        _assert_one_pass(e, mapping=mapping)


@pytest.mark.parametrize("text", [
    # a raw derivative that is a negation of the input, of a literal, of a
    # sum that folds to a constant, or of a negation written twice
    "-(-(y))", "-(y * -(-(z)))", "-(y * -(1 - 1))", "y * -(0 - z)",
    "-(y * -(-0))", "0 - y * -(-(0 - 1))", "atan2(0 - y, -(0))",
    "atan2(-(z * y), 0 - 0)", "-(sqrt(y) * -(z))", "y ^ -(0 - 1)",
    "(0 * y) ^ z", "-(y / -(1))", "exp(-(-(y))) - -(z)", "-(ln(-(-(y))))",
])
def test_one_pass_forms_on_unfolded_negations(text):
    e = parse(text)
    for var in ("x", "y", "z"):
        _assert_one_pass(e, var=var)
        _assert_one_pass(fold_constants(e), var=var)
    for mapping in ({"y": 0.0}, {"y": -0.0}, {"z": -0.0, "y": parse("0 - z")}):
        _assert_one_pass(e, mapping=mapping)


def _zero_signs_through_negations():
    # The operators keep a negated literal as a negation node, which the
    # parser never does.  In each tree the raw derivative of the left part
    # by y is a literal zero only because a negation of the input is
    # dropped, and the one-pass derivative's zero may take the other sign.
    y, z, c = ex.sym("y"), ex.sym("z"), ex.const
    for lit in (c(0.0), c(-0.0), -c(0.0), -(-c(0.0))):
        left = -(y * -lit)
        yield left + (z - 1)
        yield left * c(-3.0)
        yield (z - 1) + left
        yield ex.atan2(left, -left)


@pytest.mark.parametrize("e", list(_zero_signs_through_negations()), ids=str)
def test_one_pass_forms_on_zero_signs_through_negations(e):
    for var in ("y", "z"):
        _assert_one_pass(e, var=var)
        _assert_one_pass(-e, var=var)


@pytest.mark.parametrize("entry_id", catalog.entry_ids())
def test_one_pass_forms_on_catalog_rows(entry_id):
    entry = catalog.get_entry(entry_id)
    y, z = ex.sym("y"), ex.sym("z")
    # the (y, z) of a linear change, and signed zeros
    changes = ({"y": fold_constants(0.9 * y - 0.2 * z), "z": fold_constants(0.3 * y + 1.1 * z)},
               {"y": 0.0, "z": -0.0})
    for params in (None, *(catalog.draw_params(entry_id, s) for s in range(4))):
        system = entry.build(params)
        for rhs in (system.F, system.G):
            for var in ("x", "y", "z", "yp", "zp"):
                _assert_one_pass(rhs, var=var)
            for mapping in changes:
                _assert_one_pass(rhs, mapping=mapping)


def test_the_package_writes_no_two_pass_fold():
    # derivative and substitute_folded build these folds in one walk, and
    # derivative is the package's one derivative: nothing in it calls the
    # raw differentiate (its definition, and the import that the benchmark's
    # tracer wraps, are not calls)
    package = Path(ex.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for idiom in ("fold_constants(differentiate(", "fold_constants(substitute("):
            assert idiom not in text, \
                f"{path.name} writes {idiom!r}; use derivative or substitute_folded"
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                assert name != "differentiate", \
                    f"{path.name}:{node.lineno} calls differentiate; use derivative"


# ---------------------------------------------------------------------------
# Vectorized compilation
# ---------------------------------------------------------------------------

@given(trees, st.lists(bindings, min_size=1, max_size=5))
@settings(max_examples=100)
def test_compile_matches_evaluate(t, pts):
    names = ("x", "y", "z", "p")
    cols = [np.array([p[n] for p in pts]) for n in names]
    scalar = [_run(lambda p=p: evaluate(t, p)) for p in pts]
    if all(s[0] == "ok" and math.isfinite(s[1]) for s in scalar):
        got = compile_evaluator(t, names)(*cols)
        want = np.array([s[1] for s in scalar])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    else:
        with pytest.raises(EvalError):
            compile_evaluator(t, names)(*cols)


def test_compile_unbound_symbol():
    with pytest.raises(EvalError):
        compile_evaluator(parse("q + y"), ("y",))


def test_compile_nonfinite_raises():
    f = compile_evaluator(parse("1 / (y - z)"), ("y", "z"))
    with pytest.raises(EvalError, match=re.escape(
            "non-finite value in '1 / (y - z)' near {'y': 1.0, 'z': 1.0}")):
        f(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_compile_deep_sum_without_recursion():
    # 3,000 levels: deeper than the interpreter's recursion limit
    e = ex.sym("y")
    for i in range(3000):
        e = e + float(i % 7) * ex.sym("y")
    y = np.array([0.5, 2.0])
    # every partial sum is an exact multiple of y, so the total is exact
    assert np.array_equal(compile_evaluator(e, ("y",))(y), y * (1 + 8994))


@pytest.mark.parametrize("text", [
    "(" * 5000 + "y" + ")" * 5000,
    "- " * 5001 + "y",
    " ^ ".join(["y"] * 5000),
    "sin(" * 5000 + "y" + ")" * 5000,
    " - ".join(["y"] * 5000),
    "(" * 100_000 + "y" + ")" * 100_000,
    " + ".join(["y"] * 10_000),
], ids=["parentheses", "negations", "powers", "calls", "differences",
        "parentheses-100k", "sum-10k"])
def test_deep_expressions_without_recursion(text):
    # 5,000 levels of each kind of nesting, and 100,000 parentheses and a
    # 10,000-term sum for the parser, far beyond the interpreter's recursion
    # limit: every walker keeps its own stack
    e = parse(text)
    assert parse(to_string(e)) is e
    assert repr(e).startswith("Expr(kind=")
    assert free_symbols(e) == {"y"}
    assert substitute(e, {"y": ex.sym("z")}) is parse(text.replace("y", "z"))
    assert len(top_level_terms(e)) in (1, 5000, 10_000)
    d = fold_constants(differentiate(e, "y"))
    assert math.isfinite(evaluate(fold_constants(e), {"y": 1.0}))
    assert math.isfinite(evaluate(d, {"y": 1.0}))


def test_compile_keeps_signed_zeros_apart():
    # 0.0 and -0.0 are two nodes, so two tape slots, but atan2 reads -0 as
    # +0: atan2(0, -0) == atan2(0, 0) == 0 in evaluate, in the tape and in
    # fold_constants, and atan2(-0, -1) is pi, not -pi
    y = np.array([0.5, 2.0])
    for a, b, want in ((0.0, -0.0, 0.0), (-0.0, 0.0, 0.0), (-0.0, -0.0, 0.0),
                       (0.0, 0.0, 0.0), (-0.0, -1.0, math.pi), (0.0, -1.0, math.pi)):
        e = ex.atan2(a, b)
        assert evaluate(e, {}) == want
        assert fold_constants(e) is ex.const(want)
        assert np.array_equal(compile_evaluator(e * ex.sym("y"), ("y",))(y), want * y)
    e = ex.atan2(0, -0.0) + ex.atan2(0, 0.0) * ex.sym("y")
    table = ValueTable()
    assert np.array_equal(compile_evaluator(e, ("y",), shared=table)(y), [0.0, 0.0])
    # the tape's slots, read through the table: 0.0 and -0.0 have one each
    assert sorted(n.value for n in table if n.kind == "constant") == [0.0, 0.0]
    assert {math.copysign(1.0, table[n]) for n in table if n.kind == "constant"} == {-1.0, 1.0}
    assert np.array_equal(compile_evaluator(e, ("y",))(y), [0.0, 0.0])


def test_compile_terms_come_from_the_same_pass():
    e = parse("y*z - exp(y) + 2")
    names = ("y", "z")
    y, z = np.array([0.5, 1.0, 2.0]), np.array([3.0, -1.0, 0.25])
    terms = top_level_terms(e)
    val, got = compile_evaluator(e, names, terms)(y, z)
    assert np.array_equal(val, compile_evaluator(e, names)(y, z))
    assert len(got) == len(terms)
    for t, g in zip(terms, got):
        assert g.shape == y.shape
        assert np.array_equal(g, compile_evaluator(t, names)(y, z))


# ---------------------------------------------------------------------------
# Value tables shared by runs on the same points
# ---------------------------------------------------------------------------

_NAMES = ("x", "y", "z", "p")


def _outcome(thunk):
    """The bytes of a result, or the text of the EvalError raised."""
    try:
        return ("ok", np.asarray(thunk()).tobytes())
    except EvalError as exc:
        return ("err", str(exc))


@given(st.lists(trees, min_size=2, max_size=4), st.lists(bindings, min_size=1, max_size=5))
@settings(max_examples=150)
def test_table_runs_match_fresh_runs(ts, pts):
    # values bit for bit, and the same first non-finite sub-expression and
    # point, whatever earlier runs left in the table
    cols = [np.array([p[n] for p in pts]) for n in _NAMES]
    table = ValueTable()
    for t in ts:
        before = dict(table)
        got = _outcome(lambda: compile_evaluator(t, _NAMES, shared=table)(*cols))
        assert got == _outcome(lambda: compile_evaluator(t, _NAMES)(*cols))
        if got[0] == "err":
            assert table == before  # a run that raises adds nothing
        for node, v in before.items():
            assert table[node] is v


def test_table_skips_what_it_holds():
    # the second compile lays out only the two new operations: the leaves,
    # y * z and y * z + exp(y) are the table's already
    y, z = np.array([0.5, 1.0, 2.0]), np.array([3.0, -1.0, 0.25])
    table = ValueTable()
    compile_evaluator(parse("y * z + exp(y)"), ("y", "z"), shared=table)(y, z)
    assert list(table) == [parse(t) for t in ("y", "z", "y * z", "exp(y)", "y * z + exp(y)")]
    held = len(table)
    run = compile_evaluator(parse("(y * z + exp(y)) * sin(y * z)"), ("y", "z"), shared=table)
    assert [op for op, *_ in table._pending] == [np.sin, ex._TAPE_FNS[ex.PRODUCT]]
    assert np.array_equal(run(y, z), (y * z + np.exp(y)) * np.sin(y * z))
    assert len(table) == held + 2 and not table._pending


def test_table_run_that_raises_adds_nothing():
    y, z = np.array([0.5, 1.0, 2.0]), np.array([0.2, 1.0, 1.0])
    table = ValueTable()
    with pytest.raises(EvalError):
        compile_evaluator(parse("ln(y + z) * (y - z) + 1 / (y - z)"), ("y", "z"),
                          shared=table)(y, z)
    assert len(table) == 0 and table.points is None
    compile_evaluator(parse("ln(y + z) * (y - z)"), ("y", "z"), shared=table)(y, z)
    filled = dict(table)
    with pytest.raises(EvalError, match=re.escape(
            "non-finite value in '1 / (y - z)' near {'y': 1.0, 'z': 1.0}")):
        compile_evaluator(parse("ln(y + z) * (y - z) + 1 / (y - z)"), ("y", "z"),
                          shared=table)(y, z)
    assert table == filled


@pytest.mark.parametrize("first, second", [
    ("y * z + exp(y)", "exp(y) * 2 + 1 / (y - z) + ln(y * z - 3)"),
    ("ln(y) + y * z", "ln(y) * (y * z) + sqrt(z - 1) + 1 / (y - z)"),
    ("exp(y) + sin(z)", "exp(exp(exp(y + sin(z))))"),
], ids=["quotient", "sqrt-before-quotient", "overflow"])
def test_table_keeps_the_first_failure_and_its_point(first, second):
    y, z = np.array([1.5, 1.0, 2.0, 3.0]), np.array([3.0, 0.5, 2.0, 1.0])
    table = ValueTable()
    compile_evaluator(parse(first), ("y", "z"), shared=table)(y, z)
    assert len(table) > 0
    with pytest.raises(EvalError) as plain:
        compile_evaluator(parse(second), ("y", "z"))(y, z)
    with pytest.raises(EvalError) as shared:
        compile_evaluator(parse(second), ("y", "z"), shared=table)(y, z)
    assert str(shared.value) == str(plain.value)


def test_table_zero_reports_match_unshared_reports():
    dom = SamplingDomain(intervals={"y": (0.2, 3.0), "z": (0.2, 3.0)}, n=100, seed=4)
    pts = sample(dom)
    texts = ["y * z - z * y", "exp(y) * sin(z) - y * z", "sin(z) * exp(y) + 1e-12 * y",
             "exp(y) * sin(z) - sin(z) * exp(y)", "y * z - exp(y) * sin(z)"]
    table = ValueTable()
    for text in texts:
        e = parse(text)
        assert zero_report_at(e, pts, shared=table) == zero_report_at(e, pts)


def test_table_from_other_points_is_refused():
    dom = SamplingDomain(intervals={"y": (0.2, 3.0), "z": (0.2, 3.0)}, n=50, seed=0)
    pts = sample(dom)
    e = parse("y * z + exp(y)")
    table = ValueTable()
    zero_report_at(e, pts, shared=table)
    # the table holds copies of its columns
    assert all(np.array_equal(table.points[n], pts[n])
               and table.points[n] is not pts[n] for n in pts)
    other = sample(SamplingDomain(intervals=dom.intervals, n=50, seed=1))
    with pytest.raises(ValueError, match="filled at other points"):
        zero_report_at(e, other, shared=table)
    with pytest.raises(ValueError, match="filled at other points"):
        zero_report_at(parse("y"), {"y": pts["y"]}, shared=table)  # a column fewer
    changed = {n: c.copy() for n, c in pts.items()}
    changed["z"][7] = 0.5
    with pytest.raises(ValueError, match="filled at other points"):
        zero_report_at(e, changed, shared=table)
    pts["y"][3] = 1.25  # a column changed in place
    with pytest.raises(ValueError, match="filled at other points"):
        zero_report_at(e, pts, shared=table)
    with pytest.raises(ValueError, match="filled at other points"):
        compile_evaluator(parse("y"), ("y", "z"), shared=table)(pts["y"], pts["z"])


def _layout(table):
    """Everything a table holds: its values, its points and whether steps
    wait for their run."""
    return dict(table), table.points and dict(table.points), bool(table._pending)


def test_table_rollback_leaves_slots_and_values_as_they_were():
    y, z = np.array([0.5, 1.0, 2.0]), np.array([0.2, 1.0, 1.0])
    table = ValueTable()
    compile_evaluator(parse("ln(y + z) * (y - z)"), ("y", "z"), shared=table)(y, z)
    held = _layout(table)
    raising = compile_evaluator(parse("ln(y + z) * (y - z) + 1 / (y - z)"), ("y", "z"),
                                shared=table)
    assert table._pending  # laid out, not yet run
    with pytest.raises(EvalError, match=re.escape("'1 / (y - z)' near {'y': 1.0, 'z': 1.0}")):
        raising(y, z)
    assert _layout(table) == held
    with pytest.raises(EvalError, match="unbound symbol 'q'"):
        compile_evaluator(parse("exp(y + z) * q"), ("y", "z"), shared=table)
    assert _layout(table) == held
    with pytest.raises(ValueError, match="filled at other points"):
        compile_evaluator(parse("exp(y + z)"), ("y", "z"), shared=table)(z, y)
    assert _layout(table) == held
    # a callable whose slots were taken off lays them out again when called
    with pytest.raises(EvalError, match=re.escape("'1 / (y - z)' near {'y': 1.0, 'z': 1.0}")):
        raising(y, z)
    assert _layout(table) == held
    # a refused first run leaves the table empty and unbound
    fresh = ValueTable()
    with pytest.raises(EvalError):
        compile_evaluator(parse("1 / (y - z)"), ("y", "z"), shared=fresh)(y, z)
    assert _layout(fresh) == ({}, None, False)


def test_table_refuses_a_compile_while_an_earlier_callable_waits():
    y, z = np.array([0.5, 1.0, 2.0]), np.array([3.0, -1.0, 0.25])
    table = ValueTable()
    first = compile_evaluator(parse("y * z"), ("y", "z"), shared=table)
    with pytest.raises(ValueError, match="has not run"):
        compile_evaluator(parse("exp(y)"), ("y", "z"), shared=table)
    assert np.array_equal(first(y, z), y * z)
    assert np.array_equal(compile_evaluator(parse("exp(y)"), ("y", "z"), shared=table)(y, z),
                          np.exp(y))
    # a compile that lays out nothing new leaves nothing waiting
    compile_evaluator(parse("y * z"), ("y", "z"), shared=table)
    compile_evaluator(parse("z"), ("y", "z"), shared=table)


def test_table_callable_called_twice_appends_and_runs_once(tape_ops):
    y, z = np.array([0.5, 1.0, 2.0]), np.array([3.0, -1.0, 0.25])
    table = ValueTable()
    run = compile_evaluator(parse("y * z + exp(y)"), ("y", "z"), shared=table)
    steps = len(table._pending)
    first = run(y, z)
    assert len(tape_ops) == 3 and len(table) == steps == 5
    second = run(y, z)
    assert len(tape_ops) == 3 and len(table) == steps and second is first
    with pytest.raises(ValueError, match="filled at other points"):
        run(z, y)
    assert len(tape_ops) == 3 and len(table) == steps


def test_zero_test_of_held_nodes_runs_no_operation(tape_ops):
    pts = sample(SamplingDomain(intervals={"y": (0.2, 3.0), "z": (0.2, 3.0)}, n=40, seed=2))
    e = parse("exp(y) * sin(z) - y * z + 2 * z")
    table = ValueTable()
    rep = zero_report_at(e, pts, shared=table)
    ran = len(tape_ops)
    assert ran > 0
    # the same test, and one on a held term, lay out and run nothing
    assert zero_report_at(e, pts, shared=table) == rep
    assert zero_report_at(parse("y * z"), pts, shared=table) == zero_report_at(
        parse("y * z"), pts)
    assert len(tape_ops) == ran + 1  # the unshared y * z
    assert not table._pending


def test_table_reads_as_a_mapping_of_node_values():
    y, z = np.array([0.5, 1.0, 2.0]), np.array([3.0, -1.0, 0.25])
    table = ValueTable()
    assert len(table) == 0 and table.points is None and parse("y") not in table
    compile_evaluator(parse("y * z + 2"), ("y", "z"), shared=table)(y, z)
    assert len(table) == 5 and parse("y * z") in table and parse("exp(y)") not in table
    assert np.array_equal(table[parse("y * z")], y * z)
    assert np.array_equal(table[parse("y")], y) and table[parse("2")] == 2.0
    assert set(table.points) == {"y", "z"} and np.array_equal(table.points["z"], z)
    with pytest.raises(KeyError):
        table[parse("exp(y)")]
    # a node laid out but not yet run is not in the table
    compile_evaluator(parse("exp(y)"), ("y", "z"), shared=table)
    assert parse("exp(y)") not in table and len(table) == 5
    with pytest.raises(KeyError):
        table[parse("exp(y)")]


# ---------------------------------------------------------------------------
# Sampling and numeric zero tests
# ---------------------------------------------------------------------------

def test_sampling_deterministic_and_in_box():
    dom = SamplingDomain(intervals={"y": (0.2, 3.0), "z": (0.2, 3.0)}, n=50, seed=7)
    a = sample(dom)
    b = sample(dom)
    assert set(a) == {"y", "z"}
    for n in a:
        assert np.array_equal(a[n], b[n])
        assert a[n].shape == (50,)
        assert np.all((a[n] >= 0.2) & (a[n] <= 3.0))


@pytest.mark.parametrize("n", [1, 50, 64, 65, 200])
def test_sampling_is_one_seeded_uniform_draw(n):
    # the stream is part of the output: every seeded verdict and witness
    # depends on it, so pin it to one (n, k) draw over the box
    intervals = {"x": (0.2, 3.0), "y": (-1.5, 1.5), "z": (0.5, 0.75)}
    pts = sample(SamplingDomain(intervals=intervals, n=n, seed=11))
    lows, highs = np.array(list(intervals.values())).T
    want = np.random.default_rng(11).uniform(lows, highs, size=(n, 3))
    assert list(pts) == list(intervals)
    for i, name in enumerate(intervals):
        assert np.array_equal(pts[name], want[:, i])


def test_is_zero_numeric_trig_identity():
    dom = SamplingDomain(intervals={"y": (-3.0, 3.0)}, n=200, seed=1)
    assert zero_report_at(parse("sin(y)^2 + cos(y)^2 - 1"), sample(dom), tol=1e-9).ok


def test_is_zero_numeric_relative_to_cancellation_scale():
    # Massive cancellation: the absolute residual is ~1e-8 but the test is
    # relative to the 1e8-sized terms, so it passes.
    dom = SamplingDomain(intervals={"y": (0.2, 3.0)}, n=100, seed=2)
    e = parse("(y + 100000000) - 100000000 - y")
    assert zero_report_at(e, sample(dom), tol=1e-9).ok


def test_is_zero_numeric_rejects_nonzero():
    dom = SamplingDomain(intervals={"y": (0.2, 3.0), "z": (0.2, 3.0)}, n=100, seed=2)
    pts = sample(dom)
    rep = zero_report_at(parse("y - z"), pts, tol=1e-9)
    assert not rep.ok
    assert set(rep.witness) == {"y", "z"}
    assert rep.value == pytest.approx(rep.witness["y"] - rep.witness["z"])
    assert not zero_report_at(ex.const(1e-6), pts, tol=1e-9).ok
    assert zero_report_at(ex.const(0.0) * ex.sym("y"), pts, tol=1e-9).ok


def test_zero_report_with_params():
    dom = SamplingDomain(intervals={"y": (0.2, 3.0)}, n=100, seed=0)
    e = parse("gamma * y - 2 * y")
    assert zero_report_at(substitute(e, {"gamma": 2.0}), sample(dom), tol=1e-9).ok
    assert not zero_report_at(substitute(e, {"gamma": 2.5}), sample(dom), tol=1e-9).ok


def test_zero_report_at_compiles_once(monkeypatch):
    calls = []
    real = ex.compile_evaluator

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ex, "compile_evaluator", counting)
    pts = {"y": np.array([0.5, 1.5]), "z": np.array([2.0, 0.3])}
    rep = ex.zero_report_at(parse("y*z - exp(y) + 2 - y*z + exp(y) - 2*y^0"), pts)
    assert rep.ok
    assert len(calls) == 1


@pytest.mark.parametrize("e, pts, text", [
    (parse("sin(z) + y"), {"y": np.array([1.0, math.nan]), "z": np.array([0.5, 0.5])},
     "non-finite value in 'y' near {'y': nan, 'z': 0.5}"),
    (ex.const(math.inf) * ex.sym("y"), {"y": np.array([2.0, 3.0])},
     "non-finite value in 'inf' near {'y': 2.0}"),
], ids=["nan-column", "inf-constant"])
def test_nonfinite_leaves_raise(e, pts, text):
    # a leaf raises no floating-point flag, so it is checked by hand
    with pytest.raises(EvalError, match=re.escape(text)):
        zero_report_at(e, pts)


def test_spurious_flag_leaves_the_result_unchanged(monkeypatch):
    e = parse("y * z + exp(y) - z * y")
    names = ("y", "z")
    y, z = np.array([0.5, 1.0, 2.0]), np.array([3.0, -1.0, 0.25])
    want = compile_evaluator(e, names)(y, z)

    trapped = []

    def flagging(a, b):
        # traps under the run's errstate, then gives the finite product
        if np.geterr()["invalid"] == "raise":
            trapped.append((a, b))
            raise FloatingPointError("invalid value encountered in multiply")
        return a * b

    monkeypatch.setitem(ex._TAPE_FNS, ex.PRODUCT, flagging)
    assert np.array_equal(compile_evaluator(e, names)(y, z), want)
    assert len(trapped) == 2  # y * z and z * y


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_zero_report_at_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        ex.zero_report_at(parse("y"), {"y": np.array([1.0])}, tol=tol)


def test_zero_report_at_rejects_empty_points():
    with pytest.raises(ValueError, match="at least one sample point"):
        ex.zero_report_at(parse("y"), {"y": np.array([])})


def test_zero_report_at_rejects_no_columns():
    # what sample() returns for a box with no variables
    pts = sample(SamplingDomain(intervals={}, n=5))
    assert pts == {}
    with pytest.raises(ValueError, match="at least one sample point"):
        ex.zero_report_at(parse("1 - 1"), pts)


@pytest.mark.parametrize("text", ["y - y", "y - 1"])
def test_zero_report_at_rejects_unequal_columns(text):
    with pytest.raises(ValueError, match=r"differ in shape: y \(2,\), z \(1,\)"):
        ex.zero_report_at(parse(text), {"y": np.array([1.0, 2.0]), "z": np.array([1.0])})


@pytest.mark.parametrize("change", [
    {"n": 0}, {"n": -3}, {"intervals": {"y": (1.0, 1.0)}},
    {"intervals": {"y": (2.0, 1.0)}}, {"intervals": {"y": (0.0, math.inf)}},
    {"intervals": {"y": (math.nan, 1.0)}}, {"seed": -1},
])
def test_sampling_domain_rejects_bad_input(change):
    with pytest.raises(ValueError):
        SamplingDomain(**{"intervals": {"y": (0.0, 1.0)}, **change})


def test_zero_report_at_skips_free_symbols_on_success(monkeypatch):
    calls = []
    real = ex.free_symbols
    monkeypatch.setattr(ex, "free_symbols", lambda e: calls.append(e) or real(e))
    pts = {"y": np.array([0.5, 1.5]), "z": np.array([2.0, 0.3])}
    assert ex.zero_report_at(parse("y * z - z * y + 2 - 2 * y ^ 0"), pts).ok
    assert calls == []
    with pytest.raises(EvalError, match=re.escape("unbound symbols ['q4']")):
        ex.zero_report_at(parse("q4 * y"), pts)
    assert calls == [parse("q4 * y")]


def test_zero_report_unbound_symbols_come_before_empty_columns():
    with pytest.raises(EvalError, match="unbound symbols"):
        zero_report_at(parse("a * y"), {"y": np.array([])})
    with pytest.raises(EvalError, match="unbound symbols"):
        zero_report_at(parse("a * y"), {"y": np.array([1.0, 2.0]), "z": np.array([1.0])})


def test_zero_report_unbound_symbol_raises():
    dom = SamplingDomain(intervals={"y": (0.2, 3.0)}, n=20, seed=0)
    with pytest.raises(EvalError, match="unbound symbols"):
        zero_report_at(parse("gamma * y"), sample(dom))
