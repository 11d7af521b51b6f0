"""Point-symmetry machinery for pairs of second-order ODEs.

A point-symmetry candidate for the system y'' = F(x, y, z), z'' = G(x, y, z)
is a vector field

    X = xi(x) d/dx + eta1(x, y, z) d/dy + eta2(x, y, z) d/dz.

This module computes the second prolongation of such a field on solutions
(replacing y'' by F and z'' by G) and the resulting pair of symmetry-defect
residuals.  Every admitted symmetry of this ODE class has the shape
2*xi(x) d/dx + ((A + xi' I) [y z]^T + zeta(x)) . (d/dy, d/dz), A constant,
and there the defects reduce to velocity-free determining equations: one
linear map M, `determining_matrix`, from the data u = (xi, xi', xi''', A,
zeta, zeta'') to the two defects, which both reduced residuals read; the
full defect of the field is -M u.  On top sit the sampling-based verdict
(`admits`), the covariance action of linear changes of the dependent
variables (`transform_generator`) and the commutator (`commutator_vf`).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from sys import float_info
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .expr import (RESERVED_NAMES, EvalError, Expr, SamplingDomain,
                   _ZERO, _fmul, _fsub, _fsum, compile_evaluator, const, derivative,
                   evaluate, fold_constants, free_symbols, parse, sample,
                   substitute, sym, to_string, zero_report_at)
# The raw derivative is no longer called here, but the benchmark's layer
# tracer (bench/layertrace.py) still wraps it under this module's name.
from .expr import differentiate  # noqa: F401
from .odesys import Mat2, OdeSystem

__all__ = [
    "Generator", "LinearGenerator", "Verdict", "basis_generator",
    "determining_generator", "residual_expressions", "prolong2_residual",
    "determining_matrix", "determining_residual", "autonomous_residual", "admits",
    "BOX", "default_domain", "transform_generator", "commutator_vf",
    "system_from_json", "generator_from_json", "generator_to_json",
]


def _numbers(v, n: int) -> bool:
    """True for a list of ``n`` ints or floats; a bool or a string is not one."""
    return (isinstance(v, (list, tuple)) and len(v) == n
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v))


def _coerce(v, what: str) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, str):
        return parse(v)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if abs(v) <= float_info.max:  # false for inf, NaN and ints beyond floats
            return const(v)
        raise ValueError(f"{what} must be a finite number in the float range")
    raise TypeError(f"{what} must be an Expr, a string, or a number; "
                    f"got {type(v).__name__}")


def _check_free(e: Expr, what: str, allowed: frozenset[str]):
    extra = free_symbols(e) - allowed
    if extra:
        raise ValueError(
            f"{what} may depend on {sorted(allowed)} only; found {sorted(extra)} "
            "(bind parameters to numbers before building a generator)")


def _x_only(v, what: str) -> Expr:
    e = _coerce(v, what)
    _check_free(e, what, frozenset({"x"}))
    return e


def _determining_data(xi, A, zeta) -> tuple[Expr, Mat2, tuple[Expr, Expr]]:
    """Determining data (xi(x), constant A, zeta(x)), coerced and checked."""
    return (_x_only(xi, "xi"), A if isinstance(A, Mat2) else Mat2.from_rows(A),
            (_x_only(zeta[0], "zeta[0]"), _x_only(zeta[1], "zeta[1]")))


@dataclass(frozen=True)
class Generator:
    """A point vector field xi*d/dx + eta1*d/dy + eta2*d/dz.

    ``xi`` may depend on x alone; ``eta1`` and ``eta2`` on (x, y, z).  First
    derivatives never enter point-symmetry coefficients, so yp/zp are
    rejected.  All parameters must already be numbers: coefficients are
    concrete functions, not templates.
    """

    xi: Expr
    eta1: Expr
    eta2: Expr

    def __post_init__(self):
        object.__setattr__(self, "xi", _coerce(self.xi, "xi"))
        object.__setattr__(self, "eta1", _coerce(self.eta1, "eta1"))
        object.__setattr__(self, "eta2", _coerce(self.eta2, "eta2"))
        _check_free(self.xi, "xi", frozenset({"x"}))
        _check_free(self.eta1, "eta1", frozenset({"x", "y", "z"}))
        _check_free(self.eta2, "eta2", frozenset({"x", "y", "z"}))

    def __add__(self, other: "Generator") -> "Generator":
        other = _as_generator(other)
        return Generator(fold_constants(self.xi + other.xi),
                         fold_constants(self.eta1 + other.eta1),
                         fold_constants(self.eta2 + other.eta2))

    def __mul__(self, s: float) -> "Generator":
        s = float(s)
        return Generator(fold_constants(s * self.xi),
                         fold_constants(s * self.eta1),
                         fold_constants(s * self.eta2))

    __rmul__ = __mul__

    def __neg__(self) -> "Generator":
        return self * -1.0

    def __sub__(self, other: "Generator") -> "Generator":
        return self + (-_as_generator(other))

    def __str__(self):
        return (f"{to_string(self.xi)} d/dx + {to_string(self.eta1)} d/dy "
                f"+ {to_string(self.eta2)} d/dz")


@dataclass(frozen=True)
class LinearGenerator:
    """The affine family 2*(k1 + k2*x) d/dx + (A [y z]^T + zeta) . (d/dy, d/dz).

    ``zeta`` is a pair of functions of x (constants allowed).  The factor 2 in
    front of the d/dx part is bookkeeping: with it, a constant-zeta member
    lines up with the eight-dimensional symmetry algebra of the free system
    via ``to_coefficients`` (c1 = 2*k1, c2 = 2*k2), and under ``expand`` the
    translation X1 = d/dx is exactly k1 = 1/2.
    """

    k1: float
    k2: float
    A: Mat2
    zeta: tuple[Expr, Expr] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "k1", float(self.k1))
        object.__setattr__(self, "k2", float(self.k2))
        A = self.A if isinstance(self.A, Mat2) else Mat2.from_rows(self.A)
        if not all(abs(v) <= float_info.max  # false for inf and NaN
                   for v in (self.k1, self.k2, A.a11, A.a12, A.a21, A.a22)):
            raise ValueError("k1, k2 and A must be finite numbers")
        object.__setattr__(self, "A", A)
        z1, z2 = self.zeta
        object.__setattr__(self, "zeta", (_x_only(z1, "zeta[0]"), _x_only(z2, "zeta[1]")))

    def expand(self) -> Generator:
        """The same field written out as a plain :class:`Generator`.

        Its components are ``fold_constants`` of 2*(k1 + k2*x) and
        a11*y + a12*z + zeta[0] (a21, a22, zeta[1] for eta2) as written with
        the operators, but those trees are never built: the folded
        constructors give the fold of each operator node from its folded
        operands, so the result is the same node.
        """
        x, y, z = sym("x"), sym("y"), sym("z")
        A = self.A
        xi = _fmul(const(2.0), _fsum(const(self.k1), _fmul(const(self.k2), x)))
        eta1 = _fsum(_fsum(_fmul(const(A.a11), y), _fmul(const(A.a12), z)),
                     fold_constants(self.zeta[0]))
        eta2 = _fsum(_fsum(_fmul(const(A.a21), y), _fmul(const(A.a22), z)),
                     fold_constants(self.zeta[1]))
        return Generator(xi, eta1, eta2)

    def to_coefficients(self) -> tuple[float, ...]:
        """Coordinates (c1..c8) in the basis of the eight-dimensional algebra.

        The basis order is: d/dx, x d/dx, d/dy, d/dz, y d/dy, z d/dz,
        z d/dy, y d/dz — so c1 = 2*k1, c2 = 2*k2, (c3, c4) = zeta,
        c5 = a11, c6 = a22, c7 = a12, c8 = a21.  Only constant zeta lies in
        the algebra; anything else raises ValueError.
        """
        consts = []
        for i in range(2):
            zi = fold_constants(self.zeta[i])
            if free_symbols(zi):
                raise ValueError(
                    "zeta is not constant; this field has no coordinate "
                    "vector in the eight-dimensional algebra")
            consts.append(evaluate(zi, {}))
        return (2.0 * self.k1, 2.0 * self.k2, consts[0], consts[1],
                self.A.a11, self.A.a22, self.A.a12, self.A.a21)

    @staticmethod
    def from_coefficients(c: Sequence[float]) -> "LinearGenerator":
        """Inverse of :meth:`to_coefficients`."""
        c = [float(v) for v in c]
        if len(c) != 8:
            raise ValueError(f"expected 8 coefficients, got {len(c)}")
        return LinearGenerator(c[0] / 2.0, c[1] / 2.0,
                               Mat2(c[4], c[6], c[7], c[5]), (c[2], c[3]))


def _as_generator(g) -> Generator:
    if isinstance(g, LinearGenerator):
        return g.expand()
    if isinstance(g, Generator):
        return g
    raise TypeError(f"expected a Generator or LinearGenerator, got {type(g).__name__}")


#: The basis fields X1..X8, expanded once.
_BASIS = tuple(LinearGenerator.from_coefficients([float(j == i) for j in range(8)]).expand()
               for i in range(8))


def basis_generator(i: int) -> Generator:
    """Basis element i (1..8) of the symmetry algebra as a vector field.

    The fields are built once, at import, and shared: a Generator is
    immutable and its components are interned nodes, so a new build would
    give the same parts.
    """
    if not 1 <= i <= 8:
        raise ValueError(f"basis index must be 1..8, got {i}")
    return _BASIS[i - 1]


def determining_generator(xi, A: Mat2 | None = None,
                          zeta=(0.0, 0.0)) -> Generator:
    """Build the admissible-shape field 2*xi d/dx + ((A + xi' I) [y z]^T + zeta) . grad.

    This is the change of bookkeeping between the determining data
    (xi(x), constant matrix A, zeta(x)) and the vector field itself: the
    d/dx part is doubled and the dependent part picks up xi' on the
    diagonal.  With A = 0 it produces the x-dependent scaling fields of the
    algebra extensions (e.g. xi = cos(2x)/2 gives
    cos(2x) d/dx - sin(2x) (y d/dy + z d/dz)).
    """
    xi, A, (z1, z2) = _determining_data(xi, Mat2.zero() if A is None else A, zeta)
    xp = derivative(xi, "x")
    y, z = sym("y"), sym("z")
    eta1 = (A.a11 + xp) * y + A.a12 * z + z1
    eta2 = A.a21 * y + (A.a22 + xp) * z + z2
    return Generator(fold_constants(2.0 * xi), fold_constants(eta1),
                     fold_constants(eta2))


# ---------------------------------------------------------------------------
# Prolongation and residuals
# ---------------------------------------------------------------------------

def _total_derivative(e: Expr, F: Expr, G: Expr) -> Expr:
    """Total x-derivative along solutions, d/dx + yp d/dy + zp d/dz with the
    second derivatives already replaced by the folded right-hand sides.  It
    comes back folded, combined from the folded partial derivatives.

    Only the variables ``e`` contains are differentiated (x too): the term
    of a missing one is zero.  The result has the values of the full
    formula, up to the sign of a zero.
    """
    free = free_symbols(e)
    out = derivative(e, "x") if "x" in free else _ZERO
    for var, c in (("y", sym("yp")), ("z", sym("zp")), ("yp", F), ("zp", G)):
        if var in free:
            out = _fsum(out, _fmul(c, derivative(e, var)))
    return out


def residual_expressions(sys: OdeSystem, g) -> tuple[Expr, Expr]:
    """Symbolic symmetry defects (r1, r2) of ``g`` on ``sys``.

    r_i = eta_i'' - X(rhs_i) where eta_i'' is the second prolonged
    coefficient evaluated on solutions.  Both are expressions in
    (x, y, z, yp, zp); they vanish identically iff the field is a point
    symmetry of the system.

    Each r_i is ``fold_constants`` of the tree the formula writes with
    operators, up to the sign of a zero, but that tree is never built:
    folding is a bottom-up map, so every derivative is built folded by
    :func:`~liesym.expr.derivative` (a cached call per node) and the folded
    pieces are combined by the folded constructors of :mod:`liesym.expr`.
    """
    F, G = sys.resolved()
    gen = _as_generator(g)

    def D(e: Expr) -> Expr:
        return _total_derivative(e, F, G)

    dxi = D(gen.xi)  # xi depends on x alone: plain xi'
    xi, eta1, eta2 = (fold_constants(c) for c in (gen.xi, gen.eta1, gen.eta2))
    out = []
    for eta, vel, rhs in ((gen.eta1, "yp", F), (gen.eta2, "zp", G)):
        e1 = _fsub(D(eta), _fmul(sym(vel), dxi))
        e2 = _fsub(D(e1), _fmul(rhs, dxi))
        act = _ZERO  # X(rhs), by the variables rhs contains
        for c, var in ((xi, "x"), (eta1, "y"), (eta2, "z")):
            if var in free_symbols(rhs):
                act = _fsum(act, _fmul(c, derivative(rhs, var)))
        out.append(_fsub(e2, act))
    return out[0], out[1]


def _point(point, names: tuple[str, ...]) -> dict[str, float]:
    """``point`` bound to ``names``; a 5-point also serves as (x, y, z)."""
    vals = [float(v) for v in point]
    if len(vals) == 5:
        vals = vals[:len(names)]
    if len(vals) != len(names):
        raise ValueError(f"expected a {len(names)}-point ({', '.join(names)}), "
                         f"got {len(vals)} values")
    return dict(zip(names, vals))


def prolong2_residual(sys: OdeSystem, g, point) -> tuple[float, float]:
    """Both symmetry defects of ``g`` on ``sys`` at (x, y, z, yp, zp)."""
    r1, r2 = residual_expressions(sys, g)
    b = _point(point, ("x", "y", "z", "yp", "zp"))
    return evaluate(r1, b), evaluate(r2, b)


@functools.lru_cache(maxsize=16)
def _rhs_evaluator(F: Expr, G: Expr):
    """One compiled pass over F, G and their six first partials in (x, y, z),
    memoized on the resolved pair.  Nodes are interned, so equal right-hand
    sides are one key; the memo is small because each pair keeps its nodes'
    derivative caches alive."""
    partials = [derivative(rhs, v) for rhs in (F, G) for v in "xyz"]
    return compile_evaluator(F, tuple("xyz"), (G, *partials))


def determining_matrix(sys: OdeSystem, cols: Mapping[str, np.ndarray]) -> np.ndarray:
    """The determining equations as one linear map, at each point of ``cols``.

    ``cols`` holds arrays of shape (n,) for x, y and z, as from ``sample``;
    ``M[i, j] @ u``, with M of shape (2, n, 11), is determining defect i + 1
    at point j for the data u of :func:`determining_residual` at its x.  F,
    G and their six first partials come from one compiled pass, compiled
    once per resolved (F, G) pair; the xi column (2 F_x, 2 G_x) vanishes on
    an autonomous system.  A value that is not finite raises
    :class:`~liesym.expr.EvalError`.
    """
    x, y, z = (np.asarray(cols[nm], dtype=float) for nm in "xyz")
    f, (g, fx, fy, fz, gx, gy, gz) = _rhs_evaluator(*sys.resolved())(x, y, z)
    one, zero = np.ones_like(f), np.zeros_like(f)
    with np.errstate(all="ignore"):
        M = np.array([
            [2 * fx, 3 * f + y * fy + z * fz, -y, y * fy - f, z * fy - g,
             y * fz, z * fz, fy, fz, -one, zero],
            [2 * gx, 3 * g + y * gy + z * gz, -z, y * gy, z * gy,
             y * gz - f, z * gz - g, gy, gz, zero, -one]]).transpose(0, 2, 1)
    bad = np.flatnonzero(~np.isfinite(M).all(axis=(0, 2)))
    if bad.size:
        raise EvalError("a determining coefficient overflows near "
                        f"{ {nm: float(c[bad[0]]) for nm, c in zip('xyz', (x, y, z))} }")
    return M


def determining_residual(sys: OdeSystem, xi, A: Mat2, zeta, point) -> tuple[float, float]:
    """Defect of the determining equations for data (xi(x), A, zeta(x)).

    The admissible shape of a symmetry of this ODE class reduces the full
    prolongation condition to a velocity-free pair of equations in
    (x, y, z).  This is that pair at ``point`` = (x, y, z): there, the
    :func:`determining_matrix` times u = (xi, xi', xi''', A11, A12, A21,
    A22, zeta1, zeta2, zeta1'', zeta2'').  A comes before the xi'-diagonal
    shift of the expanded field (:func:`determining_generator`), whose full
    defect is minus this value.
    """
    xi, A, (z1, z2) = _determining_data(xi, A, zeta)
    b = _point(point, ("x", "y", "z"))

    def at(e: Expr, order: int) -> float:  # the order-th x-derivative at b
        for _ in range(order):
            e = derivative(e, "x")
        return evaluate(e, b)

    u = np.array([at(xi, 0), at(xi, 1), at(xi, 3), A.a11, A.a12, A.a21, A.a22,
                  at(z1, 0), at(z2, 0), at(z1, 2), at(z2, 2)], dtype=float)
    with np.errstate(all="ignore"):
        r = determining_matrix(sys, {nm: np.array([v]) for nm, v in b.items()})[:, 0] @ u
    if not np.isfinite(r).all():
        raise EvalError(f"the determining residual overflows near {b}")
    return float(r[0]), float(r[1])


def autonomous_residual(sys: OdeSystem, k2: float, A: Mat2, k, point) -> tuple[float, float]:
    """Symmetry defect of a constant-coefficient affine field on an autonomous system.

    ``A`` and ``k`` are the matrix and constant shift of the expanded field
    (eta = A [y z]^T + k) and 2*k2*x is the x-proportional part of its
    d/dx coefficient, as in :class:`LinearGenerator`.  It is minus the
    determining residual of the data (k2*x, A - k2 I, k), free of x and of
    the velocities, so ``point`` may be (x, y, z) or a 5-point; it equals
    ``prolong2_residual(sys, LinearGenerator(k1, k2, A, k), ...)`` for every
    k1 and any velocities.
    """
    if not sys.is_autonomous:
        raise ValueError("the reduced residual applies to autonomous systems "
                         "only; this system depends on x")
    A, k2 = (A if isinstance(A, Mat2) else Mat2.from_rows(A)), float(k2)
    r1, r2 = determining_residual(sys, k2 * sym("x"), A - Mat2.identity() * k2,
                                  (float(k[0]), float(k[1])), point)
    return -r1, -r2


# ---------------------------------------------------------------------------
# Sampling verdicts
# ---------------------------------------------------------------------------

#: The default admissibility test bed, which the catalog's boxes start from:
#: positive-quadrant positions with modest velocities.
BOX: Mapping[str, tuple[float, float]] = MappingProxyType(
    {"x": (0.2, 3.0), "y": (0.2, 3.0), "z": (0.2, 3.0),
     "yp": (-1.5, 1.5), "zp": (-1.5, 1.5)})


def default_domain(n: int = 200, seed: int = 0) -> SamplingDomain:
    """:data:`BOX` with ``n`` points and ``seed``."""
    return SamplingDomain(intervals=BOX, n=n, seed=seed)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an admissibility check.

    ``max_ratio`` is the worst relative residual over the sample,
    ``component`` names which of the two defects attained it (1 or 2),
    ``witness`` is the sample point where it happened and ``value`` the raw
    residual there.  These diagnostics are filled in for admitted verdicts
    too.
    """

    admitted: bool
    max_ratio: float
    component: int
    witness: dict[str, float]
    value: float


def admits(sys: OdeSystem, g, dom: SamplingDomain | None = None,
           tol: float = 1e-9) -> Verdict:
    """Does ``sys`` admit the point field ``g``?

    Both symmetry defects are put through the relative zero test of
    :func:`liesym.expr.zero_report_at` at one set of points drawn from ``dom``
    (default: :func:`default_domain`); the field is admitted iff both pass at
    ``tol``.

    The two tests do not grow one :class:`~liesym.expr.ValueTable` tape, as
    :func:`liesym.catalog.verify_entry`'s do: r1 and r2 of one field have
    few nodes in common (on the ``check`` benchmark's Laurent sums, 44,346
    distinct slots against 46,060 in the two separate tapes), so a table
    saves no time there, and holding every value of r1 while r2 runs raised
    that benchmark's peak memory by about 9%.
    """
    if dom is None:
        dom = default_domain()
    missing = set(BOX) - set(dom.names())
    if missing:
        raise ValueError(f"domain must bound all of {tuple(BOX)}; missing {sorted(missing)}")
    r1, r2 = residual_expressions(sys, g)
    pts = sample(dom)
    rep1 = zero_report_at(r1, pts, tol)
    rep2 = zero_report_at(r2, pts, tol)
    worst, comp = ((rep1, 1) if rep1.max_ratio >= rep2.max_ratio else (rep2, 2))
    return Verdict(admitted=bool(rep1.ok and rep2.ok),
                   max_ratio=worst.max_ratio, component=comp,
                   witness=worst.witness, value=worst.value)


# ---------------------------------------------------------------------------
# Covariance and commutators
# ---------------------------------------------------------------------------

def transform_generator(g: LinearGenerator, P: Mat2) -> LinearGenerator:
    """Push an affine field through the change of variables [y z] -> P [y z].

    The x-part is untouched; the dependent part transforms by conjugation:
    A -> P A P^-1 and zeta -> P zeta.  Raises ValueError for singular P.
    If the system is transformed compatibly (see
    :func:`liesym.odesys.linear_change`), admitted fields stay admitted.
    """
    if not isinstance(g, LinearGenerator):
        raise TypeError("transform_generator acts on LinearGenerator fields; "
                        "expand() others and transform coordinatewise")
    P = P if isinstance(P, Mat2) else Mat2.from_rows(P)
    Pinv = P.inv()  # raises for singular P
    A = P @ g.A @ Pinv
    z1, z2 = P.apply_vec(g.zeta[0], g.zeta[1])
    return LinearGenerator(g.k1, g.k2, A,
                           (fold_constants(z1), fold_constants(z2)))


def _apply_field(gen: Generator, f: Expr) -> Expr:
    return (gen.xi * derivative(f, "x") + gen.eta1 * derivative(f, "y")
            + gen.eta2 * derivative(f, "z"))


def commutator_vf(g1, g2) -> Generator:
    """Lie bracket [g1, g2] computed by vector-field differentiation.

    Coefficientwise: the new xi is g1(xi2) - g2(xi1), and likewise for eta1
    and eta2.  The result of bracketing two admissible fields is again a
    Generator (the xi part stays a function of x alone because both xi's
    are).
    """
    a = _as_generator(g1)
    b = _as_generator(g2)
    return Generator(fold_constants(_apply_field(a, b.xi) - _apply_field(b, a.xi)),
                     fold_constants(_apply_field(a, b.eta1) - _apply_field(b, a.eta1)),
                     fold_constants(_apply_field(a, b.eta2) - _apply_field(b, a.eta2)))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

_COMPONENTS = ("xi", "eta1", "eta2")


def system_from_json(obj: Mapping) -> OdeSystem:
    """Parse the system file format, e.g. ``{"F": "a * exp(y)", "G": 1,
    "params": {"a": 2}}``: F and G are expression strings or finite numbers,
    params values finite numbers (a bool or a string raises), other keys are
    ignored.  The params are substituted into F and G, so none may be named
    x, y, z, yp or zp, a variable it would replace.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("system JSON must be an object")
    for key in ("F", "G"):
        if key not in obj:
            raise ValueError(f"missing right-hand side {key!r}")
    params = obj.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError("params must be an object of name: number")
    for name, v in params.items():
        if not (_numbers([v], 1) and abs(v) <= float_info.max):
            raise ValueError(f"param {name!r} must be a finite number, "
                             f"got {json.dumps(v)}")
    F, G = _coerce(obj["F"], "F"), _coerce(obj["G"], "G")
    clash = set(params) & set(RESERVED_NAMES)
    if clash:
        raise ValueError(f"parameters may not shadow reserved names {sorted(clash)}")
    return OdeSystem(substitute(F, params), substitute(G, params))


def generator_from_json(obj: Mapping) -> Generator | LinearGenerator:
    """Parse the generator file format: an object of exactly one of three
    shapes::

        {"coefficients": [0, 1, 0, 0, 1, 0.5, 0, 0]}
        {"linear": {"k1": 0, "k2": 0.5, "A": [[1, 0], [0, 0.5]], "zeta": [0, 0]}}
        {"xi": "sin(x)", "eta1": "x*y", "eta2": "0"}

    ``coefficients`` are c1..c8 in the basis X1..X8 (see
    :meth:`LinearGenerator.from_coefficients`).  In the last shape a missing
    component is 0, but at least one must be given.  Keys of two shapes, or a
    key outside the chosen shape, raise ValueError.  The xi/eta1/eta2 and
    ``zeta`` values may be numbers or expression strings; ``coefficients``,
    ``k1``, ``k2`` and ``A`` take numbers only (a bool or a string raises).
    """
    if not isinstance(obj, Mapping):
        raise ValueError("generator JSON must be an object")
    shapes = [key for key in ("coefficients", "linear") if key in obj]
    if any(key in obj for key in _COMPONENTS):
        shapes.append("xi/eta1/eta2")
    if len(shapes) != 1:
        raise ValueError("generator JSON needs exactly one of 'coefficients', 'linear' "
                         f"or xi/eta1/eta2; got {' and '.join(shapes) or 'none'}")
    allowed = {shapes[0]} if shapes[0] in obj else set(_COMPONENTS)
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys in generator JSON: {sorted(unknown)}")
    if "coefficients" in obj:
        if not _numbers(obj["coefficients"], 8):
            raise ValueError("'coefficients' must be a list of 8 numbers")
        return LinearGenerator.from_coefficients(obj["coefficients"])
    if "linear" in obj:
        spec = obj["linear"]
        if not isinstance(spec, Mapping):
            raise ValueError("'linear' must be an object")
        unknown = set(spec) - {"k1", "k2", "A", "zeta"}
        if unknown:
            raise ValueError(f"unknown keys in 'linear': {sorted(unknown)}")
        if "A" not in spec:
            raise ValueError("'linear' requires the matrix 'A'")
        if not _numbers([spec.get("k1", 0.0), spec.get("k2", 0.0)], 2):
            raise ValueError("'k1' and 'k2' must be numbers")
        A = spec["A"]
        if not (isinstance(A, (list, tuple)) and len(A) == 2
                and all(_numbers(row, 2) for row in A)):
            raise ValueError("'A' must be two rows of two numbers")
        zeta = spec.get("zeta", (0.0, 0.0))
        if not isinstance(zeta, (list, tuple)) or len(zeta) != 2:
            raise ValueError("'zeta' must have exactly two entries")
        return LinearGenerator(spec.get("k1", 0.0), spec.get("k2", 0.0),
                               Mat2.from_rows(A), tuple(zeta))
    return Generator(*(obj.get(key, "0") for key in _COMPONENTS))


def generator_to_json(g) -> dict:
    """Serialize a generator to the file format (expressions as strings)."""
    if isinstance(g, LinearGenerator):
        return {"linear": {"k1": g.k1, "k2": g.k2, "A": g.A.rows(),
                           "zeta": [to_string(g.zeta[0]), to_string(g.zeta[1])]}}
    g = _as_generator(g)
    return {"xi": to_string(g.xi), "eta1": to_string(g.eta1),
            "eta2": to_string(g.eta2)}
