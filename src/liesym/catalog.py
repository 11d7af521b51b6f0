"""Executable catalog of second-order ODE pairs with known point symmetries.

Each entry packages a family of autonomous systems y'' = F(y, z),
z'' = G(y, z) together with the generators it is expected to admit beyond
the universal x-translation.  Entries carry a parameter schema (defaults,
admissibility constraints), can draw random admissible parameter sets, and
can verify themselves numerically: every expected generator's prolongation
residual must vanish, in the relative sense of
:func:`liesym.expr.zero_report_at`, on a sampled slice of phase space.

Entries come in three groups:

* ``T1.*`` — families listing four fields: the x-translation kernel, two
  x-profile generators selected by the sign parameter ``kappa``, and one
  linear action on (y, z) (diagonal, rotation, or shear).  Verification
  checks these four; whether the algebra holds more is not checked here.
* ``T2.*`` — families admitting exactly one extension of the kernel, one
  per optimal-system class of the eight-dimensional algebra.
* ``T3.*`` — families admitting exactly two extensions (a defining
  generator and one more).

One entry (``T2.3``) is flagged ``quarantined``: as encoded here its second
component fails verification (the sign of G is inconsistent with the listed
generator); it is kept, and reported, but counts toward no pass gate.
``T3.S5a`` is admissible only on the gamma = 1/2 subfamily, so its gamma is
pinned there.  Quarantine status travels with the verification report.

Every entry is data (see :class:`CatalogEntry`), and one generic path builds
them all: each formula is parsed once, on first use, the resolved parameter
values are substituted as constants, and the result is constant-folded.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .expr import (
    EvalError,
    Expr,
    SamplingDomain,
    ValueTable,
    const,
    cos,
    evaluate,
    exp,
    fold_constants,
    free_symbols,
    parse,
    sample,
    sin,
    substitute_folded,
    sym,
    zero_report_at,
)
from .odesys import OdeSystem, ReducibilityHint, reducibility_hint
from .symmetry import (
    BOX,
    LinearGenerator,
    basis_generator,
    determining_generator,
    residual_expressions,
)

__all__ = [
    "ParamSpec", "CatalogEntry", "GeneratorCheck", "EntryReport", "ENTRIES",
    "entry_ids", "get_entry", "list_entries", "instantiate", "draw_params",
    "verify_entry", "xi_family", "general_solution_system",
]

_EPS = 1e-6  # margin below which a constrained parameter counts as violating

# ---------------------------------------------------------------------------
# Formulas, validators, draws and sample slices shared by every entry
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _formula(text: str) -> Expr:
    """``parse(text)``, once per distinct text (the table's own: a bounded set)."""
    return parse(text)


def _value(text: str, v: Mapping[str, float]) -> float:
    """The formula's value at ``v``; a ValueError naming the values it uses if
    that is not finite."""
    e = _formula(text)
    try:
        return evaluate(e, v)
    except EvalError:
        at = ", ".join(f"{n} = {v[n]!r}" for n in sorted(free_symbols(e)))
        raise ValueError(f"{text!r} has no finite value at {at}") from None


def _bind(text: str, v: Mapping[str, float]) -> Expr:
    """The formula with the values ``v`` bound as constants, folded."""
    return substitute_folded(_formula(text), v)


_PROFILE_DOM = SamplingDomain(intervals={"u": (0.3, 2.5)}, n=64, seed=7)


@functools.lru_cache(maxsize=16)
def _screen(f: Expr, g: Expr) -> ReducibilityHint:
    """The degenerate-profile screen of the pair (f, g) on ``_PROFILE_DOM``,
    memoized on the pair.  Nodes are interned, so equal profiles are one key
    (a zero coefficient of either sign binds to the same node).  The memo is
    small because each pair it holds keeps its nodes' derivative caches
    alive; a row's defaults and a few draws fit."""
    return reducibility_hint(f, g, _PROFILE_DOM)


def _laurent(prefix: str, u: str) -> str:
    """The truncated Laurent profile c_m2*u^-2 + c_m1*u^-1 + c_p1*u + c_p2*u^2
    with coefficients named ``<prefix>m2`` .. ``<prefix>p2``."""
    return (f"{prefix}m2*({u})^-2 + {prefix}m1*({u})^-1 + {prefix}p1*({u}) "
            f"+ {prefix}p2*({u})^2")


#: The validator table.  A check ``(kind, formula, *args, message)`` fails
#: when ``_FAILS[kind](value of formula, *args)`` is true.  Two more kinds:
#: ``("nonzero", name, ...)`` fails when some |name| < 1e-12, and
#: ``("laurent",)`` when the f/g Laurent profile pair is degenerate (see
#: ``_screen``).
_FAILS = {
    "one-of": lambda x, values: x not in values,
    "away": lambda x, values, margin=_EPS: any(abs(x - a) < margin for a in values),
    "min": lambda x, bound: x < bound,
    "max": lambda x, bound: x > bound,
    "pinned": lambda x, value: abs(x - value) > 1e-9,
}


def _violation(check: tuple, v: Mapping[str, float]) -> Optional[str]:
    """The message of the failed ``check``, or None."""
    kind, *args = check
    if kind == "nonzero":
        return next((f"{nm} must be nonzero" for nm in args if abs(v[nm]) < 1e-12), None)
    if kind == "laurent":
        hint = _screen(*(_bind(_laurent(c, "u"), v) for c in "fg"))
        if hint is ReducibilityHint.NoHint:
            return None
        return (f"profile pair is degenerate ({hint.value}); "
                "pick genuinely independent nonzero profiles")
    text, *rest, msg = args
    try:
        x = _value(text, v)
    except ValueError as exc:
        return f"{msg}; {exc}"
    return msg if _FAILS[kind](x, *rest) else None


def _draw_into(v: dict, rng: np.random.Generator, specs: tuple) -> None:
    """Run draw specs ``(name, kind, *args)`` in order, RNG calls included:
    ``pm [lo hi]`` is a random sign times uniform(lo, hi) (default 0.3, 1.3),
    ``uniform lo hi``, ``choice values``, ``= formula`` of the values so far,
    and ``retry margin specs`` redraws ``specs`` until the formula ``name``
    of what they drew reaches ``margin`` in magnitude."""
    for name, kind, *args in specs:
        if kind == "pm":
            lo, hi = args or (0.3, 1.3)
            v[name] = float((1.0 if rng.uniform() < 0.5 else -1.0) * rng.uniform(lo, hi))
        elif kind == "uniform":
            v[name] = float(rng.uniform(*args))
        elif kind == "choice":
            v[name] = float(rng.choice(args[0]))
        elif kind == "=":
            v[name] = _value(args[0], v)
        else:  # retry
            margin, inner = args
            _draw_into(v, rng, inner)
            while abs(_value(name, v)) < margin:
                _draw_into(v, rng, inner)


def _pms(names: str) -> tuple:
    return tuple((nm, "pm") for nm in names.split())


def _away0(name: str) -> tuple:
    return ("away", name, (0.0,), f"{name} must be nonzero")


def _polar_push(v, u, w):
    return w * np.cos(u), w * np.sin(u)


def _spiral_push(v, u, w):
    r = w * np.exp(v["alpha"] * u)
    return r * np.cos(u) + v["y0"], r * np.sin(u) + v["z0"]


#: Named (u, v) -> (y, z) maps for entries whose slice is easiest to
#: describe parametrically: polar coordinates, and the log spiral of
#: ``alpha`` around the center (y0, z0).
_PUSHFORWARDS = {"polar": _polar_push, "spiral": _spiral_push}

#: The (u, w) box of those maps, then the coordinates they leave alone.
_PUSH_BOX = {"u": (-1.2, 1.2), "w": (0.2, 2.0),
             "x": BOX["x"], "yp": BOX["yp"], "zp": BOX["zp"]}

#: The x-profile pair of the T1 entries, by ``kappa``: (label, xi) for
#: ``determining_generator``; xi solves xi''' = 4*kappa*xi' (see xi_family).
_T1_PROFILES = {
    0.0: (("dilation", "x"), ("projective", "x^2/2")),
    -1.0: (("cos-profile", "cos(2*x)/2"), ("sin-profile", "sin(2*x)/2")),
    1.0: (("growth-profile", "exp(2*x)/2"), ("decay-profile", "exp(-2*x)/2")),
}

# ---------------------------------------------------------------------------
# Schema types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    """One named parameter of a catalog entry.

    ``derived`` parameters are computed from the free ones and cannot be
    set directly; they are listed so the schema shows the full picture.
    """

    name: str
    default: float
    constraint: str = ""
    derived: bool = False


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A family of systems plus the generators it is expected to admit.

    Every field is data.  ``F`` and ``G`` are formulas in (y, z) over the
    parameters and the ``derived`` values, which are formulas evaluated in
    order.  ``generators`` are ``(label, "c1, ..., c8")`` with the algebra
    coefficients as formulas (see ``LinearGenerator.to_coefficients``); an
    entry with ``profiles`` lists ``profiles[kappa]`` first, as
    ``(label, xi)`` for ``determining_generator``.  ``checks`` are rows of
    the validator table (see ``_FAILS``) and ``draws`` the draw specs (see
    ``_draw_into``).  Points come from the ``pushforward`` named in
    ``_PUSHFORWARDS`` or from the shared box with ``box`` overrides, whose
    bounds may be formulas.
    """

    id: str
    description: str
    params: tuple[ParamSpec, ...]
    F: str = ""
    G: str = ""
    derived: Mapping[str, str] = field(default_factory=dict)
    generators: tuple[tuple[str, str], ...] = ()
    profiles: Optional[Mapping[float, tuple]] = None
    checks: tuple[tuple, ...] = ()
    draws: tuple[tuple, ...] = ()
    box: Mapping[str, tuple] = field(default_factory=dict)
    pushforward: Optional[str] = None
    quarantined: bool = False
    notes: str = ""
    l8_family: Optional[int] = None

    def defaults(self) -> dict[str, float]:
        return {s.name: s.default for s in self.params if not s.derived}

    def resolve(self, params: Mapping[str, float] | None = None) -> dict[str, float]:
        """Merge ``params`` over the defaults and check admissibility; the
        result is a new dict.  Every check runs on every call; the one costly
        check, the Laurent screen, is memoized on its profile pair (see
        ``_screen``)."""
        p = self.defaults()
        for k, v in (params or {}).items():
            if k not in p:
                if any(s.name == k and s.derived for s in self.params):
                    raise ValueError(
                        f"{self.id}: parameter {k!r} is derived from the others "
                        "and cannot be set directly")
                raise ValueError(
                    f"{self.id}: unknown parameter {k!r} (expected one of {sorted(p)})")
            p[k] = float(v)
            if not math.isfinite(p[k]):
                raise ValueError(f"{self.id}: parameter {k!r} must be a finite "
                                 f"number, got {p[k]!r}")
        for check in self.checks:
            msg = _violation(check, p)
            if msg:
                raise ValueError(f"{self.id}: {msg}")
        return p

    def _values(self, params: Mapping[str, float]) -> dict[str, float]:
        """Resolved ``params`` plus the derived values; a derived value that
        is not finite is a ValueError naming the row, as ``resolve``'s are."""
        v = dict(params)
        for name, text in self.derived.items():
            try:
                v[name] = _value(text, v)
            except ValueError as exc:
                raise ValueError(f"{self.id}: {exc}") from None
        return v

    def _system(self, v: Mapping[str, float]) -> OdeSystem:
        return OdeSystem(_bind(self.F, v), _bind(self.G, v))

    def _labeled(self, v: Mapping[str, float]) -> list:
        out = [(label, determining_generator(xi))
               for label, xi in (self.profiles or {}).get(v.get("kappa"), ())]
        for label, coefficients in self.generators:
            c = [_value(t, v) for t in coefficients.split(",")]
            out.append((label, LinearGenerator.from_coefficients(c)))
        return out

    def build(self, params: Mapping[str, float] | None = None) -> OdeSystem:
        return self._system(self._values(self.resolve(params)))

    def labeled_generators(self, params: Mapping[str, float] | None = None) -> list:
        """``[(label, generator), ...]`` expected beyond the x-translation."""
        return self._labeled(self._values(self.resolve(params)))

    def draw(self, rng: np.random.Generator) -> dict[str, float]:
        """A random admissible parameter set, checked by :meth:`resolve`."""
        drawn: dict[str, float] = {}
        _draw_into(drawn, rng, self.draws)
        free = self.defaults()
        return self.resolve({k: x for k, x in drawn.items() if k in free})

    def sample_points(self, params: Mapping[str, float],
                      n: int = 200, seed: int = 0) -> dict[str, np.ndarray]:
        """Phase-space sample columns for (x, y, z, yp, zp).

        Entries whose coordinate slice is easiest to describe parametrically
        draw (u, v) boxes and push them through a named map; the rest sample
        the shared box with the entry's overrides.
        """
        v = self._values(params)
        if self.pushforward:
            # column by column in _PUSH_BOX order: ``sample`` draws row by row
            # and would move every point
            dom = SamplingDomain(intervals=_PUSH_BOX, n=n, seed=seed)
            rng = np.random.default_rng(dom.seed)
            c = {nm: rng.uniform(lo, hi, dom.n) for nm, (lo, hi) in dom.intervals.items()}
            yv, zv = _PUSHFORWARDS[self.pushforward](v, c["u"], c["w"])
            return {"x": c["x"], "y": yv, "z": zv, "yp": c["yp"], "zp": c["zp"]}
        intervals = dict(BOX)
        for name, bounds in self.box.items():
            intervals[name] = tuple(_value(b, v) if isinstance(b, str) else b for b in bounds)
        return sample(SamplingDomain(intervals=intervals, n=n, seed=seed))


@dataclass(frozen=True)
class GeneratorCheck:
    """Verdict for one expected generator: worst residual over the sample."""

    label: str
    ok: bool
    component: int
    max_ratio: float
    witness: dict[str, float]
    value: float


@dataclass(frozen=True)
class EntryReport:
    """Verification outcome for one catalog entry at one parameter set."""

    entry_id: str
    params: dict[str, float]
    quarantined: bool
    passed: bool
    checks: tuple[GeneratorCheck, ...]

    def worst(self) -> float:
        return max(c.max_ratio for c in self.checks)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
#
# Group T1: every system has the shape F = kappa*y + P(y, z),
# G = kappa*z + Q(y, z) with kappa in {0, -1, 1}.  The x-profile pair it
# admits solves xi''' = 4*kappa*xi' (see xi_family); the remaining listed
# generator is a linear action on (y, z) that fixes the family.
#
# Group T2: the free profiles f and g are truncated Laurent polynomials
#   c_m2*u^-2 + c_m1*u^-1 + c_p1*u + c_p2*u^2
# in the row's invariant variable.  A degenerate profile pair (constant, or
# mutually proportional) would drop the family into a simpler class, so it
# is rejected at validation time.
#
# Group T3: two extensions of the kernel (defining generator + one more).

_P = ParamSpec
_F0G0 = (_P("f0", 1.0, "nonzero"), _P("g0", 1.0, "nonzero"))
_LAURENT = (
    _P("fm2", 0.4, "f-profile coefficient of u^-2"),
    _P("fm1", -0.6, "f-profile coefficient of u^-1"),
    _P("fp1", 0.8, "f-profile coefficient of u"),
    _P("fp2", 0.3, "f-profile coefficient of u^2"),
    _P("gm2", -0.5, "g-profile coefficient of u^-2"),
    _P("gm1", 0.7, "g-profile coefficient of u^-1"),
    _P("gp1", -0.4, "g-profile coefficient of u"),
    _P("gp2", 0.6, "g-profile coefficient of u^2"),
)
_T2_PARAMS = (_P("gamma", 1.0),) + _LAURENT
_T2_DRAWS = _pms("fm2 fm1 fp1 fp2 gm2 gm1 gp1 gp2 gamma")
_T1_PARAMS = (_P("f0", 1.0, "nonzero"), _P("f1", 1.0, "nonzero"),
              _P("kappa", 0.0, "one of 0, -1, 1"))
_T1_CHECKS = (("one-of", "kappa", (0.0, -1.0, 1.0), "kappa must be one of 0, -1, 1"),
              ("nonzero", "f0", "f1"))
_T1_DRAWS = _pms("f0 f1") + (("kappa", "choice", (0.0, -1.0, 1.0)),)
_T2_CHECKS = (("laurent",),)
_NZ = ("nonzero", "f0", "g0")


def _pair(defining: str, extension: str) -> tuple:
    """The two generators of a T3 entry."""
    return (("defining", defining), ("extension", extension))


def _theta(u: str, v: str) -> tuple[str, str]:
    """The pair cos(u)*f(v) + sin(u)*g(v), sin(u)*f(v) - cos(u)*g(v)."""
    f, g = _laurent("f", v), _laurent("g", v)
    return (f"cos({u})*({f}) + sin({u})*({g})", f"sin({u})*({f}) - cos({u})*({g})")


def _polar(u: str, vpow: str) -> tuple[str, str]:
    """The pair (f0*cos(u) + g0*sin(u))*vpow, (f0*sin(u) - g0*cos(u))*vpow."""
    return (f"(f0*cos({u}) + g0*sin({u}))*({vpow})",
            f"(f0*sin({u}) - g0*cos({u}))*({vpow})")


_POLAR_U, _POLAR_V = "atan2(z, y)", "sqrt(y*y + z*z)"
# the log spiral around (y0, z0): angle u, radius v = exp(-alpha*u)*|(y, z) - center|
_SPIRAL_U = "atan2(z - z0, y - y0)"
_SPIRAL_V = f"exp(-alpha*{_SPIRAL_U})*sqrt((y - y0)*(y - y0) + (z - z0)*(z - z0))"
_SPIRAL_DAMP = f"exp((alpha - 2*gamma)*{_SPIRAL_U})"
_CHI = {"chi1": "alpha/(alpha*alpha + 1)", "chi2": "1/(alpha*alpha + 1)"}
# (suffix, center (y0, z0), the y-translation of the defining generator and
# the (y, z)-translation of T3.S4*'s extension, text)
_SPIRAL_CENTERS = (
    ("a", {**_CHI, "y0": "chi1", "z0": "-chi2"}, "-1", "-chi1, chi2",
     "center shifted by (+chi1, -chi2)"),
    ("b", {**_CHI, "y0": "-chi1", "z0": "chi2"}, "1", "chi1, -chi2",
     "center shifted by (-chi1, +chi2)"),
    ("c", {"y0": "0", "z0": "0"}, "-0", "0, 0", "center at the origin"),
)

_S1E_Q = "z*z + lam*y*z + kappa*y*y"
_S1E_COMMON = (
    "F = f0*(z - alpha*y)*Q^-gamma*psi, "
    "G = -f0*(kappa*y + (lam+alpha)*z)*Q^-gamma*psi "
    "with Q = z^2 + lam*y*z + kappa*y^2")
_S1E_BRANCHES = (
    ("psi = exp(((2*lam*gamma-4*mu)/p)*atan((lam*z+2*kappa*y)/(p*z))), "
     "p^2 = 4*kappa - lam^2",
     "exp(((2*lam*gamma - 4*mu)/pe)*atan((lam*z + 2*kappa*y)/(pe*z)))",
     (_P("lam", 1.0), _P("kappa", 1.25, "4*kappa > lam^2")),
     {"pe": "sqrt(4*kappa - lam*lam)"},
     (("min", "4*kappa - lam*lam", 0.01,
       "needs 4*kappa - lam^2 > 0 (complex-root quadratic)"),),
     (("lam", "pm"), ("pe", "uniform", 1.5, 2.5), ("kappa", "=", "(lam*lam + pe*pe)/4"))),
    ("psi = ((2*kappa*y+(lam+p)*z)/(2*kappa*y+(lam-p)*z))^((2*mu-lam*gamma)/p), "
     "p^2 = lam^2 - 4*kappa",
     "((2*kappa*y + (lam + pe)*z)/(2*kappa*y + (lam - pe)*z))^((2*mu - lam*gamma)/pe)",
     (_P("lam", 3.0, "positive"), _P("kappa", 1.0, "positive, lam^2 > 4*kappa")),
     {"pe": "sqrt(lam*lam - 4*kappa)"},
     (("min", "lam", _EPS, "needs lam > 0 and kappa > 0 so the quadratic stays positive"),
      ("min", "kappa", _EPS, "needs lam > 0 and kappa > 0 so the quadratic stays positive"),
      ("min", "lam*lam - 4*kappa", 0.01, "needs lam^2 - 4*kappa > 0 (real-root quadratic)")),
     (("lam", "uniform", 2.0, 3.0), ("t", "uniform", 0.4, 0.8),
      ("kappa", "=", "lam*lam*(1 - t*t)/4"))),
    ("psi = exp(-4*(mu*y+gamma*z)/(lam*y+2*z)), kappa = lam^2/4",
     "exp(-4*(mu*y + gamma*z)/(lam*y + 2*z))",
     (_P("lam", 2.0, "positive"), _P("kappa", 1.0, "lam^2/4", derived=True)),
     {"kappa": "lam*lam/4"},
     (("min", "lam", _EPS, "needs lam > 0 so lam*y + 2*z stays positive"),),
     (("lam", "uniform", 0.5, 1.5),)),
)

_ROWS = (
    CatalogEntry(
        id="T1.J1",
        description=("diagonal action: F = kappa*y + f0*y*z^-4*(z/y)^m, "
                     "G = kappa*z + f1*z^-3*(z/y)^m with m = -4/(gamma-1)"),
        params=(_P("gamma", 3.0, "away from 0 and 1"),) + _T1_PARAMS,
        F="kappa*y + f0*y*z^-4*(z/y)^m",
        G="kappa*z + f1*z^-3*(z/y)^m",
        derived={"m": "-4/(gamma - 1)"},
        profiles=_T1_PROFILES,
        generators=(("diag-action", "0, 0, 0, 0, gamma, 1, 0, 0"),),
        checks=_T1_CHECKS + (("away", "gamma", (0.0, 1.0), "gamma must stay away from 0 and 1"),),
        draws=_T1_DRAWS + (("gamma", "uniform", 1.5, 3.5),),
    ),
    CatalogEntry(
        id="T1.J2",
        description=("rotation action: F = kappa*y + (f0*y - f1*z)*tau, "
                     "G = kappa*z + (f0*z + f1*y)*tau with "
                     "tau = exp(4*alpha*atan2(z,y))*(y^2+z^2)^-2"),
        params=(_P("alpha", 2.0, "different from 1"),) + _T1_PARAMS,
        F="kappa*y + (f0*y - f1*z)*(exp(4*alpha*atan2(z, y))*(y*y + z*z)^-2)",
        G="kappa*z + (f0*z + f1*y)*(exp(4*alpha*atan2(z, y))*(y*y + z*z)^-2)",
        generators=(("rotation-action", "0, 0, 0, 0, alpha, alpha, -1, 1"),),
        profiles=_T1_PROFILES,
        checks=_T1_CHECKS + (("away", "alpha", (1.0,), "alpha must differ from 1"),),
        draws=_T1_DRAWS + (("alpha", "pm", 0.3, 0.9),),
    ),
    CatalogEntry(
        id="T1.J3",
        description=("shear action: F = kappa*y + exp(y/z)*z^-4*(f0*y + f1*z), "
                     "G = kappa*z + f0*z^-3*exp(y/z)"),
        params=_T1_PARAMS,
        F="kappa*y + exp(y/z)*z^-4*(f0*y + f1*z)",
        G="kappa*z + f0*z^-3*exp(y/z)",
        generators=(("shear-action", "0, 0, 0, 0, 1, 1, 4, 0"),),
        profiles=_T1_PROFILES,
        checks=_T1_CHECKS,
        draws=_T1_DRAWS,
    ),
    CatalogEntry(
        id="T2.1",
        description=("F = f(u)*y^(1-2*gamma), G = g(u)*y^(alpha-2*gamma) "
                     "with u = y^alpha/z"),
        params=(_P("gamma", 1.0), _P("alpha", 0.5, "in [-1, 1]")) + _LAURENT,
        F=f"({_laurent('f', 'y^alpha/z')})*y^(1 - 2*gamma)",
        G=f"({_laurent('g', 'y^alpha/z')})*y^(alpha - 2*gamma)",
        generators=(("extension", "0, gamma, 0, 0, 1, alpha, 0, 0"),),
        checks=_T2_CHECKS + (("min", "alpha", -1.0, "alpha must lie in [-1, 1]"),
                             ("max", "alpha", 1.0, "alpha must lie in [-1, 1]")),
        draws=_T2_DRAWS + (("alpha", "uniform", -0.9, 0.9),),
        l8_family=1,
    ),
    CatalogEntry(
        id="T2.2",
        description="F = f(u)*y^(1-2*gamma), G = g(u)*y^(-2*gamma) with u = y*exp(-z)",
        params=_T2_PARAMS,
        F=f"({_laurent('f', 'y*exp(-z)')})*y^(1 - 2*gamma)",
        G=f"({_laurent('g', 'y*exp(-z)')})*y^(-2*gamma)",
        generators=(("extension", "0, gamma, 0, 1, 1, 0, 0, 0"),),
        checks=_T2_CHECKS,
        draws=_T2_DRAWS,
        l8_family=2,
    ),
    CatalogEntry(
        id="T2.3",
        description=("polar pair F = exp(-2*gamma*u)*theta1, G = -exp(-2*gamma*u)*theta2 "
                     "with y = v*cos(u), z = v*sin(u)"),
        params=_T2_PARAMS,
        F=f"exp(-2*gamma*{_POLAR_U})*({_theta(_POLAR_U, _POLAR_V)[0]})",
        G=f"-(exp(-2*gamma*{_POLAR_U})*({_theta(_POLAR_U, _POLAR_V)[1]}))",
        generators=(("extension", "0, gamma, 0, 0, 0, 0, -1, 1"),),
        checks=_T2_CHECKS,
        draws=_T2_DRAWS,
        pushforward="polar",
        quarantined=True,
        notes=("fails verification as encoded: the listed generator sends the first "
               "residual to -2*G, so the sign of the second component is inconsistent "
               "with the first; kept for completeness with the failure reported"),
        l8_family=3,
    ),
    *(CatalogEntry(
        id=f"T2.{num}",
        description=("spiral pair F = exp((alpha-2*gamma)*u)*theta1, "
                     "G = exp((alpha-2*gamma)*u)*theta2, " + text),
        params=(_P("gamma", 1.0), _P("alpha", 0.8, "positive")) + _LAURENT,
        F=f"{_SPIRAL_DAMP}*({_theta(_SPIRAL_U, _SPIRAL_V)[0]})",
        G=f"{_SPIRAL_DAMP}*({_theta(_SPIRAL_U, _SPIRAL_V)[1]})",
        derived=center,
        generators=(("extension", f"0, gamma, {c3}, 0, alpha, alpha, -1, 1"),),
        checks=_T2_CHECKS + (("min", "alpha", _EPS, "alpha must be positive"),),
        draws=_T2_DRAWS + (("alpha", "uniform", 0.3, 1.3),),
        pushforward="spiral",
        l8_family=4,
    ) for num, (_, center, c3, _, text) in zip((4, 5, 6), _SPIRAL_CENTERS)),
    CatalogEntry(
        id="T2.7",
        description=("F = (g(z)*u + f(z))*exp(-2*gamma*u), G = g(z)*exp(-2*gamma*u) "
                     "with u = y/z"),
        params=_T2_PARAMS,
        F=f"(({_laurent('g', 'z')})*(y/z) + ({_laurent('f', 'z')}))*exp(-2*gamma*(y/z))",
        G=f"({_laurent('g', 'z')})*exp(-2*gamma*(y/z))",
        generators=(("extension", "0, gamma, 0, 0, 0, 0, 1, 0"),),
        checks=_T2_CHECKS,
        draws=_T2_DRAWS,
        box={"y": (0.2, 1.5), "z": (0.5, 3.0)},
        l8_family=5,
    ),
    CatalogEntry(
        id="T2.8",
        description=("F = (g(u)*z + f(u))*exp(-2*gamma*z), G = g(u)*exp(-2*gamma*z) "
                     "with u = z^2 - 2*y"),
        params=_T2_PARAMS,
        F=f"(({_laurent('g', 'z*z - 2*y')})*z + ({_laurent('f', 'z*z - 2*y')}))*exp(-2*gamma*z)",
        G=f"({_laurent('g', 'z*z - 2*y')})*exp(-2*gamma*z)",
        generators=(("extension", "0, gamma, 0, 1, 0, 0, 1, 0"),),
        checks=_T2_CHECKS,
        draws=_T2_DRAWS,
        box={"y": (0.2, 1.0), "z": (1.8, 3.0)},
        l8_family=5,
    ),
    CatalogEntry(
        id="T2.9",
        description=("F = ((y/z)*g(u) + f(u))*exp((1-2*gamma)*y/z), "
                     "G = g(u)*exp((1-2*gamma)*y/z) with u = z*exp(-y/z)"),
        params=_T2_PARAMS,
        F=(f"((y/z)*({_laurent('g', 'z*exp(-(y/z))')}) + ({_laurent('f', 'z*exp(-(y/z))')}))"
           "*exp((1 - 2*gamma)*(y/z))"),
        G=f"({_laurent('g', 'z*exp(-(y/z))')})*exp((1 - 2*gamma)*(y/z))",
        generators=(("extension", "0, gamma, 0, 0, 1, 1, 1, 0"),),
        checks=_T2_CHECKS,
        draws=_T2_DRAWS,
        box={"y": (0.2, 1.0), "z": (1.0, 3.0)},
        l8_family=6,
    ),
    CatalogEntry(
        id="T2.10",
        description="F = f(z)*exp(-2*gamma*y), G = g(z)*exp(-2*gamma*y)",
        params=_T2_PARAMS,
        F=f"({_laurent('f', 'z')})*exp(-2*gamma*y)",
        G=f"({_laurent('g', 'z')})*exp(-2*gamma*y)",
        generators=(("extension", "0, gamma, 1, 0, 0, 0, 0, 0"),),
        checks=_T2_CHECKS,
        draws=_T2_DRAWS,
        l8_family=7,
    ),
    CatalogEntry(
        id="T3.S1a",
        description="F = f0*z^beta*y^(1+gt), G = g0*z^(beta+1)*y^gt with gt = -2*gamma",
        params=(_P("gamma", 0.7, "nonzero"), _P("beta", 0.8, "nonzero")) + _F0G0,
        F="f0*z^beta*y^(1 + gt)",
        G="g0*z^(beta + 1)*y^gt",
        derived={"gt": "-2*gamma"},
        generators=_pair("0, gamma, 0, 0, 1, 0, 0, 0", "0, 0, 0, 0, beta, 2*gamma, 0, 0"),
        checks=(_NZ, _away0("gamma"), _away0("beta")),
        draws=_pms("gamma beta f0 g0"),
    ),
    CatalogEntry(
        id="T3.S1b",
        description="F = f0*y^(1+gt)*exp(kappa*z), G = g0*y^gt*exp(kappa*z) with gt = -2*gamma",
        params=(_P("gamma", 0.7, "nonzero"), _P("kappa", 0.8, "nonzero")) + _F0G0,
        F="f0*y^(1 + gt)*exp(kappa*z)",
        G="g0*y^gt*exp(kappa*z)",
        derived={"gt": "-2*gamma"},
        generators=_pair("0, gamma, 0, 0, 1, 0, 0, 0", "0, 0, 0, 2*gamma, kappa, 0, 0, 0"),
        checks=(_NZ, _away0("gamma"), _away0("kappa")),
        draws=_pms("gamma kappa f0 g0"),
    ),
    CatalogEntry(
        id="T3.S1c",
        description=("F = (f0*sqrt(y-z^2) + 2*g0*z)*(y-z^2)^gt, G = g0*(y-z^2)^gt "
                     "with gt = (1-4*gamma)/2; sampled on y > z^2"),
        params=(_P("gamma", 0.9, "away from 1/4"),) + _F0G0,
        F="(f0*sqrt(y - z*z) + 2*g0*z)*(y - z*z)^gt",
        G="g0*(y - z*z)^gt",
        derived={"gt": "(1 - 4*gamma)/2"},
        generators=_pair("0, gamma, 0, 0, 1, 0.5, 0, 0", "0, 0, 0, 1, 0, 0, 2, 0"),
        checks=(_NZ, ("away", "gamma", (0.25,), "gamma must stay away from 1/4")),
        draws=(("gamma - 0.25", "retry", 0.15, _pms("gamma")),) + _pms("f0 g0"),
        box={"y": (1.1, 3.0), "z": (0.2, 0.9)},
    ),
    CatalogEntry(
        id="T3.S1d",
        description=("F = f0*z^-(kappa+1)*y^(gt+1), G = g0*z^-kappa*y^gt "
                     "with gt = (kappa+1-4*gamma)/2"),
        params=(_P("gamma", 0.9), _P("kappa", 0.8, "away from -1")) + _F0G0,
        F="f0*z^(-(kappa + 1))*y^(gt + 1)",
        G="g0*z^(-kappa)*y^gt",
        derived={"gt": "(kappa + 1 - 4*gamma)/2"},
        generators=_pair("0, gamma, 0, 0, 1, 0.5, 0, 0", "0, kappa + 1, 0, 0, 0, 2, 0, 0"),
        checks=(_NZ, ("away", "kappa", (-1.0,), "kappa must differ from -1"),
                ("away", "kappa + 1 - 4*gamma", (0.0,), 2.0 * _EPS,
                 "kappa + 1 - 4*gamma must be nonzero")),
        draws=(("kappa + 1 - 4*gamma", "retry", 0.2,
                (("kappa", "uniform", 0.3, 1.3), ("gamma", "pm"))),) + _pms("f0 g0"),
    ),
    *(CatalogEntry(
        id=f"T3.S1e{k}",
        description=_S1E_COMMON + "; " + text,
        params=(_P("gamma", 0.6), _P("alpha", 0.7, "nonzero"), _P("mu", 0.4),
                _P("f0", 1.0, "nonzero")) + params,
        F=f"f0*(z - alpha*y)*(({_S1E_Q})^(-gamma)*({psi}))",
        G=f"-f0*(kappa*y + (lam + alpha)*z)*(({_S1E_Q})^(-gamma)*({psi}))",
        derived=derived,
        generators=_pair("0, gamma, 0, 0, 1, 1, 0, 0",
                         "0, 0, 0, 0, lam*gamma - mu, -mu, gamma, -kappa*gamma"),
        checks=(("nonzero", "f0"), _away0("alpha")) + checks,
        draws=_pms("gamma alpha") + (("mu", "uniform", -1.0, 1.0), ("f0", "pm")) + draws,
    ) for k, (text, psi, params, derived, checks, draws) in enumerate(_S1E_BRANCHES, 1)),
    CatalogEntry(
        id="T3.S1f",
        description=("F = f0*w^kappa*y^(1-2*gamma), G = (g0 - f0*w)*w^(kappa-1)*y^(1-2*gamma) "
                     "with w = y/(y+z)"),
        params=(_P("gamma", 0.7, "nonzero"), _P("kappa", 0.8, "nonzero")) + _F0G0,
        F="f0*(y/(y + z))^kappa*y^(1 - 2*gamma)",
        G="(g0 - f0*(y/(y + z)))*(y/(y + z))^(kappa - 1)*y^(1 - 2*gamma)",
        generators=_pair("0, gamma, 0, 0, 1, 1, 0, 0", "0, kappa, 0, 0, 0, 2, 0, 2"),
        checks=(_NZ, _away0("gamma"), _away0("kappa")),
        draws=_pms("gamma kappa f0 g0"),
    ),
    CatalogEntry(
        id="T3.S1g",
        description=("F = f0*z^-kappa*y^(gt+1), G = g0*z^(1-kappa)*y^gt "
                     "with gt = alpha*kappa - 2*gamma"),
        params=(_P("gamma", 0.7), _P("alpha", -0.7, "not in {0, 1/2, 1}"),
                _P("kappa", 0.8, "nonzero")) + _F0G0,
        F="f0*z^(-kappa)*y^(gt + 1)",
        G="g0*z^(1 - kappa)*y^gt",
        derived={"gt": "alpha*kappa - 2*gamma"},
        generators=_pair("0, gamma, 0, 0, 1, alpha, 0, 0", "0, kappa, 0, 0, 0, 2, 0, 0"),
        checks=(_NZ, _away0("kappa"),
                ("away", "alpha", (0.0, 0.5, 1.0), "alpha must avoid 0, 1/2 and 1")),
        draws=(("gamma", "pm"), ("alpha", "uniform", -1.3, -0.3)) + _pms("kappa f0 g0"),
    ),
    CatalogEntry(
        id="T3.S2",
        description=("F = f0*y^(kappa+1)*exp(-alpha*z), G = g0*y^kappa*exp(-alpha*z); "
                     "the defining generator uses gamma = (alpha-kappa)/2"),
        params=(_P("alpha", 0.9, "nonzero"), _P("kappa", 0.7, "nonzero")) + _F0G0
               + (_P("gamma", 0.1, "(alpha-kappa)/2", derived=True),),
        F="f0*y^(kappa + 1)*exp(-alpha*z)",
        G="g0*y^kappa*exp(-alpha*z)",
        derived={"gamma": "(alpha - kappa)/2"},
        generators=_pair("0, gamma, 0, 1, 1, 0, 0, 0", "0, 0, 0, kappa, alpha, 0, 0, 0"),
        checks=(_NZ, ("away", "alpha", (0.0,), "alpha and kappa must both be nonzero"),
                ("away", "kappa", (0.0,), "alpha and kappa must both be nonzero")),
        draws=_pms("alpha kappa f0 g0"),
    ),
    CatalogEntry(
        id="T3.S3a",
        description=("F = (f0*cos(u)+g0*sin(u))*v^kappa, G = (f0*sin(u)-g0*cos(u))*v^kappa "
                     "with u = atan2(z,y), v = sqrt(y^2+z^2)"),
        params=(_P("kappa", 0.8),) + _F0G0,
        F=_polar(_POLAR_U, "(y*y + z*z)^(kappa/2)")[0],
        G=_polar(_POLAR_U, "(y*y + z*z)^(kappa/2)")[1],
        generators=_pair("0, 0, 0, 0, 0, 0, -1, 1", "0, (1 - kappa)/2, 0, 0, 1, 1, 0, 0"),
        checks=(_NZ,),
        draws=_pms("kappa f0 g0"),
    ),
    CatalogEntry(
        id="T3.S3b",
        description=("F = exp(gt*u)*(f0*cos(u)+g0*sin(u))*v^(-gt*kappa-3), G likewise with "
                     "(f0*sin(u)-g0*cos(u)); u = atan2(z,y), v = sqrt(y^2+z^2), gt = -2*gamma"),
        params=(_P("gamma", 0.7, "nonzero"), _P("kappa", 0.8)) + _F0G0,
        F=f"exp(gt*{_POLAR_U})*({_polar(_POLAR_U, '(y*y + z*z)^((-gt*kappa - 3)/2)')[0]})",
        G=f"exp(gt*{_POLAR_U})*({_polar(_POLAR_U, '(y*y + z*z)^((-gt*kappa - 3)/2)')[1]})",
        derived={"gt": "-2*gamma"},
        generators=_pair("0, gamma, 0, 0, 0, 0, -1, 1", "0, 2, 0, 0, 1, 1, -kappa, kappa"),
        checks=(_NZ, _away0("gamma")),
        draws=_pms("gamma kappa f0 g0"),
    ),
    *(CatalogEntry(
        id=f"T3.S4{suffix}",
        description=("spiral pair F = exp((alpha-2*gamma)*u)*(f0*cos(u)+g0*sin(u))*v^kappa, "
                     "G likewise with (f0*sin(u)-g0*cos(u)); " + text),
        params=(_P("gamma", 0.6), _P("alpha", 0.8, "positive"), _P("kappa", 0.7)) + _F0G0,
        F=f"{_SPIRAL_DAMP}*({_polar(_SPIRAL_U, f'({_SPIRAL_V})^kappa')[0]})",
        G=f"{_SPIRAL_DAMP}*({_polar(_SPIRAL_U, f'({_SPIRAL_V})^kappa')[1]})",
        derived=center,
        generators=_pair(f"0, gamma, {c3}, 0, alpha, alpha, -1, 1",
                         f"0, (1 - kappa)/2, {shift}, 1, 1, 0, 0"),
        checks=(_NZ, ("min", "alpha", _EPS, "alpha must be positive")),
        draws=(("gamma", "pm"), ("alpha", "uniform", 0.3, 1.3)) + _pms("kappa f0 g0"),
        box={"y": ("0.2 + chi1", "3 + chi1")} if suffix == "a" else {},
    ) for suffix, center, c3, shift, text in _SPIRAL_CENTERS),
    CatalogEntry(
        id="T3.S5a",
        description=("F = g0*z^(beta-1)*exp(-y/z)*(y + kappa*gt*z), G = g0*z^beta*exp(-y/z) "
                     "with gt = 2*gamma"),
        params=(_P("gamma", 0.5, "fixed at 1/2 (see notes)"), _P("beta", 0.8), _P("kappa", 1.0),
                _P("g0", 1.0, "nonzero")),
        F="g0*z^(beta - 1)*exp(-y/z)*(y + kappa*gt*z)",
        G="g0*z^beta*exp(-y/z)",
        derived={"gt": "2*gamma"},
        generators=_pair("0, gamma, 0, 0, 0, 0, 1, 0", "0, 0, 0, 0, 1, 2*gamma, beta - 1, 0"),
        checks=(("nonzero", "g0"),
                ("pinned", "gamma", 0.5, "admitted only on the gamma = 1/2 subfamily; "
                 "leave gamma at its default")),
        draws=_pms("beta kappa g0"),
        notes=("valid on a parameter subfamily: the listed generator pair is "
               "admitted only at gamma = 1/2 (for any beta and kappa), so gamma "
               "is pinned there"),
    ),
    CatalogEntry(
        id="T3.S5b",
        description=("F = (g0*z + f0)*exp(beta*u - 2*gamma*z), G = g0*exp(beta*u - 2*gamma*z) "
                     "with u = z^2 - 2*y"),
        params=(_P("gamma", 0.7), _P("beta", 0.8, "nonzero")) + _F0G0,
        F="(g0*z + f0)*exp(beta*(z*z - 2*y) - 2*gamma*z)",
        G="g0*exp(beta*(z*z - 2*y) - 2*gamma*z)",
        generators=_pair("0, gamma, 0, 1, 0, 0, 1, 0", "0, beta, 1, 0, 0, 0, 0, 0"),
        checks=(_NZ, _away0("beta")),
        draws=_pms("gamma beta f0 g0"),
    ),
    CatalogEntry(
        id="T3.S5c",
        description=("F = (g0*z + f0*sqrt(S))*S^kappa, G = g0*S^kappa with "
                     "S = beta + z^2 - 2*y; sampled where S > 0"),
        params=(_P("kappa", 0.8, "nonzero"), _P("beta", 0.5, "> -0.9")) + _F0G0,
        F="(g0*z + f0*sqrt(beta + z*z - 2*y))*(beta + z*z - 2*y)^kappa",
        G="g0*(beta + z*z - 2*y)^kappa",
        generators=_pair("0, 0, 0, 1, 0, 0, 1, 0", "0, 1 - 2*kappa, -2*beta, 0, 4, 2, 0, 0"),
        checks=(_NZ, _away0("kappa"),
                ("min", "beta", -0.9,
                 "beta must exceed -0.9 so S stays positive on the sample box")),
        draws=(("kappa", "pm"), ("beta", "uniform", 0.3, 1.3)) + _pms("f0 g0"),
        box={"y": (0.2, 1.0), "z": (1.8, 3.0)},
    ),
    CatalogEntry(
        id="T3.S6",
        description=("F = (g0*y + f0*z)*z^(kappa-1)*exp(-gt*y/z), G = g0*z^kappa*exp(-gt*y/z) "
                     "with gt = 2*gamma + kappa - 1"),
        params=(_P("gamma", 0.7), _P("kappa", 0.8)) + _F0G0,
        F="(g0*y + f0*z)*z^(kappa - 1)*exp(-gt*(y/z))",
        G="g0*z^kappa*exp(-gt*(y/z))",
        derived={"gt": "2*gamma + kappa - 1"},
        generators=_pair("0, gamma, 0, 0, 1, 1, 1, 0", "0, kappa - 1, 0, 0, -2, -2, 0, 0"),
        checks=(_NZ, ("away", "2*gamma + kappa - 1", (0.0,),
                      "2*gamma + kappa - 1 must be nonzero")),
        draws=(("2*gamma + kappa - 1", "retry", 0.2, _pms("gamma kappa")),) + _pms("f0 g0"),
    ),
    CatalogEntry(
        id="T3.S7a",
        description=("F = f0*z^(beta-1)*exp(kappa*z - gt*y)*(kappa*z + gt*phi1), "
                     "G = g0*z^beta*exp(kappa*z - gt*y) with gt = 2*gamma and f0 = g0/gt"),
        params=(_P("gamma", 0.7, "nonzero"), _P("beta", 0.8), _P("kappa", 0.6), _P("phi1", 0.5),
                _P("g0", 1.0, "nonzero"), _P("f0", 1.0 / 1.4, "g0/(2*gamma)", derived=True)),
        F="f0*z^(beta - 1)*exp(kappa*z - gt*y)*(kappa*z + gt*phi1)",
        G="g0*z^beta*exp(kappa*z - gt*y)",
        derived={"gt": "2*gamma", "f0": "g0/gt"},
        generators=_pair("0, gamma, 1, 0, 0, 0, 0, 0", "0, 0, beta - 1, 0, 0, 2*gamma, kappa, 0"),
        checks=(("nonzero", "g0"), _away0("gamma")),
        draws=_pms("gamma beta kappa") + (("phi1", "uniform", -1.0, 1.0), ("g0", "pm")),
    ),
    CatalogEntry(
        id="T3.S7b",
        description=("F = g0*exp(beta*z + kappa*z^2 - gt*y)*(phi0*z + phi1), "
                     "G = g0*exp(beta*z + kappa*z^2 - gt*y) with gt = 2*gamma and "
                     "kappa = gt*phi0/2"),
        params=(_P("gamma", 0.7, "nonzero"), _P("beta", 0.8), _P("phi0", 0.9, "nonzero"),
                _P("phi1", 0.5), _P("g0", 1.0, "nonzero"),
                _P("kappa", 0.63, "gamma*phi0", derived=True)),
        F="g0*exp(beta*z + kappa*z*z - gt*y)*(phi0*z + phi1)",
        G="g0*exp(beta*z + kappa*z*z - gt*y)",
        derived={"gt": "2*gamma", "kappa": "gt*phi0/2"},
        generators=_pair("0, gamma, 1, 0, 0, 0, 0, 0",
                         "0, 0, beta, 2*gamma, 0, 0, 2*gamma*phi0, 0"),
        checks=(("nonzero", "g0"), _away0("gamma"), _away0("phi0")),
        draws=_pms("gamma beta phi0") + (("phi1", "uniform", -1.0, 1.0), ("g0", "pm")),
    ),
)

# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ENTRIES: dict[str, CatalogEntry] = {e.id: e for e in _ROWS}


def entry_ids() -> list[str]:
    return list(ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return ENTRIES[entry_id]
    except KeyError:
        raise ValueError(
            f"unknown catalog entry {entry_id!r}; known ids: {', '.join(ENTRIES)}") from None


def list_entries() -> list[dict]:
    """Schema view of the catalog, one dict per entry (JSON-friendly)."""
    out = []
    for e in ENTRIES.values():
        out.append({
            "id": e.id,
            "description": e.description,
            "quarantined": e.quarantined,
            "params": [asdict(s) for s in e.params],
            **({"notes": e.notes} if e.notes else {}),
        })
    return out


def instantiate(entry_id: str, params: Mapping[str, float] | None = None):
    """(system, generators) for an entry; generators are fully expanded."""
    e = get_entry(entry_id)
    v = e._values(e.resolve(params))
    gens = []
    for _, g in e._labeled(v):
        gens.append(g.expand() if isinstance(g, LinearGenerator) else g)
    return e._system(v), gens


def draw_params(entry_id: str, rng=None) -> dict[str, float]:
    """A random admissible parameter set for an entry.

    ``rng`` may be a seed or a ``numpy.random.Generator``.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return get_entry(entry_id).draw(rng)


def verify_entry(entry_id: str, params: Mapping[str, float] | None = None,
                 tol: float = 1e-8, n: int = 200, seed: int = 0) -> EntryReport:
    """Check that the expected generators are admitted at this parameter set.

    The report lists one verdict per generator (the x-translation kernel
    first); ``passed`` requires every verdict to hold.  A quarantined entry
    still produces its (failing) report — the flag rides along so callers
    can separate "broken input" from "broken entry".  Every residual is
    zero-tested on one set of points, so all of the tests grow one
    :class:`~liesym.expr.ValueTable`, one tape of those points: each test
    lays out and runs only the nodes no earlier test has, so the sample
    columns, F, G and the partials that several generators' residuals
    contain are evaluated once per call.  The report is the one unshared
    tests give.
    """
    e = get_entry(entry_id)
    p = e.resolve(params)
    v = e._values(p)
    system = e._system(v)
    pts = e.sample_points(p, n=n, seed=seed)
    table = ValueTable()
    checks = []
    for label, gen in [("kernel", basis_generator(1))] + e._labeled(v):
        r1, r2 = residual_expressions(system, gen)
        rep1 = zero_report_at(r1, pts, tol, shared=table)
        rep2 = zero_report_at(r2, pts, tol, shared=table)
        worse, comp = (rep1, 1) if rep1.max_ratio >= rep2.max_ratio else (rep2, 2)
        checks.append(GeneratorCheck(
            label=label, ok=bool(rep1.ok and rep2.ok), component=comp,
            max_ratio=worse.max_ratio, witness=worse.witness, value=worse.value))
    return EntryReport(
        entry_id=e.id, params=p, quarantined=e.quarantined,
        passed=all(c.ok for c in checks), checks=tuple(checks))


# ---------------------------------------------------------------------------
# x-profile families and the reduced general solution
# ---------------------------------------------------------------------------


def xi_family(a: float) -> tuple[Expr, Expr, Expr]:
    """Basis of solutions of the x-profile equation xi''' = a * xi'.

    a = 0 gives polynomials {1, x, x^2}; a = -p^2 the trigonometric family
    {1, cos(p*x), sin(p*x)}; a = p^2 the exponential family
    {1, exp(p*x), exp(-p*x)}.  The a = -4 and a = 4 profiles are the ones
    the ``T1.*`` entries admit at kappa = -1 and kappa = +1.
    """
    x = sym("x")
    if a == 0.0:
        return (const(1.0), x, x * x)
    p = math.sqrt(abs(a))
    if a < 0.0:
        return (const(1.0), cos(p * x), sin(p * x))
    return (const(1.0), exp(p * x), exp(-p * x))


def general_solution_system(a: float, b: float, c: float, f, g) -> OdeSystem:
    """The family solving the reduced symmetry conditions for a pure
    x-quadratic profile:

        F = b/3 + a*y/4 + y^-3 * f(z/y)
        G = c/3 + a*z/4 + z^-3 * g(z/y)

    so that 3F + y*F_y + z*F_z = a*y + b and 3G + y*G_y + z*G_z = a*z + c
    identically.  ``f`` and ``g`` are one-variable profiles in the symbol
    ``u`` (strings are parsed); a degenerate pair — either profile constant,
    or one a constant multiple of the other — is rejected because it drops
    the system into a simpler class.
    """
    fe = f if isinstance(f, Expr) else parse(str(f))
    ge = g if isinstance(g, Expr) else parse(str(g))
    for nm, e in (("f", fe), ("g", ge)):
        extra = free_symbols(e) - {"u"}
        if extra:
            raise ValueError(
                f"profile {nm} may only use the symbol 'u'; found {sorted(extra)}")
    hint = _screen(fe, ge)
    if hint is not ReducibilityHint.NoHint:
        raise ValueError(f"degenerate profile pair: {hint.value}")
    y, z = sym("y"), sym("z")
    v = z / y
    F = const(b / 3.0) + (a / 4.0) * y + y ** (-3.0) * substitute_folded(fe, {"u": v})
    G = const(c / 3.0) + (a / 4.0) * z + z ** (-3.0) * substitute_folded(ge, {"u": v})
    return OdeSystem(fold_constants(F), fold_constants(G))
