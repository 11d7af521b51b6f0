"""Systems y'' = F, z'' = G and the equivalence transformations between them.

A system is a pair of expression right-hand sides in (x, y, z), with any
parameters already bound (see :func:`liesym.symmetry.system_from_json`).
Three transformations preserve the class: an invertible linear mix
of the dependent variables, a shift of each dependent variable by a function
of x, and a reparametrization of x (which drags a forced rescaling of y and z
along with it).  The module also carries the small 2x2 real matrix type used
throughout, and a heuristic that flags right-hand sides built from a
degenerate pair of one-variable profile functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .expr import (
    Expr, _as_expr, derivative, fold_constants, free_symbols,
    sample, sqrt, substitute_folded, sym, SamplingDomain, ValueTable, zero_report_at,
)

__all__ = ["Mat2", "OdeSystem", "ReducibilityHint", "linear_change",
           "shift_change", "reparam_change", "reducibility_hint"]

_SINGULAR_TOL = 1e-12
_HINT_TOL = 1e-9


@dataclass(frozen=True)
class Mat2:
    """A real 2x2 matrix, row-major."""

    a11: float
    a12: float
    a21: float
    a22: float

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def zero() -> "Mat2":
        return Mat2(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def diag(a: float, b: float) -> "Mat2":
        return Mat2(float(a), 0.0, 0.0, float(b))

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(float(a), float(b), float(c), float(d))

    def rows(self):
        return [[self.a11, self.a12], [self.a21, self.a22]]

    def to_array(self) -> np.ndarray:
        return np.array(self.rows(), dtype=float)

    @staticmethod
    def from_array(a) -> "Mat2":
        a = np.asarray(a, dtype=float)
        return Mat2(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    def inv(self) -> "Mat2":
        """Inverse; singular when |det| <= 1e-12 * max|entry|^2, a test that
        does not depend on the matrix's overall scale."""
        d = self.det
        size = max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))
        if abs(d) <= _SINGULAR_TOL * size * size:
            raise ValueError(f"matrix is singular (det={d!r})")
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __mul__(self, s: float) -> "Mat2":
        return Mat2(self.a11 * s, self.a12 * s, self.a21 * s, self.a22 * s)

    __rmul__ = __mul__

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def apply_vec(self, v1, v2):
        """Apply to a column vector; works for floats and expressions alike."""
        if isinstance(v1, Expr) or isinstance(v2, Expr):
            v1, v2 = _as_expr(v1), _as_expr(v2)
        return (self.a11 * v1 + self.a12 * v2,
                self.a21 * v1 + self.a22 * v2)

    def allclose(self, other: "Mat2", tol: float = 1e-9) -> bool:
        return bool(np.allclose(self.to_array(), other.to_array(),
                                rtol=tol, atol=tol))


@dataclass(frozen=True)
class OdeSystem:
    """y'' = F(x, y, z), z'' = G(x, y, z).

    F and G may use x, y and z only: bind parameters with
    :func:`~liesym.expr.substitute` first.  yp and zp may not appear at all —
    the right-hand sides of this class never involve first derivatives.
    """

    F: Expr
    G: Expr

    def __post_init__(self):
        free = free_symbols(self.F) | free_symbols(self.G)
        banned = free & {"yp", "zp"}
        if banned:
            raise ValueError(f"right-hand sides must not contain {sorted(banned)}")
        unbound = free - {"x", "y", "z"}
        if unbound:
            raise ValueError(f"unbound symbols {sorted(unbound)}; F and G may "
                             "use only x, y and z, so bind parameters first")

    @property
    def is_autonomous(self) -> bool:
        return "x" not in (free_symbols(self.F) | free_symbols(self.G))

    def resolved(self) -> tuple[Expr, Expr]:
        """(F, G) with constants folded."""
        return fold_constants(self.F), fold_constants(self.G)


# ---------------------------------------------------------------------------
# Equivalence transformations
# ---------------------------------------------------------------------------

def linear_change(sys: OdeSystem, P: Mat2) -> OdeSystem:
    """New dependent variables (ytil, ztil) = P (y, z).

    The right-hand sides transform by substituting (y, z) = P^{-1} (ytil,
    ztil) and mixing (F, G) with P, so the returned system again reads
    y'' = F, z'' = G in the new variables.
    """
    Q = P.inv()
    y_, z_ = sym("y"), sym("z")
    ysub, zsub = (fold_constants(e) for e in Q.apply_vec(y_, z_))
    Fi = substitute_folded(sys.F, {"y": ysub, "z": zsub})
    Gi = substitute_folded(sys.G, {"y": ysub, "z": zsub})
    Fn, Gn = P.apply_vec(Fi, Gi)
    return OdeSystem(fold_constants(Fn), fold_constants(Gn))


def _check_x_only(e: Expr, what: str):
    bad = free_symbols(e) - {"x"}
    if bad:
        raise ValueError(f"{what} must be a function of x only; found {sorted(bad)}")


def shift_change(sys: OdeSystem, phi: Expr, psi: Expr) -> OdeSystem:
    """New variables ytil = y + phi(x), ztil = z + psi(x).

    Forcing terms phi'' and psi'' appear on the right-hand sides; the result
    is generally non-autonomous even when the input was autonomous.
    """
    _check_x_only(phi, "phi")
    _check_x_only(psi, "psi")
    y_, z_ = sym("y"), sym("z")
    ysub = fold_constants(y_ - phi)
    zsub = fold_constants(z_ - psi)
    Fi = substitute_folded(sys.F, {"y": ysub, "z": zsub})
    Gi = substitute_folded(sys.G, {"y": ysub, "z": zsub})
    phi2 = derivative(derivative(phi, "x"), "x")
    psi2 = derivative(derivative(psi, "x"), "x")
    return OdeSystem(fold_constants(Fi + phi2), fold_constants(Gi + psi2))


def reparam_change(sys: OdeSystem, phi: Expr, phi_inv: Expr | None = None) -> OdeSystem:
    """Reparametrize xtil = phi(x) with the induced scaling ytil = y·psi,
    ztil = z·psi, psi = sqrt(phi').

    That particular psi is the one that keeps the transformed system free of
    first-derivative terms (the compatibility condition phi''/phi' = 2 psi'/psi
    holds identically for it); the remaining constant factor is normalized
    to 1 since a linear change absorbs it.

    Expressing the result in the new independent variable needs the inverse
    of phi.  Affine phi is inverted automatically; for anything else pass
    ``phi_inv`` (an expression in x representing the inverse function).
    """
    _check_x_only(phi, "phi")
    x_, y_, z_ = sym("x"), sym("y"), sym("z")

    d1 = derivative(phi, "x")
    if phi_inv is None:
        if "x" in free_symbols(d1):
            raise ValueError("phi is not affine; pass phi_inv explicitly")
        if d1.kind == "constant" and d1.value == 0.0:
            raise ValueError("phi is constant; not a reparametrization")
        a = substitute_folded(phi, {"x": 0.0})
        phi_inv = fold_constants((x_ - a) / d1)
    else:
        _check_x_only(phi_inv, "phi_inv")

    psi = sqrt(d1)
    psi1 = derivative(psi, "x")
    psi2 = derivative(psi1, "x")

    def transform(rhs: Expr, w: Expr) -> Expr:
        core = substitute_folded(rhs, {"y": y_ / psi, "z": z_ / psi})
        return (psi * core + (psi2 - 2.0 * psi1 * psi1 / psi) * (w / psi)) / (d1 * d1)

    Ftil = transform(sys.F, y_)
    Gtil = transform(sys.G, z_)

    return OdeSystem(substitute_folded(fold_constants(Ftil), {"x": phi_inv}),
                     substitute_folded(fold_constants(Gtil), {"x": phi_inv}))


# ---------------------------------------------------------------------------
# Reducibility hint
# ---------------------------------------------------------------------------

class ReducibilityHint(enum.Enum):
    """Outcome of the degenerate-profile screen for a pair (f, g) of
    one-variable functions: a vanishing derivative or a proportional pair
    signals a system equivalent to a lower/simpler class."""

    ReducibleFPrimeGPrimeZero = "f' or g' vanishes identically"
    ReducibleProportional = "g is a constant multiple of f"
    NoHint = "no degeneracy detected"


def reducibility_hint(f: Expr, g: Expr, dom: SamplingDomain) -> ReducibilityHint:
    """Screen a profile pair for degeneracy on ``dom`` (a one-variable box).

    The tests are numeric-probabilistic: f' ≡ 0 or g' ≡ 0, then the
    proportionality Wronskian f·g' − f'·g ≡ 0, all at one set of points drawn
    from ``dom`` and at the fixed zero-test tolerance 1e-9.  The three tests
    grow one :class:`~liesym.expr.ValueTable`, one tape of those points, so
    the Wronskian lays out and runs only the nodes the first two did not,
    not f' and g' again.  The screen still returns as soon as a test
    decides.  Bind any parameters in ``f`` and ``g`` with
    :func:`~liesym.expr.substitute` first.
    """
    names = dom.names()
    if len(names) != 1:
        raise ValueError("reducibility_hint needs a one-variable sampling domain")
    u = names[0]
    fp = derivative(f, u)
    gp = derivative(g, u)
    pts = sample(dom)
    table = ValueTable()
    if (zero_report_at(fp, pts, _HINT_TOL, shared=table).ok
            or zero_report_at(gp, pts, _HINT_TOL, shared=table).ok):
        return ReducibilityHint.ReducibleFPrimeGPrimeZero
    if zero_report_at(f * gp - fp * g, pts, _HINT_TOL, shared=table).ok:
        return ReducibilityHint.ReducibleProportional
    return ReducibilityHint.NoHint
