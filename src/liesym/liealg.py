"""The eight-dimensional symmetry algebra: brackets, automorphisms, and
optimal-system normalizers.

Basis (coefficient order c1..c8):

    X1 = d/dx            X2 = x d/dx
    X3 = d/dy            X4 = d/dz
    X5 = y d/dy          X6 = z d/dz
    X7 = z d/dy          X8 = y d/dz

The nonzero brackets among basis elements are tabulated once; everything
else follows by antisymmetry and bilinearity.  The inner automorphisms are
shipped in closed form and double-checked against the exponential of the
adjoint maps (with a fixed orientation table).  The normalizers conjugate an
element onto the published representative of its class inside the relevant
subalgebra — the scaling part X5..X8 ("L4"), the scalings plus translations
X3..X8 ("L6"), or everything except the unreachable d/dx direction ("L8") —
and return the move word so the reduction can be replayed and audited.  The
representatives themselves, with the ranges of their parameters, are stated
once, in the table ``_REPS`` that ``canonical_vector`` and ``rep_violations``
read.

A handy mental model for the X5..X8 block: arrange it as the matrix
M = [[c5, c7], [c8, c6]] acting on (y, z).  The shear automorphisms conjugate
M by elementary unipotent matrices, the scalings by diagonal ones, and the
swap involution by the permutation matrix, so normalizing M is literally a
real 2x2 normal-form computation — which is why the classifier from the
jordan module routes the branches here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .jordan import Jordan2Result, classify2x2
from .odesys import Mat2

__all__ = [
    "AlgebraElement", "OptimalRep", "DIM", "STRUCTURE_CONSTANTS",
    "ADJOINT_SIGNS", "bracket", "automorphism", "involution", "adjoint_exp",
    "apply_word", "canonical_vector", "rep_violations", "kind_to_L4_rep",
    "normalize_L4", "normalize_L6", "normalize_L8",
]

DIM = 8

# Nonzero brackets [Xi, Xj] for i < j, as {k: coefficient}.
_BRACKETS: dict[tuple[int, int], dict[int, float]] = {
    (1, 2): {1: 1.0},
    (3, 5): {3: 1.0},
    (3, 8): {4: 1.0},
    (4, 6): {4: 1.0},
    (4, 7): {3: 1.0},
    (5, 7): {7: -1.0},
    (5, 8): {8: 1.0},
    (6, 7): {7: 1.0},
    (6, 8): {8: -1.0},
    (7, 8): {5: -1.0, 6: 1.0},
}


def _build_structure() -> np.ndarray:
    C = np.zeros((DIM, DIM, DIM))
    for (i, j), comps in _BRACKETS.items():
        for k, v in comps.items():
            C[i - 1, j - 1, k - 1] = v
            C[j - 1, i - 1, k - 1] = -v
    return C


#: C[i, j, k] = coefficient of X_{k+1} in [X_{i+1}, X_{j+1}]
STRUCTURE_CONSTANTS = _build_structure()
STRUCTURE_CONSTANTS.setflags(write=False)

#: Orientation of the closed-form automorphism curves relative to the
#: adjoint flows: automorphism(i, a, e) == adjoint_exp(i, sign * a, e) with
#: sign = ADJOINT_SIGNS[i-1].  Resolved empirically against the closed-form
#: maps and frozen; it comes out -1 uniformly.
ADJOINT_SIGNS = (-1.0,) * DIM


@dataclass(frozen=True)
class AlgebraElement:
    """An element sum(c_i X_i), stored as the 8 coefficients."""

    c: tuple[float, ...]

    def __post_init__(self):
        if len(self.c) != DIM:
            raise ValueError(f"need {DIM} coefficients, got {len(self.c)}")
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement((0.0,) * DIM)

    @staticmethod
    def basis(i: int) -> "AlgebraElement":
        if not 1 <= i <= DIM:
            raise ValueError(f"basis index {i} out of range 1..{DIM}")
        c = [0.0] * DIM
        c[i - 1] = 1.0
        return AlgebraElement(tuple(c))

    @staticmethod
    def from_coeffs(vals: Iterable[float]) -> "AlgebraElement":
        return AlgebraElement(tuple(float(v) for v in vals))

    def as_array(self) -> np.ndarray:
        return np.array(self.c, dtype=float)

    def norm(self) -> float:
        return max(abs(v) for v in self.c)

    def allclose(self, other: "AlgebraElement", tol: float = 1e-9) -> bool:
        return bool(np.allclose(self.as_array(), other.as_array(),
                                rtol=tol, atol=tol))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(tuple(-a for a in self.c))

    def __mul__(self, s: float) -> "AlgebraElement":
        return AlgebraElement(tuple(a * s for a in self.c))

    __rmul__ = __mul__


def bracket(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """[e1, e2] via the structure constants (bilinear extension)."""
    out = np.einsum("i,j,ijk->k", e1.as_array(), e2.as_array(),
                    STRUCTURE_CONSTANTS)
    return AlgebraElement.from_coeffs(out)


# ---------------------------------------------------------------------------
# Automorphisms and involutions (closed form)
# ---------------------------------------------------------------------------

def automorphism(i: int, a: float, e: AlgebraElement) -> AlgebraElement:
    """The i-th one-parameter family of inner automorphisms, in closed form
    on coordinates.  Composition with the adjoint flows: see ADJOINT_SIGNS."""
    c1, c2, c3, c4, c5, c6, c7, c8 = e.c
    if i == 1:
        c1 = c1 - a * c2
    elif i == 2:
        ea = math.exp(a)
        c1 = ea * c1
    elif i == 3:
        c3 = c3 - a * c5
        c4 = c4 - a * c8
    elif i == 4:
        c3 = c3 - a * c7
        c4 = c4 - a * c6
    elif i == 5:
        ea = math.exp(a)
        c3 = ea * c3
        c7 = ea * c7
        c8 = c8 / ea
    elif i == 6:
        ea = math.exp(a)
        c4 = ea * c4
        c7 = c7 / ea
        c8 = ea * c8
    elif i == 7:
        c3, c5, c6, c7 = (c3 + a * c4,
                          c5 + a * c8,
                          c6 - a * c8,
                          c7 - a * a * c8 + a * c6 - a * c5)
    elif i == 8:
        c4, c5, c6, c8 = (c4 + a * c3,
                          c5 - a * c7,
                          c6 + a * c7,
                          c8 - a * a * c7 - a * c6 + a * c5)
    else:
        raise ValueError(f"automorphism index {i} out of range 1..8")
    return AlgebraElement((c1, c2, c3, c4, c5, c6, c7, c8))


def involution(k: int, e: AlgebraElement) -> AlgebraElement:
    """Discrete symmetries: k=1 flips the sign of z, k=2 of y, k=3 of x,
    k=4 swaps y and z."""
    c1, c2, c3, c4, c5, c6, c7, c8 = e.c
    if k == 1:
        return AlgebraElement((c1, c2, c3, -c4, c5, c6, -c7, -c8))
    if k == 2:
        return AlgebraElement((c1, c2, -c3, c4, c5, c6, -c7, -c8))
    if k == 3:
        return AlgebraElement((-c1, c2, c3, c4, c5, c6, c7, c8))
    if k == 4:
        return AlgebraElement((c1, c2, c4, c3, c6, c5, c8, c7))
    raise ValueError(f"involution index {k} out of range 1..4")


# ---------------------------------------------------------------------------
# Adjoint flows
# ---------------------------------------------------------------------------

def _ad_matrix(i: int) -> np.ndarray:
    # (M_i)_{kj} = coefficient of X_k in [X_i, X_j]
    return STRUCTURE_CONSTANTS[i - 1].T.copy()


_AD_MATRICES = [_ad_matrix(i) for i in range(1, DIM + 1)]


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a Taylor series."""
    norm = float(np.max(np.sum(np.abs(M), axis=1)))
    s = 0
    while norm > 0.5:
        norm /= 2.0
        s += 1
    A = M / (2.0 ** s)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 30):
        term = term @ A / k
        out = out + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    for _ in range(s):
        out = out @ out
    return out


def adjoint_exp(i: int, t: float, e: AlgebraElement) -> AlgebraElement:
    """exp(t * ad_{X_i}) applied to e."""
    if not 1 <= i <= DIM:
        raise ValueError(f"basis index {i} out of range 1..{DIM}")
    out = _expm(t * _AD_MATRICES[i - 1]) @ e.as_array()
    return AlgebraElement.from_coeffs(out)


# ---------------------------------------------------------------------------
# Optimal-system representatives
# ---------------------------------------------------------------------------

#: A move is ("A", i, a) for automorphism(i, a, ·) or ("E", k) for
#: involution(k, ·); words apply left to right.
Move = tuple


@dataclass(frozen=True)
class OptimalRep:
    """Result of normalizing an element onto its class representative.

    ``apply_word(word, input)`` equals ``scale * canonical_vector(self)``
    up to floating error.  ``kernel_c1`` = 1 flags the conjugation-invariant
    d/dx summand of mixed elements in the full algebra (it rides along with
    the representative, scaled like everything else).
    """

    algebra: str
    family: int | str
    params: Mapping[str, float] = field(default_factory=dict)
    word: tuple = ()
    scale: float = 1.0
    kernel_c1: float = 0.0


def apply_word(word: Sequence[Move], e: AlgebraElement) -> AlgebraElement:
    for move in word:
        if move[0] == "A":
            e = automorphism(move[1], move[2], e)
        elif move[0] == "E":
            e = involution(move[1], e)
        else:
            raise ValueError(f"bad move {move!r}")
    return e


_KERNEL_C1 = ("kernel_c1", "kernel_c1 must be 0 or 1", lambda v: v in (0.0, 1.0))

#: The optimal-system representatives, keyed by (algebra, family): the
#: coefficients c1..c8, each a number or a parameter name (``kernel_c1`` is
#: the field of that name), and the range checks (name, message, test) on the
#: parameters.  canonical_vector and rep_violations read this table only.
_REPS = {
    ("L6", 1): ((0, 0, 0, 0, 1, "alpha", 0, 0),
                (("alpha", "family 1 needs alpha in [-1, 1]",
                  lambda v: -1.0 <= v <= 1.0),)),
    ("L6", 2): ((0, 0, 0, 1, 1, 0, 0, 0), ()),
    ("L6", 3): ((0, 0, 0, 0, 0, 0, -1, 1), ()),
    ("L6", 4): ((0, 0, "beta", 0, "alpha", "alpha", -1, 1),
                (("alpha", "family 4 needs alpha > 0", lambda v: v > 0.0),
                 ("beta", "family 4 needs beta in {-1, 0, 1}",
                  lambda v: v in (-1.0, 0.0, 1.0)))),
    ("L6", 5): ((0, 0, 0, "beta", 0, 0, 1, 0),
                (("beta", "family 5 needs beta in {0, 1}", lambda v: v in (0.0, 1.0)),)),
    ("L6", 6): ((0, 0, 0, 0, 1, 1, 1, 0), ()),
    ("L6", 7): ((0, 0, 1, 0, 0, 0, 0, 0), ()),
    ("L6", 8): ((0,) * DIM, ()),
    ("L4", 2): ((0, 0, 0, 0, "alpha", "alpha", -1, 1),
                (("alpha", "family 2 needs alpha >= 0", lambda v: v >= 0.0),)),
    ("L4", 3): ((0, 0, 0, 0, "beta", "beta", 1, 0),
                (("beta", "family 3 needs beta in {0, 1}", lambda v: v in (0.0, 1.0)),)),
    ("L8", "kernel"): ((1,) + (0,) * 7, (_KERNEL_C1,)),
    ("L8", 0): (("kernel_c1",) + (0,) * 7, (_KERNEL_C1,)),
    ("L8", 8): (("kernel_c1", 1) + (0,) * 6, (_KERNEL_C1,)),
}
_REPS["L4", 1] = _REPS["L6", 1]
_REPS["L4", 4] = _REPS["L6", 8]
# families 1..7 of the full algebra: the L6 row plus gamma on x d/dx
_REPS.update({("L8", fam): (("kernel_c1", "gamma") + c[2:], checks + (_KERNEL_C1,))
              for (alg, fam), (c, checks) in _REPS.items() if alg == "L6" and fam != 8})
# each row also lists the (index, name) of its parameter slots
_REPS = {key: (c, tuple((i, v) for i, v in enumerate(c) if isinstance(v, str)), checks)
         for key, (c, checks) in _REPS.items()}


def _rep_row(rep: OptimalRep) -> tuple:
    """The table row of ``rep`` and the values its parameter names read."""
    row = _REPS.get((rep.algebra, rep.family))
    if row is None:
        if rep.algebra not in ("L4", "L6", "L8"):
            raise ValueError(f"unknown algebra {rep.algebra}")
        raise ValueError(f"unknown family {rep.family}")
    return row, {**rep.params, "kernel_c1": rep.kernel_c1}


def canonical_vector(rep: OptimalRep) -> AlgebraElement:
    """The representative element (unit scale) described by ``rep``."""
    (coeffs, slots, _), values = _rep_row(rep)
    c = list(coeffs)
    for i, name in slots:
        if name not in values:
            raise ValueError(f"{rep.algebra} family {rep.family} needs {name}")
        c[i] = values[name]
    return AlgebraElement(tuple(c))


def rep_violations(rep: OptimalRep) -> list[str]:
    """Check the representative's parameters against the published ranges."""
    try:
        (_, slots, checks), values = _rep_row(rep)
    except ValueError as exc:
        return [str(exc)]
    missing = dict.fromkeys(name for _, name in slots if name not in values)
    out = [f"family {rep.family} needs {name}" for name in missing]
    for name, text, test in checks:
        if name in values and not test(values[name]):
            out.append(text)
    return out


# ---------------------------------------------------------------------------
# Normalizers
# ---------------------------------------------------------------------------

def _scaling_matrix(e: AlgebraElement) -> Mat2:
    c = e.c
    return Mat2(c[4], c[6], c[7], c[5])


class _Reducer:
    """Accumulates a word while keeping the current element in sync, so the
    replay identity holds by construction."""

    def __init__(self, e: AlgebraElement):
        self.cur = e
        self.word: list[Move] = []

    def A(self, i: int, a: float):
        if a != 0.0:
            self.word.append(("A", i, float(a)))
            self.cur = automorphism(i, a, self.cur)

    def E(self, k: int):
        self.word.append(("E", k))
        self.cur = involution(k, self.cur)

    def c(self, i: int) -> float:
        return self.cur.c[i - 1]


def _smaller_root(a: float, b: float, c: float) -> float:
    """The smaller-magnitude real root of a x^2 + b x + c = 0 (a may be 0),
    via the cancellation-safe split.  With a = b = 0 no root exists and the
    shear is 0: the c8 residue stays, as a lone c7 residue does."""
    if a == 0.0:
        return -c / b if b != 0.0 else 0.0
    disc = b * b - 4.0 * a * c
    disc = max(disc, 0.0)
    r = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(r, b))
    # Roots are q/a and c/q; q has the larger magnitude numerator.
    if q == 0.0:
        return 0.0
    r1 = q / a
    r2 = c / q
    return r2 if abs(r2) <= abs(r1) else r1


def _reduce_scaling_part(red: _Reducer, tol: float) -> tuple:
    """Bring the X5..X8 block of red.cur to its representative shape.

    Returns (family, params, scale) in L4 numbering; moves are appended to
    the reducer (and act on the translation slots too, which is exactly what
    the larger normalizers need).
    """
    M = _scaling_matrix(red.cur)
    normM = float(np.max(np.abs(M.to_array())))
    if normM <= tol:
        return (4, {}, 1.0)
    kind = classify2x2(M).kind

    if kind == "J1":
        # Shear away c8 (smaller root keeps the word tame), then c7, then
        # order the diagonal by magnitude.  A couple of cleanup sweeps
        # re-kill the rounding residue of one shear before the next one can
        # amplify it, which matters when the eigenvalue gap is small.
        tiny = 1e-15 * (1.0 + normM)
        for _ in range(3):
            c5, c6, c7, c8 = red.c(5), red.c(6), red.c(7), red.c(8)
            red.A(8, _smaller_root(c7, -(c5 - c6), -c8))
            c5, c6, c7 = red.c(5), red.c(6), red.c(7)
            if c7 != 0.0 and c5 != c6:
                red.A(7, c7 / (c5 - c6))
            if abs(red.c(7)) <= tiny and abs(red.c(8)) <= tiny:
                break
        if abs(red.c(5)) < abs(red.c(6)):
            red.E(4)
        scale = red.c(5)
        alpha = red.c(6) / scale
        return (1, {"alpha": alpha}, scale)

    if kind == "J2":
        c5, c6, c8 = red.c(5), red.c(6), red.c(8)
        red.A(7, (c6 - c5) / (2.0 * c8))
        p, q = red.c(7), red.c(8)
        t = 0.5 * math.log(abs(q / p))
        red.A(5, t)
        scale = -red.c(7)
        alpha = (red.c(5) + red.c(6)) / (2.0 * scale)
        if alpha < 0.0:
            if abs(alpha) > 1e-13:
                red.E(1)
                scale = -scale
                alpha = -alpha
            else:
                alpha = abs(alpha)
        return (2, {"alpha": alpha}, scale)

    # J3: triangularize with equal diagonal, then match the off-diagonal
    # entry to the eigenvalue (or leave it as the pure shear when the
    # eigenvalue is zero).
    c5, c6, c7, c8 = red.c(5), red.c(6), red.c(7), red.c(8)
    if c8 != 0.0:
        if c7 != 0.0:
            red.A(8, (c5 - c6) / (2.0 * c7))
        else:
            red.E(4)
    m = 0.5 * (red.c(5) + red.c(6))
    tshear = red.c(7)
    if abs(m) <= tol:
        return (3, {"beta": 0.0}, tshear)
    if m / tshear < 0.0:
        red.E(1)
        tshear = -tshear
    red.A(5, math.log(m / tshear))
    scale = m
    return (3, {"beta": 1.0}, scale)


def _kill_translations(red: _Reducer):
    """Solve M (a3, a4) = (c3, c4) and shear the translation slots away;
    a singular M raises ValueError.  One step of iterative refinement
    keeps the residual at rounding level even for unlucky conditioning."""
    M = _scaling_matrix(red.cur).to_array()
    t = np.array([red.c(3), red.c(4)])
    try:
        a = np.linalg.solve(M, t)
    except np.linalg.LinAlgError:
        raise ValueError(f"scaling block {M.tolist()} is singular to working "
                         "precision; cannot remove the translations") from None
    a = a + np.linalg.solve(M, t - M @ a)
    red.A(3, float(a[0]))
    red.A(4, float(a[1]))


def _normalize(algebra: str, e: AlgebraElement, zero_idx: tuple, reduce) -> OptimalRep:
    """The one normalizer path: check ``e`` (finite, zero at ``zero_idx``),
    run ``reduce(reducer, atol)`` -> (family, params, scale[, kernel_c1]) and
    wrap the result with the reducer's word."""
    what = f"normalize_{algebra}"
    if not all(math.isfinite(v) for v in e.c):
        raise ValueError(f"{what} needs finite coefficients, got {list(e.c)}")
    atol = 1e-12 * (1.0 + e.norm())
    bad = [i for i in zero_idx if abs(e.c[i - 1]) > atol]
    if bad:
        raise ValueError(f"{what} expects zero coefficients at {bad} "
                         f"(support restricted to the subalgebra)")
    red = _Reducer(e)
    family, params, scale, *kernel = reduce(red, atol)
    return OptimalRep(algebra=algebra, family=family, params=params,
                      word=tuple(red.word), scale=scale,
                      kernel_c1=kernel[0] if kernel else 0.0)


def normalize_L4(e: AlgebraElement) -> OptimalRep:
    """Representative of span(e) inside the scaling subalgebra X5..X8.

    Families: 1 diagonal (X5 + alpha X6, -1 <= alpha <= 1), 2 rotation-like
    (alpha(X5+X6) + X8 - X7, alpha >= 0), 3 shear (beta(X5+X6) + X7, beta in
    {0,1}), 4 zero.
    """
    return _normalize("L4", e, (1, 2, 3, 4), _reduce_scaling_part)


def _l6_families(red: _Reducer, atol: float) -> tuple:
    """Shared by the L6/L8 normalizers: reduce scalings, then translations.
    Returns (family, params, scale) in L6 numbering."""
    fam4, params, scale = _reduce_scaling_part(red, atol)

    if fam4 == 4:
        # Pure translations.
        if abs(red.c(3)) <= atol and abs(red.c(4)) <= atol:
            return (8, {}, 1.0)
        if abs(red.c(3)) > atol:
            red.A(8, -red.c(4) / red.c(3))
        else:
            red.E(4)
        return (7, {}, red.c(3))

    if fam4 == 1:
        alpha = params["alpha"]
        if abs(alpha) > 1e-13:
            _kill_translations(red)
            return (1, params, scale)
        # alpha == 0: the z-scaling slot is empty, so only c3 can be killed
        # by shears; a leftover c4 rescales onto X4 + X5.
        red.A(3, red.c(3) / red.c(5))
        c4 = red.c(4)
        if abs(c4) <= atol:
            return (1, {"alpha": 0.0}, scale)
        if c4 / scale < 0.0:
            red.E(1)
            c4 = -c4
        red.A(6, math.log(scale / c4))
        return (2, {}, scale)

    if fam4 == 2:
        _kill_translations(red)
        alpha = params["alpha"]
        if alpha <= 1e-13:
            return (3, {}, scale)
        return (4, {"alpha": alpha, "beta": 0.0}, scale)

    # fam4 == 3
    if params["beta"] == 1.0:
        _kill_translations(red)
        return (6, {}, scale)
    # beta == 0: M is the pure shear; c3 dies through c7, c4 is stuck.
    red.A(4, red.c(3) / red.c(7))
    c4 = red.c(4)
    if abs(c4) <= atol:
        return (5, {"beta": 0.0}, scale)
    if red.c(7) / c4 < 0.0:
        red.E(2)
    t = 0.5 * math.log(red.c(7) / red.c(4))
    red.A(6, t)
    return (5, {"beta": 1.0}, red.c(4))


def normalize_L6(e: AlgebraElement) -> OptimalRep:
    """Representative of span(e) inside the scalings-plus-translations
    subalgebra X3..X8.

    Families: 1 X5 + alpha X6; 2 X4 + X5; 3 X8 - X7; 4 beta X3 +
    alpha(X5+X6) + X8 - X7 (alpha > 0); 5 beta X4 + X7; 6 X5 + X6 + X7;
    7 X3; 8 zero.  The translation shears can always reach beta = 0 in
    family 4, so that is what comes out.
    """
    return _normalize("L6", e, (1, 2), _l6_families)


def _l8_families(red: _Reducer, atol: float) -> tuple:
    """The full-algebra reduction behind normalize_L8.  Returns (family,
    params, scale), plus kernel_c1 = 1 for a mixed element."""
    c1, c2 = red.c(1), red.c(2)
    if abs(c2) > atol:
        red.A(1, c1 / c2)
        family, params, scale = _l6_families(red, atol)
        if family == 8:
            # Nothing outside the x-direction: the element is c2 * X2.
            return (8, {}, c2)
        return (family, {**params, "gamma": c2 / scale}, scale)

    if all(abs(v) <= atol for v in red.cur.c[2:]):
        if abs(c1) <= atol:
            return (0, {}, 1.0)
        if c1 < 0.0:
            red.E(3)
        return ("kernel", {}, abs(c1))

    # Some |c3..c8| > atol, so the L6 family is never 8 here.
    family, params, scale = _l6_families(red, atol)
    params = {**params, "gamma": 0.0}
    if abs(c1) <= atol:
        return (family, params, scale)
    # Mixed: reduce the removable part, then scale the stuck c1 onto the
    # representative's overall scale.
    if red.c(1) / scale < 0.0:
        red.E(3)
    red.A(2, math.log(scale / red.c(1)))
    return (family, params, scale, 1.0)


def normalize_L8(e: AlgebraElement) -> OptimalRep:
    """Representative of span(e) in the full coefficient space.

    With c2 != 0 the c1 slot is removable and the rest reduces as in the
    six-dimensional case, decorated by gamma = c2 / scale on x d/dx
    (families 1..7), or is x d/dx itself (family 8).  With c2 = 0 the c1
    slot is conjugation-invariant: a pure d/dx element reports the family
    "kernel", a mixed element keeps its reduced representative plus the
    flag kernel_c1 = 1.  The zero element reports family 0.
    """
    return _normalize("L8", e, (), _l8_families)


def kind_to_L4_rep(r: Jordan2Result) -> OptimalRep:
    """Map a classified shape to its scaling-subalgebra representative.

    The four families: diagonal with eigenvalue ratio alpha in [-1, 1];
    rotation-like with alpha >= 0; defective with beta in {0, 1}; and the
    zero matrix.  The returned representative carries the overall scale; the
    sign/swap bookkeeping needed to *reach* it is the normalizer's job (the
    word here is empty).
    """
    if r.kind == "J1":
        l1, l2 = r.params["a11"], r.params["a22"]
        big, small = (l1, l2) if abs(l1) >= abs(l2) else (l2, l1)
        if big == 0.0:  # no absolute floor: classify2x2 is scale-free
            return OptimalRep(algebra="L4", family=4)
        return OptimalRep(algebra="L4", family=1,
                          params={"alpha": small / big}, scale=big)
    if r.kind == "J2":
        return OptimalRep(algebra="L4", family=2,
                          params={"alpha": abs(r.params["a11"])}, scale=r.scale)
    m = r.params["a11"]
    if m == 0.0:  # no absolute floor, as for J1
        return OptimalRep(algebra="L4", family=3, params={"beta": 0.0})
    return OptimalRep(algebra="L4", family=3, params={"beta": 1.0}, scale=m)
