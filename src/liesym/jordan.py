"""Real Jordan classification of 2x2 matrices, with explicit conjugators.

Every real 2x2 matrix is similar over the reals to exactly one of three
shapes: diagonal, rotation-like (complex eigenvalue pair), or a single
defective block.  The classifier returns the shape, its parameters, and the
change-of-basis matrix P with

    P A P^{-1} = scale * J

where J is the *exact* template shape and ``scale`` absorbs the one degree
of freedom the templates cannot: a complex pair m ± i b is similar to the
rotation-like template only after pulling out the factor b (so the template
parameter is m/b and scale = b).  For the other two shapes scale is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .odesys import Mat2

__all__ = ["Jordan2Result", "classify2x2"]


@dataclass(frozen=True)
class Jordan2Result:
    """Shape kind ("J1" diagonal, "J2" rotation-like, "J3" defective block),
    template parameters, conjugator P, and the scale with
    P A P^{-1} = scale * J."""

    kind: str
    params: Mapping[str, float]
    P: Mat2
    scale: float
    J: Mat2

    def reconstruction_error(self, A: Mat2) -> float:
        """max-norm of P A P^{-1} - scale * J (diagnostic).  P^{-1} is the
        adjugate over det without ``Mat2.inv``'s singularity test: a J3
        conjugator such as diag(1/|n|, 1) is exactly invertible however small
        |n| is, but that test calls it singular once 1/|n| passes about 1e12."""
        P, d = self.P, self.P.det
        P_inv = Mat2(P.a22 / d, -P.a12 / d, -P.a21 / d, P.a11 / d)
        got = (P @ A @ P_inv).to_array()
        want = self.scale * self.J.to_array()
        return float(np.max(np.abs(got - want)))


def _unit(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    # Deterministic sign: the largest-magnitude component is positive.
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        v = -v
    return v


def _eigvec(a: np.ndarray, lam: float) -> np.ndarray:
    """A kernel vector of (A - lam I), choosing the better-conditioned of the
    two closed-form candidates."""
    c1 = np.array([a[0, 1], lam - a[0, 0]])
    c2 = np.array([lam - a[1, 1], a[1, 0]])
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    return _unit(v)


def classify2x2(A: Mat2) -> Jordan2Result:
    """Classify ``A`` into its real 2x2 normal form.

    A gap at or below 2*tol between the eigenvalues is treated as a repeated
    eigenvalue, and within that branch an off-diagonal remainder above tol
    makes the matrix defective.  tol = 1e-6 * max|entry| does not depend on
    the scale of ``A``, and it is near sqrt(machine epsilon) because the
    eigenvalues of a defective matrix move like the square root of a
    perturbation.

    Deterministic conventions: an exactly diagonal input keeps its entry
    order with P = I; otherwise the diagonal shape lists the larger
    eigenvalue first.  Inputs already in a template shape get P = I.
    Raises ValueError for an entry that is not finite, so large that the
    discriminant overflows (about 1e154) or, in a nonzero matrix, so small
    that max|entry|^2 underflows (about 1.5e-154).
    """
    a = A.to_array()
    norm = float(np.max(np.abs(a)))
    tol_defect = 1e-6 * norm
    tr = A.trace
    det = A.det
    disc = tr * tr - 4.0 * det
    if not (math.isfinite(disc) and math.isfinite(norm * norm)):
        raise ValueError(f"cannot classify {a.tolist()}: entries must be finite "
                         "and below about 1e154 in magnitude")
    # the gap test compares squares, which lose their precision when subnormal
    if norm > 0.0 and norm * norm < np.finfo(float).tiny:
        raise ValueError(f"cannot classify {a.tolist()}: the largest entry must "
                         "be 0 or at least about 1.5e-154 in magnitude")
    m = tr / 2.0

    if abs(disc) <= (2.0 * tol_defect) ** 2:
        # Repeated eigenvalue m.  Scalar matrix -> diagonal; else defective.
        n = a - m * np.eye(2)
        if np.max(np.abs(n)) <= tol_defect:
            return Jordan2Result("J1", {"a11": m, "a22": m}, Mat2.identity(),
                                 1.0, Mat2.diag(m, m))
        # Basis (N w, w) with the better of the two coordinate vectors for w;
        # N^2 = (disc/4) I ~ 0, so A(Nw) = m(Nw) up to the tolerance.
        cols = [n @ np.array([1.0, 0.0]), n @ np.array([0.0, 1.0])]
        w_i = 0 if np.linalg.norm(cols[0]) >= np.linalg.norm(cols[1]) else 1
        w = np.eye(2)[w_i]
        v = cols[w_i]
        S = np.column_stack([v, w])
        P = Mat2.from_array(np.linalg.inv(S))
        return Jordan2Result("J3", {"a11": m}, P, 1.0,
                             Mat2(m, 1.0, 0.0, m))

    if disc < 0.0:
        # Complex pair m ± i b.
        b = math.sqrt(-disc) / 2.0
        n = a - m * np.eye(2)
        vr = np.array([1.0, 0.0])
        vi = -(n @ vr) / b
        S = np.column_stack([vr, vi])
        P = Mat2.from_array(np.linalg.inv(S))
        a11 = m / b
        return Jordan2Result("J2", {"a11": a11}, P, b,
                             Mat2(a11, 1.0, -1.0, a11))

    # Distinct real eigenvalues.
    if A.a12 == 0.0 and A.a21 == 0.0:
        return Jordan2Result("J1", {"a11": A.a11, "a22": A.a22},
                             Mat2.identity(), 1.0, Mat2.diag(A.a11, A.a22))
    r = math.sqrt(disc)
    lam1 = (tr + r) / 2.0
    lam2 = (tr - r) / 2.0
    v1 = _eigvec(a, lam1)
    v2 = _eigvec(a, lam2)
    S = np.column_stack([v1, v2])
    P = Mat2.from_array(np.linalg.inv(S))
    return Jordan2Result("J1", {"a11": lam1, "a22": lam2}, P, 1.0,
                         Mat2.diag(lam1, lam2))
