"""Independent computations the benchmark checks liesym's outputs against.

Each oracle is written from a formula, not from the library: the algebra
brackets come from the affine vector fields themselves, exponentials from a
plain power series, derivatives from central differences, eigenvalues from
the quadratic formula.  The only liesym code used here is the scalar
evaluator, through the callables the workloads pass in.
"""

from __future__ import annotations

import math

import numpy as np

# The basis X1..X8 of the free system's symmetry algebra as affine vector
# fields on (x, y, z), written as 4x4 matrices acting on (x, y, z, 1):
#   X1 = d/dx, X2 = x d/dx, X3 = d/dy, X4 = d/dz,
#   X5 = y d/dy, X6 = z d/dz, X7 = z d/dy, X8 = y d/dz.
_SLOTS = ((0, 3), (0, 0), (1, 3), (2, 3), (1, 1), (2, 2), (1, 2), (2, 1))


def field_matrix(c) -> np.ndarray:
    m = np.zeros((4, 4))
    for (i, j), v in zip(_SLOTS, c):
        m[i, j] = v
    return m


def field_coeffs(m: np.ndarray) -> np.ndarray:
    c = np.array([m[i, j] for i, j in _SLOTS])
    rest = m.copy()
    for i, j in _SLOTS:
        rest[i, j] = 0.0
    if np.max(np.abs(rest)) > 1e-12 * (1.0 + np.max(np.abs(m))):
        raise ValueError("matrix is not a combination of X1..X8")
    return c


def field_bracket(c1, c2) -> np.ndarray:
    """[V, W] of two affine fields: its components are DW.V - DV.W, which in
    the augmented matrices is M_W M_V - M_V M_W."""
    mv, mw = field_matrix(c1), field_matrix(c2)
    return field_coeffs(mw @ mv - mv @ mw)


def bracket_table() -> np.ndarray:
    """T[i, j, k] = coefficient of X_{k+1} in [X_{i+1}, X_{j+1}]."""
    eye = np.eye(8)
    return np.array([[field_bracket(eye[i], eye[j]) for j in range(8)]
                     for i in range(8)])


_TABLE = bracket_table()
_AD = [_TABLE[i].T for i in range(8)]   # (ad_i)[k, j] = T[i, j, k]


def series_exp(m: np.ndarray, terms: int = 80) -> np.ndarray:
    """exp(m) by its Taylor series, without scaling and squaring."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


# Discrete symmetries as linear maps S of (x, y, z, 1); a field V becomes
# S V S^-1.  E1 flips z, E2 flips y, E3 flips x, E4 swaps y and z.
_INVOLUTIONS = {
    1: np.diag([1.0, 1.0, -1.0, 1.0]),
    2: np.diag([1.0, -1.0, 1.0, 1.0]),
    3: np.diag([-1.0, 1.0, 1.0, 1.0]),
    4: np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]]),
}


def replay_word(word, c) -> np.ndarray:
    """Apply a normalizer's move word to the coefficient vector ``c``.

    ("A", i, a) is the inner automorphism exp(-a ad_{X_i}); ("E", k) is the
    k-th discrete symmetry.
    """
    v = np.asarray(c, dtype=float)
    for move in word:
        if move[0] == "A":
            v = series_exp(-move[2] * _AD[move[1] - 1]) @ v
        elif move[0] == "E":
            s = _INVOLUTIONS[move[1]]
            v = field_coeffs(s @ field_matrix(v) @ np.linalg.inv(s))
        else:
            raise ValueError(f"unknown move {move!r}")
    return v


def eig2(a11: float, a12: float, a21: float, a22: float):
    """('real', l1, l2) with l1 >= l2, or ('complex', re, im) with im > 0."""
    tr = a11 + a22
    disc = tr * tr - 4.0 * (a11 * a22 - a12 * a21)
    if disc >= 0.0:
        r = math.sqrt(disc)
        return "real", (tr + r) / 2.0, (tr - r) / 2.0
    return "complex", tr / 2.0, math.sqrt(-disc) / 2.0


def affine_residual(F, G, c, y: float, z: float, rel_h: float = 1e-5):
    """Velocity-free determining residual of an affine field on an autonomous
    system y'' = F(y, z), z'' = G(y, z).

    The field is c1 d/dx + c2 x d/dx + (A (y, z) + (c3, c4)) . grad with
    A = [[c5, c7], [c8, c6]].  Its defect on the system is

        r = -(2 c2 F_vec + w1 dF_vec/dy + w2 dF_vec/dz - A F_vec),

    F_vec = (F, G), w = A (y, z) + (c3, c4), the gradients taken by central
    differences.  Returns (r1, r2, scale), scale being the largest term.
    """
    c1, c2, c3, c4, c5, c6, c7, c8 = (float(v) for v in c)
    hy = rel_h * max(1.0, abs(y))
    hz = rel_h * max(1.0, abs(z))
    f, g = F(y, z), G(y, z)
    fy = (F(y + hy, z) - F(y - hy, z)) / (2.0 * hy)
    fz = (F(y, z + hz) - F(y, z - hz)) / (2.0 * hz)
    gy = (G(y + hy, z) - G(y - hy, z)) / (2.0 * hy)
    gz = (G(y, z + hz) - G(y, z - hz)) / (2.0 * hz)
    w1 = c5 * y + c7 * z + c3
    w2 = c8 * y + c6 * z + c4
    t1 = (2.0 * c2 * f, w1 * fy, w2 * fz, c5 * f, c7 * g)
    t2 = (2.0 * c2 * g, w1 * gy, w2 * gz, c8 * f, c6 * g)
    r1 = -(t1[0] + t1[1] + t1[2] - t1[3] - t1[4])
    r2 = -(t2[0] + t2[1] + t2[2] - t2[3] - t2[4])
    scale = max(abs(t) for t in t1 + t2)
    return r1, r2, scale


def laurent_sum(terms, y, z):
    """sum of coef * y^a * z^b over ``terms`` = [(coef, a, b), ...]."""
    return sum(coef * y ** a * z ** b for coef, a, b in terms)
