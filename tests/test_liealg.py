"""Symmetry-algebra tests: structure constants (antisymmetry + Jacobi over
every basis triple), closed-form automorphisms cross-checked against the
exponentials of the adjoint maps and against bracket preservation, and the
three optimal-system normalizers with replay, range, and idempotence
checks."""

import math

import numpy as np
import pytest

from liesym.jordan import classify2x2
from liesym.liealg import (
    ADJOINT_SIGNS, DIM, STRUCTURE_CONSTANTS, AlgebraElement, OptimalRep,
    adjoint_exp, apply_word, automorphism, bracket, canonical_vector,
    involution, kind_to_L4_rep, normalize_L4, normalize_L6, normalize_L8,
    rep_violations,
)
from liesym.odesys import Mat2

X = [None] + [AlgebraElement.basis(i) for i in range(1, 9)]


def elem(**kw):
    """elem(c5=1.0, c6=-2.0) style constructor."""
    c = [0.0] * 8
    for name, v in kw.items():
        c[int(name[1:]) - 1] = float(v)
    return AlgebraElement(tuple(c))


def rand_elem(rng, idx=range(1, 9), lo=-2.0, hi=2.0):
    c = [0.0] * 8
    for i in idx:
        c[i - 1] = rng.uniform(lo, hi)
    return AlgebraElement(tuple(c))


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------

EXPECTED_BRACKETS = {
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


class TestStructure:
    def test_commutator_table(self):
        for i in range(1, 9):
            for j in range(1, 9):
                got = bracket(X[i], X[j])
                want = [0.0] * 8
                if (i, j) in EXPECTED_BRACKETS:
                    for k, v in EXPECTED_BRACKETS[(i, j)].items():
                        want[k - 1] = v
                elif (j, i) in EXPECTED_BRACKETS:
                    for k, v in EXPECTED_BRACKETS[(j, i)].items():
                        want[k - 1] = -v
                assert got.c == tuple(want), f"[X{i}, X{j}]"

    def test_antisymmetry_exact(self):
        C = STRUCTURE_CONSTANTS
        assert np.array_equal(C, -np.swapaxes(C, 0, 1))

    def test_jacobi_all_triples(self):
        for i in range(1, 9):
            for j in range(1, 9):
                for k in range(1, 9):
                    s = (bracket(X[i], bracket(X[j], X[k]))
                         + bracket(X[j], bracket(X[k], X[i]))
                         + bracket(X[k], bracket(X[i], X[j])))
                    assert s.norm() == 0.0, f"Jacobi fails at ({i},{j},{k})"

    def test_bilinearity(self):
        rng = np.random.default_rng(3)
        a, b, c = (rand_elem(rng) for _ in range(3))
        lhs = bracket(a + 2.0 * b, c)
        rhs = bracket(a, c) + 2.0 * bracket(b, c)
        assert lhs.allclose(rhs, tol=1e-12)


# ---------------------------------------------------------------------------
# Automorphisms, involutions, adjoint flows
# ---------------------------------------------------------------------------

class TestAutomorphisms:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(11)
        e = rand_elem(rng)
        for i in range(1, 9):
            assert automorphism(i, 0.0, e) == e

    def test_one_parameter_groups(self):
        rng = np.random.default_rng(12)
        for i in range(1, 9):
            e = rand_elem(rng)
            a, b = 0.37, -0.81
            two = automorphism(i, b, automorphism(i, a, e))
            once = automorphism(i, a + b, e)
            assert two.allclose(once, tol=1e-12), f"family {i}"

    def test_involutions_square_to_identity(self):
        rng = np.random.default_rng(13)
        e = rand_elem(rng)
        for k in range(1, 5):
            assert involution(k, involution(k, e)) == e

    def test_brackets_preserved(self):
        # Every closed-form map is an algebra automorphism: phi[a,b] =
        # [phi a, phi b].  This pins down all the coefficient formulas.
        rng = np.random.default_rng(14)
        for trial in range(5):
            a, b = rand_elem(rng), rand_elem(rng)
            br = bracket(a, b)
            for i in range(1, 9):
                t = rng.uniform(-1.5, 1.5)
                lhs = bracket(automorphism(i, t, a), automorphism(i, t, b))
                rhs = automorphism(i, t, br)
                assert lhs.allclose(rhs, tol=1e-9), f"automorphism {i}"
            for k in range(1, 5):
                lhs = bracket(involution(k, a), involution(k, b))
                rhs = involution(k, bracket(a, b))
                assert lhs.allclose(rhs, tol=1e-12), f"involution {k}"

    def test_matches_adjoint_flow(self):
        # The closed forms are the adjoint flows run with the frozen
        # orientation table.
        rng = np.random.default_rng(15)
        for i in range(1, 9):
            for _ in range(3):
                e = rand_elem(rng)
                t = rng.uniform(-1.2, 1.2)
                closed = automorphism(i, t, e)
                flow = adjoint_exp(i, ADJOINT_SIGNS[i - 1] * t, e)
                assert closed.allclose(flow, tol=1e-9), f"family {i}"

    def test_adjoint_exp_group_property(self):
        rng = np.random.default_rng(16)
        e = rand_elem(rng)
        for i in (2, 5, 7):
            ab = adjoint_exp(i, 0.4, adjoint_exp(i, 0.35, e))
            assert ab.allclose(adjoint_exp(i, 0.75, e), tol=1e-9)

    def test_x_scaling_slot_invariant(self):
        # The coefficient of x d/dx survives every move.
        rng = np.random.default_rng(17)
        e = rand_elem(rng)
        for i in range(1, 9):
            assert automorphism(i, 0.9, e).c[1] == e.c[1]
        for k in range(1, 5):
            assert involution(k, e).c[1] == e.c[1]

    def test_matrix_invariants(self):
        # tr and det of [[c5, c7], [c8, c6]] are conjugation invariants of
        # the moves that touch that block.
        rng = np.random.default_rng(18)
        e = rand_elem(rng, idx=range(3, 9))

        def trdet(el):
            c = el.c
            return (c[4] + c[5], c[4] * c[5] - c[6] * c[7])

        t0, d0 = trdet(e)
        for i in range(3, 9):
            t1, d1 = trdet(automorphism(i, 0.63, e))
            assert t1 == pytest.approx(t0, abs=1e-12)
            assert d1 == pytest.approx(d0, abs=1e-12)
        for k in range(1, 5):
            t1, d1 = trdet(involution(k, e))
            assert t1 == pytest.approx(t0, abs=1e-12)
            assert d1 == pytest.approx(d0, abs=1e-12)

    def test_bad_indices(self):
        e = AlgebraElement.zero()
        with pytest.raises(ValueError):
            automorphism(9, 1.0, e)
        with pytest.raises(ValueError):
            involution(5, e)
        with pytest.raises(ValueError):
            adjoint_exp(0, 1.0, e)


# ---------------------------------------------------------------------------
# Normalizers
# ---------------------------------------------------------------------------

def _replay_ok(e, rep, tol=1e-12):
    got = apply_word(rep.word, e)
    want = rep.scale * canonical_vector(rep)
    err = (got - want).norm()
    assert err <= tol * (1.0 + e.norm()), f"replay error {err}"


def _random_word(rng, n=4, aidx=(3, 4, 5, 6, 7, 8), eidx=(1, 2, 3, 4)):
    """Scrambling word; restrict aidx/eidx to moves that keep the element
    inside the subalgebra under test (A3/A4 inject translation slots)."""
    word = []
    for _ in range(n):
        if rng.uniform() < 0.75:
            i = aidx[int(rng.integers(0, len(aidx)))]
            word.append(("A", i, float(rng.uniform(-1, 1))))
        else:
            k = eidx[int(rng.integers(0, len(eidx)))]
            word.append(("E", k))
    return tuple(word)


_L4_MOVES = dict(aidx=(5, 6, 7, 8), eidx=(1, 2, 4))


class TestNormalizeL4:
    def test_already_canonical_diagonal(self):
        rep = normalize_L4(elem(c5=1.0, c6=0.25))
        assert rep.family == 1
        assert rep.params["alpha"] == pytest.approx(0.25)
        assert rep.scale == pytest.approx(1.0)
        assert rep.word == ()

    def test_diagonal_ordering_and_sign(self):
        rep = normalize_L4(elem(c5=2.0, c6=-6.0))
        assert rep.family == 1
        assert rep.scale == pytest.approx(-6.0)
        assert rep.params["alpha"] == pytest.approx(-1.0 / 3.0)
        _replay_ok(elem(c5=2.0, c6=-6.0), rep)

    def test_generic_diagonalizable(self):
        e = elem(c5=1.0, c6=-0.5, c7=0.8, c8=0.3)
        # Eigenvalues of [[1, .8], [.3, -.5]]: disc = 2.25 + .96 > 0.
        rep = normalize_L4(e)
        assert rep.family == 1
        assert -1.0 <= rep.params["alpha"] <= 1.0
        _replay_ok(e, rep)
        assert rep_violations(rep) == []

    def test_rotation_class_recovers_parameter(self):
        rng = np.random.default_rng(21)
        base = elem(c5=0.7, c6=0.7, c7=-1.0, c8=1.0)
        rep0 = normalize_L4(base)
        assert rep0.family == 2 and rep0.word == ()
        assert rep0.params["alpha"] == pytest.approx(0.7)
        for _ in range(10):
            e = apply_word(_random_word(rng, **_L4_MOVES), base)
            rep = normalize_L4(e)
            assert rep.family == 2
            assert rep.params["alpha"] == pytest.approx(0.7, abs=1e-9)
            _replay_ok(e, rep)

    def test_shear_classes(self):
        rng = np.random.default_rng(22)
        for beta, base in ((1.0, elem(c5=1.0, c6=1.0, c7=1.0)),
                           (0.0, elem(c7=1.0))):
            for _ in range(10):
                e = apply_word(_random_word(rng, **_L4_MOVES), base)
                rep = normalize_L4(e)
                assert rep.family == 3
                assert rep.params["beta"] == beta
                _replay_ok(e, rep)

    def test_zero(self):
        rep = normalize_L4(AlgebraElement.zero())
        assert rep.family == 4 and rep.scale == 1.0

    def test_support_check(self):
        with pytest.raises(ValueError):
            normalize_L4(elem(c3=1.0, c5=1.0))
        with pytest.raises(ValueError):
            normalize_L4(elem(c1=1.0))

    def test_agrees_with_matrix_classification(self):
        # The normalizer's family/parameters must coincide with the ones
        # read off the 2x2 normal form of [[c5, c7], [c8, c6]].
        rng = np.random.default_rng(23)
        for _ in range(300):
            e = rand_elem(rng, idx=range(5, 9))
            M = Mat2(e.c[4], e.c[6], e.c[7], e.c[5])
            rep_n = normalize_L4(e)
            rep_j = kind_to_L4_rep(classify2x2(M))
            assert rep_n.family == rep_j.family
            for key in rep_j.params:
                assert rep_n.params[key] == pytest.approx(
                    rep_j.params[key], abs=1e-7)
            if rep_j.family == 1:
                assert rep_n.scale == pytest.approx(rep_j.scale, rel=1e-7)
            elif rep_j.family == 2:
                assert abs(rep_n.scale) == pytest.approx(rep_j.scale, rel=1e-7)

    @pytest.mark.parametrize("block, family", [
        ((1.0, 1.0, 0.0, 1.0), 3), ((0.0, 1.0, 0.0, 0.0), 3),
        ((2.0, 0.0, 0.0, -3.0), 1), ((1.0, 0.0, 0.0, 1.0), 1),
        ((1.0, 2.0, -2.0, 1.0), 2), ((2.0, 1.0, 1e-8, 2.0), 1),
    ])
    def test_block_family_is_scale_free(self, block, family):
        # [[c5, c7], [c8, c6]] scaled by 1e-9 .. 1e9 keeps its family in both
        # the Jordan classifier and the normalizer
        for k in range(-9, 10):
            a11, a12, a21, a22 = (10.0 ** k * v for v in block)
            rep_j = kind_to_L4_rep(classify2x2(Mat2(a11, a12, a21, a22)))
            rep_n = normalize_L4(elem(c5=a11, c6=a22, c7=a12, c8=a21))
            assert (rep_j.family, rep_n.family) == (family, family), k

    def test_randomized_replay_ranges_idempotence(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            e = rand_elem(rng, idx=range(5, 9))
            rep = normalize_L4(e)
            assert rep_violations(rep) == []
            _replay_ok(e, rep)
            again = normalize_L4(canonical_vector(rep))
            assert again.family == rep.family
            for key, val in rep.params.items():
                assert again.params[key] == pytest.approx(val, abs=1e-9)
            assert again.scale == pytest.approx(1.0, abs=1e-9)


class TestNormalizeL6:
    def test_translation_only_cases(self):
        rep = normalize_L6(elem(c3=3.0))
        assert rep.family == 7 and rep.scale == pytest.approx(3.0)
        assert rep.word == ()

        e = elem(c3=1.0, c4=2.0)
        rep = normalize_L6(e)
        assert rep.family == 7 and rep.scale == pytest.approx(1.0)
        _replay_ok(e, rep)

        e = elem(c4=0.5)
        rep = normalize_L6(e)
        assert rep.family == 7 and rep.scale == pytest.approx(0.5)
        _replay_ok(e, rep)

    def test_zero(self):
        assert normalize_L6(AlgebraElement.zero()).family == 8

    def test_diagonal_with_translations(self):
        e = elem(c3=1.0, c4=1.0, c5=1.0, c6=0.4)
        rep = normalize_L6(e)
        assert rep.family == 1
        assert rep.params["alpha"] == pytest.approx(0.4)
        assert rep.scale == pytest.approx(1.0)
        _replay_ok(e, rep)

    def test_null_second_scaling_keeps_translation(self):
        # X5 + c4 X4 cannot lose the X4 part; it lands on X4 + X5.
        e = elem(c4=0.8, c5=1.0, c3=0.2)
        rep = normalize_L6(e)
        assert rep.family == 2
        assert rep.scale == pytest.approx(1.0)
        _replay_ok(e, rep)
        # ...unless the translation sits in the scaled slot only.
        e2 = elem(c3=0.2, c5=1.0)
        rep2 = normalize_L6(e2)
        assert rep2.family == 1
        assert rep2.params["alpha"] == 0.0
        _replay_ok(e2, rep2)

    def test_rotation_with_translations(self):
        e = elem(c3=1.0, c4=2.0, c5=0.3, c6=0.3, c7=-1.0, c8=1.0)
        rep = normalize_L6(e)
        assert rep.family == 4
        assert rep.params["alpha"] == pytest.approx(0.3)
        assert rep.params["beta"] == 0.0
        _replay_ok(e, rep)

        e0 = elem(c3=-0.7, c4=0.1, c7=-2.0, c8=2.0)
        rep0 = normalize_L6(e0)
        assert rep0.family == 3
        assert rep0.scale == pytest.approx(2.0)
        _replay_ok(e0, rep0)

    def test_shear_with_translations(self):
        e = elem(c3=0.4, c4=-0.2, c5=1.0, c6=1.0, c7=1.0)
        rep = normalize_L6(e)
        assert rep.family == 6
        _replay_ok(e, rep)

        e1 = elem(c3=0.3, c4=0.8, c7=1.0)
        rep1 = normalize_L6(e1)
        assert rep1.family == 5
        assert rep1.params["beta"] == 1.0
        assert rep1.scale == pytest.approx(math.sqrt(0.8))
        _replay_ok(e1, rep1)

        e2 = elem(c3=0.3, c7=1.0)
        rep2 = normalize_L6(e2)
        assert rep2.family == 5 and rep2.params["beta"] == 0.0
        _replay_ok(e2, rep2)

    def test_support_check(self):
        with pytest.raises(ValueError):
            normalize_L6(elem(c2=1.0, c5=1.0))

    def test_randomized(self):
        rng = np.random.default_rng(31)
        fams = set()
        for _ in range(400):
            if rng.uniform() < 0.5:
                e = rand_elem(rng, idx=range(3, 9))
            else:
                # Exercise the thin classes too.
                base = {
                    0: elem(c4=1.0, c5=1.0),
                    1: elem(c7=1.0, c4=0.5),
                    2: elem(c7=-1.0, c8=1.0, c3=0.3),
                    3: elem(c3=1.0, c4=-0.5),
                }[int(rng.integers(0, 4))]
                e = apply_word(_random_word(rng), base)
            rep = normalize_L6(e)
            fams.add(rep.family)
            assert rep_violations(rep) == []
            _replay_ok(e, rep)
            again = normalize_L6(canonical_vector(rep))
            assert again.family == rep.family
            for key, val in rep.params.items():
                assert again.params[key] == pytest.approx(val, abs=1e-9)
        assert {1, 2, 3, 4, 5, 7}.issubset(fams)


class TestNormalizeL8:
    def test_x_scaling_decoration(self):
        e = elem(c2=0.6, c5=1.0, c6=0.4)
        rep = normalize_L8(e)
        assert rep.family == 1
        assert rep.params["gamma"] == pytest.approx(0.6)
        assert rep.params["alpha"] == pytest.approx(0.4)
        assert rep.kernel_c1 == 0.0
        _replay_ok(e, rep)

    def test_x_translation_removed_when_scaling_present(self):
        e = elem(c1=1.2, c2=0.6, c5=1.0, c6=0.4)
        rep = normalize_L8(e)
        assert rep.family == 1
        assert rep.params["gamma"] == pytest.approx(0.6)
        assert rep.word[0] == ("A", 1, pytest.approx(2.0))
        _replay_ok(e, rep)

    def test_pure_x_directions(self):
        rep = normalize_L8(elem(c1=-0.7))
        assert rep.family == "kernel" and rep.scale == pytest.approx(0.7)
        assert rep.word == (("E", 3),)
        _replay_ok(elem(c1=-0.7), rep)
        rep2 = normalize_L8(elem(c2=2.5))
        assert rep2.family == 8 and rep2.scale == pytest.approx(2.5)
        rep3 = normalize_L8(elem(c1=1.0, c2=1.0))
        assert rep3.family == 8 and rep3.scale == pytest.approx(1.0)
        _replay_ok(elem(c1=1.0, c2=1.0), rep3)

    def test_stuck_x_translation_rides_along(self):
        e = elem(c1=2.0, c3=3.0)
        rep = normalize_L8(e)
        assert rep.family == 7
        assert rep.kernel_c1 == 1.0
        assert rep.scale == pytest.approx(3.0)
        assert rep.params["gamma"] == 0.0
        _replay_ok(e, rep)
        # Negative alignment needs the x-reflection.
        e2 = elem(c1=-2.0, c3=3.0)
        rep2 = normalize_L8(e2)
        assert ("E", 3) in rep2.word
        _replay_ok(e2, rep2)

    def test_zero(self):
        assert normalize_L8(AlgebraElement.zero()).family == 0

    def test_gamma_zero_plain_reduction(self):
        e = elem(c5=1.0, c6=-0.3, c3=0.2)
        rep = normalize_L8(e)
        assert rep.algebra == "L8" and rep.family == 1
        assert rep.params["gamma"] == 0.0
        _replay_ok(e, rep)

    def test_randomized(self):
        rng = np.random.default_rng(41)
        fams = set()
        for _ in range(400):
            u = rng.uniform()
            if u < 0.4:
                e = rand_elem(rng)
            elif u < 0.7:
                e = rand_elem(rng, idx=[1, 3, 4, 5, 6, 7, 8])
            else:
                e = rand_elem(rng, idx=[2, 5, 6, 7, 8])
            rep = normalize_L8(e)
            fams.add(rep.family)
            assert rep_violations(rep) == []
            _replay_ok(e, rep)
            again = normalize_L8(canonical_vector(rep))
            assert again.family == rep.family
            assert again.kernel_c1 == rep.kernel_c1
            for key, val in rep.params.items():
                assert again.params[key] == pytest.approx(val, abs=1e-9)
        assert 1 in fams

    def test_gamma_scales_inversely(self):
        # Doubling the element halves nothing: gamma is scale-free only
        # through the ratio c2/scale, so scaling the element leaves the
        # class (family, gamma) fixed while scale doubles.
        e = elem(c2=0.6, c5=1.0, c6=0.4, c3=0.3)
        rep1 = normalize_L8(e)
        rep2 = normalize_L8(2.0 * e)
        assert rep2.family == rep1.family
        assert rep2.params["gamma"] == pytest.approx(rep1.params["gamma"])
        assert rep2.scale == pytest.approx(2.0 * rep1.scale)


class TestCanonicalVectors:
    def test_published_shapes(self):
        assert canonical_vector(OptimalRep("L4", 1, {"alpha": 0.5})).c == \
            (0, 0, 0, 0, 1.0, 0.5, 0, 0)
        assert canonical_vector(OptimalRep("L4", 2, {"alpha": 0.3})).c == \
            (0, 0, 0, 0, 0.3, 0.3, -1.0, 1.0)
        assert canonical_vector(OptimalRep("L6", 2, {})).c == \
            (0, 0, 0, 1.0, 1.0, 0, 0, 0)
        assert canonical_vector(OptimalRep("L6", 4, {"alpha": 2.0, "beta": 1.0})).c == \
            (0, 0, 1.0, 0, 2.0, 2.0, -1.0, 1.0)
        assert canonical_vector(OptimalRep("L8", 6, {"gamma": -0.5})).c == \
            (0, -0.5, 0, 0, 1.0, 1.0, 1.0, 0)
        assert canonical_vector(OptimalRep("L8", "kernel", {})).c == \
            (1.0, 0, 0, 0, 0, 0, 0, 0)
        assert canonical_vector(
            OptimalRep("L8", 7, {"gamma": 0.0}, kernel_c1=1.0)).c == \
            (1.0, 0, 1.0, 0, 0, 0, 0, 0)

    def test_range_checks(self):
        assert rep_violations(OptimalRep("L4", 1, {"alpha": 1.5}))
        assert rep_violations(OptimalRep("L4", 2, {"alpha": -0.1}))
        assert rep_violations(OptimalRep("L4", 3, {"beta": 0.5}))
        assert rep_violations(OptimalRep("L6", 4, {"alpha": -1.0, "beta": 0.0}))
        assert rep_violations(OptimalRep("L6", 5, {"beta": 2.0}))
        assert rep_violations(OptimalRep("L8", 3, {"gamma": 1e9})) == []


def _row_params(rng, algebra, family, kernel_c1):
    """Parameters of a valid representative of the row, by the published
    ranges: alpha in [-1, 1] (family 1), alpha >= 0 (L4 family 2), alpha > 0
    and beta in {-1, 0, 1} (L6 family 4), beta in {0, 1} (L4 family 3, L6
    family 5), and gamma free in the full algebra, 0 next to kernel_c1 = 1."""
    if algebra == "L4":
        return [{"alpha": rng.uniform(-1.0, 1.0)}, {"alpha": rng.uniform(0.0, 2.0)},
                {"beta": float(rng.integers(2))}, {}][family - 1]
    p = {1: {"alpha": rng.uniform(-1.0, 1.0)},
         4: {"alpha": rng.uniform(0.1, 2.0), "beta": float(rng.integers(-1, 2))},
         5: {"beta": float(rng.integers(2))}}.get(family, {})
    if algebra == "L8" and family in range(1, 8):
        p["gamma"] = rng.uniform(-2.0, 2.0) if kernel_c1 == 0.0 else 0.0
    return p


#: Every row of the representative table, with kernel_c1 = 1 where a class
#: can carry it.
TABLE_ROWS = ([("L4", f, 0.0) for f in range(1, 5)]
              + [("L6", f, 0.0) for f in range(1, 9)]
              + [("L8", f, 0.0) for f in ("kernel", 0, *range(1, 9))]
              + [("L8", f, 1.0) for f in range(1, 8)])


class TestRepresentativeTable:
    def test_rows_cover_the_table(self):
        from liesym.liealg import _REPS
        assert {(a, f) for a, f, _ in TABLE_ROWS} == set(_REPS)

    @pytest.mark.parametrize("algebra, family, kernel_c1", TABLE_ROWS,
                             ids=[f"{a}-{f}-{int(k)}" for a, f, k in TABLE_ROWS])
    def test_row_is_reached_and_round_trips(self, algebra, family, kernel_c1):
        # a conjugate of the row's representative, by integer shears (exact
        # on integer entries, so the equal-eigenvalue classes stay exact),
        # involutions and a scale, normalizes back onto the row
        normalize = {"L4": normalize_L4, "L6": normalize_L6, "L8": normalize_L8}[algebra]
        shears = {"L4": (7, 8), "L6": (3, 4, 7, 8), "L8": (1, 3, 4, 7, 8)}[algebra]
        flips = (1, 2, 4, 3) if algebra == "L8" else (1, 2, 4)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rep = OptimalRep(algebra, family, _row_params(rng, algebra, family, kernel_c1),
                             kernel_c1=kernel_c1)
            assert rep_violations(rep) == []
            e = canonical_vector(rep)
            for _ in range(4):
                e = automorphism(int(rng.choice(shears)), float(rng.integers(-2, 3)), e)
                e = involution(int(rng.choice(flips)), e)
            got = normalize(float(rng.choice([2.0, -0.5, 3.0])) * e)
            assert (got.family, got.kernel_c1) == (family, kernel_c1)
            assert rep_violations(got) == []
            again = normalize(canonical_vector(got))
            assert (again.family, again.kernel_c1) == (family, kernel_c1)
            assert rep_violations(again) == []

    @pytest.mark.parametrize("algebra, family, params, name", [
        ("L4", 1, {}, "alpha"),
        ("L4", 3, {}, "beta"),
        ("L6", 1, {}, "alpha"),
        ("L6", 4, {"beta": 0.0}, "alpha"),
        ("L6", 5, {}, "beta"),
        ("L8", 2, {}, "gamma"),
    ])
    def test_missing_parameter_is_named(self, algebra, family, params, name):
        rep = OptimalRep(algebra, family, params)
        with pytest.raises(ValueError, match=f"^{algebra} family {family} needs {name}$"):
            canonical_vector(rep)
        assert rep_violations(rep) == [f"family {family} needs {name}"]

    def test_unknown_rows(self):
        for rep, text in [(OptimalRep("L4", 5), "unknown family 5"),
                          (OptimalRep("L8", 9), "unknown family 9"),
                          (OptimalRep("L5", 1), "unknown algebra L5")]:
            with pytest.raises(ValueError, match=text):
                canonical_vector(rep)
            assert rep_violations(rep) == [text]


# ---------------------------------------------------------------------------
# Degenerate and invalid input
# ---------------------------------------------------------------------------

_NORMALIZERS = {"L4": (normalize_L4, 4), "L6": (normalize_L6, 2), "L8": (normalize_L8, 0)}
# exact small numbers mixed with entries six orders of magnitude away
_FUZZ_ENTRIES = [0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 3.0, 1e-9, -1e-9, 1e-13, 1e6, 1e-7]
# the normalizers' own error texts; numpy's or Python's arithmetic ones are leaks
_LIESYM_ERRORS = ("normalize_L", "scaling block", "cannot classify")


class TestDegenerateInput:
    def test_near_scalar_block_keeps_the_residue(self):
        # the c8 residue of X5 + X6 cannot be sheared away (no c7 to pair
        # with), so it stays, as a lone c7 residue does: the replay is exact
        # up to the residue, which lies inside the classifier's gap tolerance
        for e in (elem(c5=1, c6=1, c8=1e-9), elem(c5=1, c6=1, c7=1e-9)):
            rep = normalize_L8(e)
            assert (rep.family, rep.params, rep.word) == (1, {"alpha": 1.0, "gamma": 0.0}, ())
            _replay_ok(e, rep, tol=1e-9)

    def test_tiny_block_is_not_read_as_scalar(self):
        e = elem(c8=-1e-9)
        rep = normalize_L4(e)
        assert (rep.family, rep.params, rep.scale) == (3, {"beta": 0.0}, -1e-9)
        _replay_ok(e, rep)

    @pytest.mark.parametrize("algebra", sorted(_NORMALIZERS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients(self, algebra, bad):
        fn, _ = _NORMALIZERS[algebra]
        with pytest.raises(ValueError, match=f"normalize_{algebra} needs finite"):
            fn(elem(c5=1.0, c8=bad))

    def test_overflowing_block_is_an_error(self):
        with pytest.raises(ValueError, match="cannot classify"):
            normalize_L4(elem(c5=1e160, c6=1e160, c8=1.0))

    def test_singular_block_is_named(self):
        # the gap 0.5 is below the tolerance at scale 1e6, so the block reads
        # as defective with a nonzero eigenvalue, but it is singular
        with pytest.raises(ValueError, match=r"scaling block .* singular"):
            normalize_L6(elem(c4=0.5, c5=1.0, c7=1e6))

    @pytest.mark.parametrize("algebra", sorted(_NORMALIZERS))
    def test_seeded_fuzz_fails_only_with_liesym_errors(self, algebra):
        fn, lo = _NORMALIZERS[algebra]
        rng = np.random.default_rng({"L4": 40, "L6": 41, "L8": 42}[algebra])
        failures = 0
        for _ in range(700):
            c = (0.0,) * lo + tuple(rng.choice(_FUZZ_ENTRIES, DIM - lo))
            try:
                rep = fn(AlgebraElement(c))
            except ValueError as exc:
                assert str(exc).startswith(_LIESYM_ERRORS), (c, str(exc))
                failures += 1
                continue
            assert rep_violations(rep) == [], c
        assert failures <= 35  # at most 5% of the draws
