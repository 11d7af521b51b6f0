"""Real 2x2 normal-form classification: designed matrices with known answers,
then randomized reconstruction against the quadratic-formula eigenvalue
oracle."""

import numpy as np
import pytest

from liesym.jordan import Jordan2Result, classify2x2
from liesym.odesys import Mat2

from oracles import eig2_quadratic


def _check_reconstruction(A: Mat2, r: Jordan2Result, tol=1e-9):
    scale = tol * (1.0 + float(np.max(np.abs(A.to_array()))))
    assert r.reconstruction_error(A) <= scale


class TestDesignedMatrices:
    def test_diagonal_stays_put(self):
        A = Mat2(2.0, 0.0, 0.0, 3.0)
        r = classify2x2(A)
        assert r.kind == "J1"
        # Exactly diagonal input keeps its own order and the identity change
        # of basis.
        assert r.params == {"a11": 2.0, "a22": 3.0}
        assert r.P.allclose(Mat2.identity())
        assert r.scale == 1.0
        _check_reconstruction(A, r)

    def test_distinct_real(self):
        A = Mat2(5.0, 4.0, 1.0, 2.0)
        r = classify2x2(A)
        assert r.kind == "J1"
        assert r.params["a11"] == pytest.approx(6.0, abs=1e-12)
        assert r.params["a22"] == pytest.approx(1.0, abs=1e-12)
        assert abs(r.P.det) > 1e-12
        _check_reconstruction(A, r)

    def test_rotation(self):
        A = Mat2(0.0, 1.0, -1.0, 0.0)
        r = classify2x2(A)
        assert r.kind == "J2"
        assert r.params["a11"] == pytest.approx(0.0, abs=1e-15)
        assert r.scale == pytest.approx(1.0)
        assert r.P.allclose(Mat2.identity())
        assert r.J.allclose(Mat2(0.0, 1.0, -1.0, 0.0))
        _check_reconstruction(A, r)

    def test_complex_with_nonunit_radius(self):
        # Eigenvalues 1 +- 2i: the block is reported in unit shape times the
        # imaginary part.
        A = Mat2(1.0, 2.0, -2.0, 1.0)
        r = classify2x2(A)
        assert r.kind == "J2"
        assert r.scale == pytest.approx(2.0)
        assert r.params["a11"] == pytest.approx(0.5)
        assert r.P.allclose(Mat2.identity())
        _check_reconstruction(A, r)

    def test_shear_block(self):
        A = Mat2(3.0, 1.0, 0.0, 3.0)
        r = classify2x2(A)
        assert r.kind == "J3"
        assert r.params["a11"] == pytest.approx(3.0)
        assert r.scale == 1.0
        assert r.P.allclose(Mat2.identity())
        _check_reconstruction(A, r)

    def test_conjugated_shear_exact(self):
        # Unimodular conjugate of [[2,1],[0,2]]; trace 4, det 4, so the
        # discriminant is exactly zero in floats.
        A = Mat2(-1.0, 1.0, -9.0, 5.0)
        r = classify2x2(A)
        assert r.kind == "J3"
        assert r.params["a11"] == pytest.approx(2.0)
        _check_reconstruction(A, r)

    def test_scalar_and_zero(self):
        r = classify2x2(Mat2(3.0, 0.0, 0.0, 3.0))
        assert r.kind == "J1" and r.params == {"a11": 3.0, "a22": 3.0}
        r0 = classify2x2(Mat2.zero())
        assert r0.kind == "J1" and r0.params == {"a11": 0.0, "a22": 0.0}

    def test_defect_tolerance_override(self):
        A = Mat2(2.0, 1.0, 1e-8, 2.0)
        # The gap tolerance sees two (ill-separated) real eigenvalues.
        assert classify2x2(A).kind == "J1"


class TestRandomized:
    def test_reconstruction_and_eigenvalues(self):
        rng = np.random.default_rng(20260822)
        kinds = {"J1": 0, "J2": 0, "J3": 0}
        for _ in range(1000):
            a = rng.uniform(-3.0, 3.0, size=4)
            A = Mat2(*a)
            r = classify2x2(A)
            kinds[r.kind] += 1
            _check_reconstruction(A, r)
            label, *vals = eig2_quadratic(*a)
            if r.kind == "J1":
                assert label == "real"
                got = sorted([r.params["a11"], r.params["a22"]])
                want = sorted(vals)
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, abs=1e-6 * (1 + abs(w)))
            elif r.kind == "J2":
                assert label == "complex"
                re, im = vals
                assert r.scale * r.params["a11"] == pytest.approx(
                    re, abs=1e-6 * (1 + abs(re)))
                assert r.scale == pytest.approx(im, abs=1e-6 * (1 + abs(im)))
        # Generic draws split between the two open classes.
        assert kinds["J1"] > 300 and kinds["J2"] > 100

    def test_random_similarity_of_shear(self):
        # Conjugating a shear block never changes its reported kind.
        rng = np.random.default_rng(7)
        for _ in range(50):
            while True:
                S = rng.uniform(-2.0, 2.0, size=(2, 2))
                if abs(np.linalg.det(S)) > 0.3:
                    break
            base = np.array([[1.5, 1.0], [0.0, 1.5]])
            A = Mat2.from_array(S @ base @ np.linalg.inv(S))
            r = classify2x2(A)
            assert r.kind == "J3"
            assert r.params["a11"] == pytest.approx(1.5, abs=1e-5)
