"""Dense linear algebra: norms, LU solves, matrix exponential."""

import numpy as np
import pytest

from pdefilter import linalg
from pdefilter.errors import SingularMatrixError

from _oracles import taylor_expm


def random_with_norm(rng, n, target_norm):
    a = rng.normal(size=(n, n))
    return a * (target_norm / linalg.one_norm(a))


class TestMatmul:
    # products are numpy's @; what is checked is the one-norm bound
    def test_submultiplicative_one_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            b = rng.normal(size=(6, 6))
            lhs = linalg.one_norm(a @ b)
            rhs = linalg.one_norm(a) * linalg.one_norm(b)
            assert lhs <= rhs * (1.0 + 1e-12)


class TestOneNorm:
    def test_zero_matrix(self):
        assert linalg.one_norm(np.zeros((4, 4))) == 0.0

    def test_identity(self):
        assert linalg.one_norm(np.eye(5)) == 1.0

    def test_direct_evaluation(self):
        assert linalg.one_norm([[1.0, -2.0], [3.0, 4.0]]) == 6.0


class TestLuSolve:
    def test_identity_system(self):
        b = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(linalg.lu_solve(np.eye(4), b), b)

    def test_diagonal_system(self):
        out = linalg.lu_solve(np.diag([2.0, 4.0]), [[2.0], [8.0]])
        np.testing.assert_allclose(out, [[1.0], [2.0]], atol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
            x0 = rng.normal(size=(8, 3))
            x = linalg.lu_solve(a, a @ x0)
            np.testing.assert_allclose(x, x0, atol=1e-10)

    def test_residual_bound_moderate_conditioning(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.normal(size=(10, 10))
            if np.linalg.cond(a) > 1e6:
                continue
            b = rng.normal(size=(10, 1))
            x = linalg.lu_solve(a, b)
            resid = np.abs(a @ x - b).max()
            assert resid <= 1e-9 * np.abs(b).max()

    def test_singular_names_pivot(self):
        a = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(SingularMatrixError, match="pivot 1") as err:
            linalg.lu_solve(a, [[1.0], [1.0]])
        assert err.value.pivot_index == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            linalg.lu_solve(np.ones((2, 3)), np.ones((2, 1)))

    def test_rejects_nan(self):
        # as_matrix rejects non-finite entries for every public function
        with pytest.raises(ValueError, match="finite"):
            linalg.lu_solve([[np.nan, 0.0], [0.0, 1.0]], np.eye(2))


class TestExpm:
    def test_zero_matrix_is_identity(self):
        out = linalg.expm(np.zeros((4, 4)))
        assert np.abs(out - np.eye(4)).max() <= 1e-14

    def test_diagonal(self):
        out = linalg.expm(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(
            out, np.diag([np.e, 1.0 / np.e]), atol=1e-10
        )

    def test_nilpotent(self):
        # the series terminates: exp([[0,1],[0,0]]) = [[1,1],[0,1]]
        out = linalg.expm([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_with_norm(rng, 8, rng.uniform(0.05, 2.0))
            expected = taylor_expm(a)
            got = linalg.expm(a)
            rel = linalg.one_norm(got - expected) / linalg.one_norm(expected)
            assert rel <= 1e-9

    def test_inverse_property(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_with_norm(rng, 6, rng.uniform(0.1, 2.0))
            prod = linalg.expm(a) @ linalg.expm(-a)
            assert linalg.one_norm(prod - np.eye(6)) <= 1e-8

    def test_block_diagonal(self):
        rng = np.random.default_rng(9)
        a = random_with_norm(rng, 3, 1.2)
        b = random_with_norm(rng, 4, 0.7)
        block = np.zeros((7, 7))
        block[:3, :3] = a
        block[3:, 3:] = b
        expected = np.zeros((7, 7))
        expected[:3, :3] = linalg.expm(a)
        expected[3:, 3:] = linalg.expm(b)
        assert linalg.one_norm(linalg.expm(block) - expected) <= 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            linalg.expm(np.ones((2, 3)))

    def test_large_norm_scaling_path(self):
        # symmetric matrices have an exact eigen-oracle even at large norm
        rng = np.random.default_rng(10)
        for target in (10.0, 40.0, 200.0):
            s = rng.normal(size=(6, 6))
            s = (s + s.T) / 2.0
            s *= target / linalg.one_norm(s)
            w, v = np.linalg.eigh(s)
            oracle = (v * np.exp(w)) @ v.T
            got = linalg.expm(s)
            rel = linalg.one_norm(got - oracle) / linalg.one_norm(oracle)
            assert rel <= 1e-12
