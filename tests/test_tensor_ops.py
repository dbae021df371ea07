"""Tensor kernel checks against direct triple-loop summation oracles."""

import numpy as np
import pytest

from affinitykg.models import ModelParams, score_tucker
from affinitykg.tensor_ops import mode_n_product, tucker_reconstruct


def mode_product_oracle(X, U, mode):
    """Direct summation, independent of the vectorized kernel."""
    I, J, K = X.shape
    rows = U.shape[0]
    dims = [I, J, K]
    dims[mode - 1] = rows
    out = np.zeros(dims)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                acc = 0.0
                for s in range(X.shape[mode - 1]):
                    idx = [i, j, k]
                    idx[mode - 1] = s
                    acc += X[tuple(idx)] * U[[i, j, k][mode - 1], s]
                out[i, j, k] = acc
    return out


def tucker_entry_oracle(G, A, B, C, i, j, k):
    acc = 0.0
    for p in range(G.shape[0]):
        for q in range(G.shape[1]):
            for r in range(G.shape[2]):
                acc += G[p, q, r] * A[i, p] * B[j, q] * C[k, r]
    return acc


def rank_one(a, b, c):
    """The outer product a o b o c as a Tucker reconstruction with a unit core."""
    return tucker_reconstruct(np.ones((1, 1, 1)), *(np.asarray(v, dtype=float)[:, None]
                                                    for v in (a, b, c)))


class TestOuterProduct:
    """A unit core with one-column factors reconstructs the outer product."""

    def test_basis_vectors(self):
        out = rank_one([1, 0], [1], [1, 0])
        expected = np.zeros((2, 1, 2))
        expected[0, 0, 0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_scalar_product(self):
        np.testing.assert_array_equal(rank_one([2], [3], [4]), [[[24.0]]])

    def test_matches_loop_oracle(self):
        a, b, c = np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0, -1.0])
        out = rank_one(a, b, c)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert out[i, j, k] == a[i] * b[j] * c[k]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank_one([], [1.0], [1.0])


class TestModeNProduct:
    def test_worked_mode1_example(self):
        X = np.zeros((2, 2, 2))
        X[0, 0, 0], X[0, 1, 0], X[1, 0, 0], X[1, 1, 0] = 1, 2, 3, 4
        X[0, 0, 1], X[0, 1, 1], X[1, 0, 1], X[1, 1, 1] = 5, 6, 7, 8
        Y = mode_n_product(X, np.array([[1.0, 1.0]]), 1)
        assert Y.shape == (1, 2, 2)
        assert Y[0, 0, 0] == 4 and Y[0, 1, 0] == 6
        assert Y[0, 0, 1] == 12 and Y[0, 1, 1] == 14

    def test_identity_is_identity(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(3, 4, 2))
        for mode in (1, 2, 3):
            Y = mode_n_product(X, np.eye(X.shape[mode - 1]), mode)
            np.testing.assert_array_equal(Y, X)

    def test_zero_matrix_annihilates(self):
        X = np.random.default_rng(0).normal(size=(2, 3, 4))
        Y = mode_n_product(X, np.zeros((5, 3)), 2)
        assert Y.shape == (2, 5, 4)
        np.testing.assert_array_equal(Y, np.zeros((2, 5, 4)))

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            dims = tuple(rng.integers(1, 6, size=3))
            X = rng.normal(size=dims)
            mode = int(rng.integers(1, 4))
            U = rng.normal(size=(int(rng.integers(1, 6)), dims[mode - 1]))
            np.testing.assert_allclose(
                mode_n_product(X, U, mode), mode_product_oracle(X, U, mode), atol=1e-12
            )

    def test_shape_law(self):
        X = np.zeros((2, 3, 4))
        assert mode_n_product(X, np.zeros((7, 3)), 2).shape == (2, 7, 4)
        assert mode_n_product(X, np.zeros((7, 4)), 3).shape == (2, 3, 7)

    def test_commutes_across_distinct_modes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.normal(size=tuple(rng.integers(1, 6, size=3)))
            A = rng.normal(size=(int(rng.integers(1, 6)), X.shape[0]))
            B = rng.normal(size=(int(rng.integers(1, 6)), X.shape[1]))
            lhs = mode_n_product(mode_n_product(X, A, 1), B, 2)
            rhs = mode_n_product(mode_n_product(X, B, 2), A, 1)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mode_n_product(np.zeros((2, 2, 2)), np.zeros((1, 3)), 1)
        with pytest.raises(ValueError):
            mode_n_product(np.zeros((2, 2, 2)), np.zeros((1, 2)), 4)


class TestTuckerReconstruct:
    def test_identity_factors(self):
        G = np.random.default_rng(1).normal(size=(2, 3, 4))
        out = tucker_reconstruct(G, np.eye(2), np.eye(3), np.eye(4))
        np.testing.assert_array_equal(out, G)

    def test_scalar_case(self):
        out = tucker_reconstruct(np.ones((1, 1, 1)), [[2.0]], [[3.0]], [[4.0]])
        np.testing.assert_array_equal(out, [[[24.0]]])

    def test_matches_entry_oracle_everywhere(self):
        rng = np.random.default_rng(11)
        G = rng.normal(size=(3, 2, 3))
        A = rng.normal(size=(4, 3))
        B = rng.normal(size=(2, 2))
        C = rng.normal(size=(5, 3))
        out = tucker_reconstruct(G, A, B, C)
        assert out.shape == (4, 2, 5)
        for i in range(4):
            for j in range(2):
                for k in range(5):
                    assert abs(out[i, j, k] - tucker_entry_oracle(G, A, B, C, i, j, k)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tucker_reconstruct(np.zeros((2, 2, 2)), np.zeros((3, 2)), np.zeros((3, 1)), np.eye(2))


class TestTuckerEntry:
    """score_tucker(h, r, t) is entry (h, r, t) of the reconstruction G x1 E x2 R x3 E."""

    def test_identity_factors_pick_core(self):
        G = np.random.default_rng(5).normal(size=(2, 2, 2))
        params = ModelParams("tucker", np.eye(2), np.eye(2), G)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert score_tucker(params, i, j, k) == pytest.approx(G[i, j, k])

    def test_zero_core(self):
        params = ModelParams("tucker", np.eye(3), np.eye(3), np.zeros((3, 3, 3)))
        assert score_tucker(params, 1, 2, 0) == 0.0

    def test_cross_checks_reconstruct(self):
        rng = np.random.default_rng(23)
        params = ModelParams("tucker", rng.normal(size=(3, 2)), rng.normal(size=(4, 3)),
                             rng.normal(size=(2, 3, 2)))
        full = tucker_reconstruct(params.G, params.E, params.R, params.E)
        for i in range(3):
            for j in range(4):
                for k in range(3):
                    assert score_tucker(params, i, j, k) == pytest.approx(
                        full[i, j, k], abs=1e-12
                    )

    def test_index_out_of_range(self):
        params = ModelParams("tucker", np.eye(2), np.eye(2), np.zeros((2, 2, 2)))
        with pytest.raises(IndexError):
            score_tucker(params, 2, 0, 0)
