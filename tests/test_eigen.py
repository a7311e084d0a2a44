"""Eigendecomposition: oracles, invariants, and the Gram path."""

import math

import numpy as np
import pytest

from spikepca import (
    DataMatrix,
    DegenerateMatrix,
    DimensionError,
    fit,
    pc_scores,
    predict,
    sample_eigen,
)


def two_by_two_eigen(S):
    """Closed-form eigenvalues of a symmetric 2x2 matrix, descending."""
    a, b, c = S[0, 0], S[0, 1], S[1, 1]
    root = math.sqrt((a - c) ** 2 + 4 * b * b)
    return np.array([(a + c + root) / 2, (a + c - root) / 2])


def dense_covariance_eigen(X):
    """Reference decomposition straight from the p x p covariance."""
    S = X.values @ X.values.T / X.n
    w, V = np.linalg.eigh(S)
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


class TestSampleEigen:
    def test_two_by_two_against_closed_form(self):
        X = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        eig = sample_eigen(X, 2)
        S = X.values @ X.values.T / 2
        np.testing.assert_allclose(eig.d, two_by_two_eigen(S), atol=1e-14)

    def test_seeded_rectangular_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        X = DataMatrix(rng.uniform(size=(3, 4)))
        eig = sample_eigen(X, 3)
        d_ref, _ = dense_covariance_eigen(X)
        np.testing.assert_allclose(eig.d, d_ref, atol=1e-10)

    def test_rank_one_matrix(self):
        row = np.array([1.0, -2.0, 2.0, 0.5])
        X = DataMatrix(np.vstack([np.zeros(4), row, np.zeros(4)]))
        eig = sample_eigen(X, 1)
        assert eig.d[0] == pytest.approx(row @ row / 4, rel=1e-12)
        np.testing.assert_allclose(np.abs(eig.U[:, 0]), [0, 1, 0], atol=1e-12)
        assert eig.U[1, 0] > 0  # sign convention

    def test_gram_path_matches_dense_decomposition(self):
        rng = np.random.default_rng(17)
        X = DataMatrix(rng.standard_normal((50, 10)))
        eig = sample_eigen(X, 10)
        d_ref, V_ref = dense_covariance_eigen(X)
        np.testing.assert_allclose(eig.d, d_ref[:10], atol=1e-9)
        # eigenvectors agree up to sign
        overlap = np.abs(np.sum(eig.U * V_ref[:, :10], axis=0))
        np.testing.assert_allclose(overlap, np.ones(10), atol=1e-9)

    @pytest.mark.parametrize("p", [5, 50, 2000])
    @pytest.mark.parametrize("n", [10, 100])
    def test_orthonormality(self, p, n):
        rng = np.random.default_rng(p * 1000 + n)
        X = DataMatrix(rng.standard_normal((p, n)))
        k = min(p, n)
        eig = sample_eigen(X, k)
        gram = eig.U.T @ eig.U
        assert np.abs(gram - np.eye(eig.k)).max() < 1e-8

    @pytest.mark.parametrize("p,n", [(7, 12), (40, 9), (200, 100)])
    def test_trace_conservation(self, p, n):
        rng = np.random.default_rng(p + n)
        X = DataMatrix(rng.standard_normal((p, n)) * 2)
        eig = sample_eigen(X, 1)
        trace = np.sum(X.values**2) / n
        assert eig.d.sum() == pytest.approx(trace, rel=1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((30, 12))
        eig1 = sample_eigen(DataMatrix(A.copy()), 5)
        eig2 = sample_eigen(DataMatrix(A.copy()), 5)
        assert eig1.d.tobytes() == eig2.d.tobytes()
        assert eig1.U.tobytes() == eig2.U.tobytes()

    def test_sign_convention(self):
        rng = np.random.default_rng(21)
        X = DataMatrix(rng.standard_normal((15, 6)))
        eig = sample_eigen(X, 6)
        for v in range(eig.k):
            u = eig.U[:, v]
            assert u[np.argmax(np.abs(u))] > 0

    def test_k_out_of_range(self):
        X = DataMatrix(np.eye(3))
        with pytest.raises(DimensionError):
            sample_eigen(X, 0)
        with pytest.raises(DimensionError):
            sample_eigen(X, 4)

    def test_all_zero_matrix(self):
        with pytest.raises(DegenerateMatrix):
            sample_eigen(DataMatrix(np.zeros((4, 5))), 1)

    def test_rank_deficient_drops_null_vectors(self):
        row = np.array([3.0, 1.0, -1.0, 2.0, 0.0])
        X = DataMatrix(np.vstack([row, 2 * row, -row]))
        eig = sample_eigen(X, 3)
        assert eig.k == 1
        assert eig.d[1] == 0.0 and eig.d[2] == 0.0


class TestScores:
    def test_rank_one_scores(self):
        row = np.array([3.0, 4.0, 0.0, 0.0])
        X = DataMatrix(np.vstack([row, np.zeros(4)]))
        eig = sample_eigen(X, 1)
        scores = pc_scores(X, eig)
        np.testing.assert_allclose(
            scores[0], row * (np.linalg.norm([3.0, 4.0])) / 5, atol=1e-12
        )

    def test_squared_norm_identity(self):
        rng = np.random.default_rng(9)
        X = DataMatrix(rng.standard_normal((12, 20)))
        eig = sample_eigen(X, 5)
        scores = pc_scores(X, eig)
        norms = np.sum(scores**2, axis=1)
        np.testing.assert_allclose(norms, X.n * eig.d[:5], rtol=1e-8)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        X = DataMatrix(rng.standard_normal((6, 8)))
        eig = sample_eigen(X, 2)
        other = DataMatrix(rng.standard_normal((7, 8)))
        with pytest.raises(DimensionError):
            pc_scores(other, eig)


class TestProjectNew:
    """Naive scores of new samples: predict() under mode "none" is u_v^T x."""

    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(30)
        X = DataMatrix(rng.standard_normal((10, 15)))
        self.X = X
        model = fit(X, mode="none", k=3)
        np.testing.assert_array_equal(model.eig.U, sample_eigen(X, 3).U)
        return model

    def test_eigenvector_projects_to_basis(self, model):
        q = predict(model, model.eig.U[:, 0]).naive[:, 0]
        np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-10)

    def test_training_column_matches_score_matrix(self, model):
        scores = pc_scores(self.X, model.eig)
        q = predict(model, self.X.values[:, 4]).naive[:, 0]
        np.testing.assert_allclose(q, scores[:, 4], atol=1e-12)

    def test_zero_vector(self, model):
        np.testing.assert_array_equal(predict(model, np.zeros(10)).naive, np.zeros((3, 1)))

    def test_length_mismatch(self, model):
        with pytest.raises(DimensionError):
            predict(model, np.zeros(9))
