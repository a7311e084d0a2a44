"""Eigendecomposition: oracles, invariants, and the Gram path."""

import math

import numpy as np
import pytest

from spikepca import (
    DataMatrix,
    DegenerateMatrix,
    DimensionError,
    fit,
    gen_two_spike,
    pc_scores,
    predict,
    sample_eigen,
    standardize,
)
import spikepca.eigen
from spikepca.eigen import downdate_leading


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


class TestBoundaryShapes:
    """p at n - 1, n and n + 1, where fit switches from the covariance to
    the Gram path and the centered matrix loses a rank, and n < p < 2n."""

    @pytest.mark.parametrize("n", [40, 101])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "half"])
    def test_matches_svd_and_rescaling_converges(self, n, extra):
        p = n + (n // 2 if extra == "half" else extra)
        X = gen_two_spike(n, p / n, seed=p)
        assert X.p == p
        Xs, _ = standardize(X, "center")
        eig = sample_eigen(Xs, min(p, n))
        assert eig.k == min(p, n - 1)
        U_ref, s, _ = np.linalg.svd(Xs.values, full_matrices=False)
        d_ref = s**2 / n
        assert np.abs(eig.d - d_ref).max() <= 1e-12 * d_ref[0]
        signs = np.sign(np.sum(eig.U * U_ref[:, : eig.k], axis=0))
        assert np.abs(eig.U * signs - U_ref[:, : eig.k]).max() <= 1e-10
        model = fit(X, mode="center")
        assert model.spectrum.converged
        np.testing.assert_array_equal(model.eig.d, eig.d)


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


def eigh_downdate(lam, w, rho, k, v):
    """Dense reference: the k largest eigenvalues of diag(lam) - rho w w'
    and |rho q'w| for the eigenvector q of the (v+1)-th."""
    d, Q = np.linalg.eigh(np.diag(lam) - rho * np.outer(w, w))
    order = np.argsort(d, kind="stable")[::-1]
    return d[order][:k], abs(rho * Q[:, order[v]] @ w)


def downdate_case(name):
    """(lam, W, rho) for one synthetic family of replicates."""
    rng = np.random.default_rng(sorted(DOWNDATE_CASES).index(name))
    lam = np.sort(rng.uniform(0.5, 10.0, 30))[::-1]
    lam[0] = 60.0
    W = rng.standard_normal((12, lam.size)) * np.sqrt(lam)
    rho = 1.25
    if name == "zero_weights":
        W[:, [1, 4, 9]] = 0.0
        W[0] = 0.0  # a sample with no weight at all leaves lam in place
    elif name == "tied":
        lam[2:6] = lam[2]
        lam[-4:] = lam[-4]
    elif name == "trailing_zero":
        # the centered Gram path: one null direction, where w is 0 too
        lam[-1] = 0.0
        W[:, -1] = 0.0
    elif name == "dominant":
        W *= 1e-3
        W[:, 1] = 4.0
        rho = 1.0
    elif name == "n4":
        lam = np.array([9.0, 4.0, 1.5, 0.25])
        W = rng.standard_normal((12, 4)) * np.sqrt(lam)
        rho = 4 / 3
    return lam, W, rho


DOWNDATE_CASES = ("zero_weights", "tied", "trailing_zero", "dominant", "n4")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDowndateLeading:
    """The secular solve of diag(lam) - rho w w' against dense eigh."""

    @pytest.mark.parametrize("case", DOWNDATE_CASES)
    def test_matches_eigh(self, case):
        lam, W, rho = downdate_case(case)
        k = min(6, lam.size)
        for v in range(k):
            mu, score = downdate_leading(lam, W, rho, k, v)
            for w, got_mu, got_score in zip(W, mu, score):
                want_mu, want_score = eigh_downdate(lam, w, rho, k, v)
                assert np.max(np.abs(got_mu - want_mu)) <= 1e-13 * lam[0]
                # eigh's score is accurate to ~1e-16 rho |w| in absolute
                # terms, so relative agreement is checked down to 1e-3 rho |w|
                scale = max(want_score, 1e-3 * rho * np.linalg.norm(w))
                assert abs(got_score - want_score) <= 1e-12 * scale

    def test_scores_sum_to_the_weight_on_clustered_poles(self):
        # poles 1e-9 apart put eigh's eigenvectors off by ~1e-6, but the
        # squared scores of all n eigenvectors still sum to rho^2 |w|^2
        lam = np.r_[10.0, 1.0 + 1e-9 * np.arange(20)[::-1], 0.1]
        W = np.random.default_rng(7).standard_normal((4, lam.size))
        scores = np.array(
            [downdate_leading(lam, W, 1.0, lam.size, v)[1] for v in range(lam.size)]
        )
        np.testing.assert_allclose(
            (scores**2).sum(axis=0), (W**2).sum(axis=1), rtol=1e-13
        )

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        lam, W, rho = downdate_case("tied")
        whole = downdate_leading(lam, W, rho, 5, 1)
        monkeypatch.setattr(spikepca.eigen, "SECULAR_BLOCK", 1)
        for got, want in zip(downdate_leading(lam, W, rho, 5, 1), whole):
            np.testing.assert_array_equal(got, want)
