"""Eigendecomposition: oracles, invariants, and the Gram path."""

import math
import tracemalloc

import numpy as np
import pytest

from spikepca import (
    DataMatrix,
    DegenerateMatrix,
    DegenerateVariable,
    DimensionError,
    DomainError,
    Preprocessing,
    fit,
    gen_two_spike,
    jackknife_shrinkage,
    pc_scores,
    predict,
    sample_eigen,
    standardize,
)
import spikepca._workers
import spikepca.eigen
import spikepca.matrix_io
import spikepca.model
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


def standardized_eigen(X, mode, k):
    """fit's d and U the plain way: a standardized copy, one product and
    descending_eigh's k kept vectors, under the package's sign rule."""
    A = standardize(X, mode)[0].values
    p, n = A.shape
    M = A @ A.T / n if p <= n else A.T @ A / n
    d, V, _ = spikepca.eigen.descending_eigh(M, k)
    k = V.shape[1]
    if p <= n:
        U = np.array(V, order="C")
    else:
        U = A @ (V / np.sqrt(n * d[:k]))
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(k)] < 0
    U[:, flip] *= -1.0
    return d, U


class TestStreamedStandardization:
    """fit sums its product over standardized blocks of at most
    BLOCK_CELLS cells, so it holds no standardized copy of X."""

    SHAPES = {"gram": (90, 24), "covariance": (24, 90)}

    @pytest.fixture
    def many_blocks(self, monkeypatch):
        # 2**7 cells: row blocks of 5 of 90 rows, column blocks of 5 of 90
        monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 2**7)

    @staticmethod
    def matrix(shape):
        """Noise plus one factor loaded on every variable, a spike under
        each mode, with offsets and uneven scales for the modes to undo."""
        p, n = shape
        rng = np.random.default_rng(11)
        factor = np.linspace(0.5, 1.5, p)[:, None] * rng.standard_normal(n)
        values = rng.standard_normal((p, n)) + factor
        scales = np.linspace(0.5, 2.0, p)[:, None]
        return DataMatrix(values * scales + np.linspace(-3.0, 5.0, p)[:, None])

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_one_block_is_byte_identical(self, case, mode):
        X = self.matrix(self.SHAPES[case])
        assert X.values.size <= spikepca.matrix_io.BLOCK_CELLS
        model = fit(X, mode, k=3)
        d, U = standardized_eigen(X, mode, 3)
        np.testing.assert_array_equal(model.eig.d, d)
        np.testing.assert_array_equal(model.eig.U, U)

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_many_blocks_match_the_copy(self, case, mode, many_blocks):
        X = self.matrix(self.SHAPES[case])
        model = fit(X, mode, k=3)
        _, prep = standardize(X, mode)
        # the statistics are per-row reductions: the same bits at any size
        np.testing.assert_array_equal(model.prep.means, prep.means)
        np.testing.assert_array_equal(model.prep.scales, prep.scales)
        d, U = standardized_eigen(X, mode, 3)
        if mode == "none":
            # one block, the matrix itself, at every size
            np.testing.assert_array_equal(model.eig.d, d)
            np.testing.assert_array_equal(model.eig.U, U)
        else:
            np.testing.assert_allclose(model.eig.d, d, rtol=1e-12, atol=1e-12 * d[0])
            np.testing.assert_allclose(model.eig.U, U, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["none", "center"])
    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_one_block_jackknife_plugin_from_the_copy(self, case, mode):
        X = self.matrix(self.SHAPES[case])
        d, _ = standardized_eigen(X, mode, 1)
        spectrum = spikepca.model.rescale_eigenvalues(d, X.p, X.n)
        expected = spikepca.model.component_estimates(spectrum, 1)[0][0]
        assert jackknife_shrinkage(X, mode, 1).plugin == expected

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_many_blocks_jackknife_plugin_is_fit_shrinkage(
        self, case, mode, many_blocks
    ):
        X = self.matrix(self.SHAPES[case])
        plugin = jackknife_shrinkage(X, mode, 1).plugin
        assert plugin == fit(X, mode, k=1).shrinkage[0]

    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_many_blocks_degenerate_input(self, case, many_blocks):
        p, n = self.SHAPES[case]
        X = self.matrix((p, n)).values.copy()
        X[-1] = 4.0  # a constant row in the last row block
        with pytest.raises(DegenerateVariable) as info:
            fit(DataMatrix(X), "center_scale", k=1)
        assert info.value.row == p - 1
        with pytest.raises(DegenerateMatrix, match="all-zero"):
            fit(DataMatrix(np.full((p, n), 2.5)), "center", k=1)
        with pytest.raises(DegenerateMatrix, match="all-zero"):
            fit(DataMatrix(np.zeros((p, n))), "none", k=1)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_many_blocks_predict_keeps_its_bytes(
        self, case, mode, k, order, many_blocks
    ):
        # 11 columns leave a last single column, which joins the block
        # before it: a one-column einsum is a dot, summed in another order
        X = self.matrix(self.SHAPES[case])
        model = fit(X, mode, k=k)
        new = np.asarray(self.matrix((X.p, 11)).values, order=order)
        one_block = spikepca.eigen.project(model.eig.U, model.prep.apply(new))
        np.testing.assert_array_equal(predict(model, new).naive, one_block)

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("n", [90, 91])
    def test_scatter_coordinates_match_the_copy(self, n, mode, monkeypatch):
        X = self.matrix((24, n))
        prep = Preprocessing.from_data(X, mode)
        d, V, _ = spikepca.eigen._covariance_eigh(X.values, prep)
        copy = V.T @ prep.apply(X.values)
        W = spikepca.eigen._scatter_coordinates(X.values, d, V, prep)
        np.testing.assert_array_equal(W, copy)
        # column blocks of 5: OpenBLAS rounds a column of a narrow gemm
        # differently from the same column of a wide one (mode none is
        # one block at every size)
        monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 2**7)
        W = spikepca.eigen._scatter_coordinates(X.values, d, V, prep)
        np.testing.assert_allclose(W, copy, rtol=0, atol=1e-14 * np.abs(copy).max())

    def test_prep_for_another_p_rejected(self):
        X = self.matrix(self.SHAPES["gram"])
        prep = standardize(DataMatrix(X.values[:-1]), "center")[1]
        with pytest.raises(DimensionError, match="preprocessing is for p=89"):
            sample_eigen(X, 1, prep=prep)

    def test_multi_block_fit_holds_no_copy(self, monkeypatch):
        monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 2**16)
        rng = np.random.default_rng(3)
        X = DataMatrix(rng.standard_normal((100_000, 64)) + 1.0)
        tracemalloc.start()
        try:
            fit(X, "center", k=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.values.nbytes / 2

    def test_multi_block_jackknife_holds_no_copy(self, monkeypatch):
        monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 2**16)
        rng = np.random.default_rng(3)
        X = DataMatrix(
            rng.standard_normal((100_000, 64)) + 10.0 * rng.standard_normal(64)
        )
        tracemalloc.start()
        try:
            jackknife_shrinkage(X, "center", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.values.nbytes / 2

    def test_multi_block_predict_holds_no_copy(self, monkeypatch):
        monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 2**16)
        rng = np.random.default_rng(3)
        X = DataMatrix(rng.standard_normal((100_000, 64)) + 1.0)
        model = fit(X, "center", k=3)
        tracemalloc.start()
        try:
            predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.values.nbytes / 2


HAS_LAPACK = spikepca._workers.openblas(*spikepca.eigen._LAPACK) is not None


class TestDescendingEigh:
    """With a count, descending_eigh tridiagonalizes once (dsytrd), solves
    the tridiagonal problem (dstedc) and back-transforms only the kept
    vectors (dormtr): np.linalg.eigh's eigenvalues, bit for bit."""

    @staticmethod
    def matrix(n, kind):
        rng = np.random.default_rng(n)
        if kind == "ties":
            return np.eye(n)
        if kind == "rank_deficient":
            B = rng.standard_normal((n, max(n // 3, 1)))
        elif kind == "spread":
            B = rng.standard_normal((n, n + 2)) * np.logspace(0, 3, n)[:, None]
        else:
            B = rng.standard_normal((n, n + 2))
        return B @ B.T / B.shape[1]

    @staticmethod
    def eigh_reference(M):
        """np.linalg.eigh under the package's order and rank rules."""
        w, V = np.linalg.eigh(M)
        order = np.argsort(w, kind="stable")[::-1]
        d = w[order]
        d = np.where(d < spikepca.eigen.RANK_TOL * max(d[0], 0.0), 0.0, d)
        return d, V[:, order], int(np.count_nonzero(d > 0))

    @pytest.mark.parametrize("kind", ["random", "ties", "rank_deficient", "spread"])
    @pytest.mark.parametrize("n", [1, 2, 3, 25, 26, 64, 200, 300])
    def test_matches_eigh(self, n, kind):
        M = self.matrix(n, kind)
        count = n if kind == "rank_deficient" else 3
        d, V, rank = spikepca.eigen.descending_eigh(M, count)
        d_ref, V_ref, rank_ref = self.eigh_reference(M)
        assert d.tobytes() == d_ref.tobytes()
        assert rank == rank_ref
        k = min(count, rank)
        assert V.shape == (n, k)
        signs = np.sign(np.sum(V * V_ref[:, :k], axis=0))
        assert np.abs(V * signs - V_ref[:, :k]).max() <= 1e-13
        assert np.abs(V.T @ V - np.eye(k)).max() <= 1e-13

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_entries_that_dsyevd_scales_match_eigh(self, scale):
        # outside the range dsyevd leaves unscaled, eigh decomposes M whole
        M = self.matrix(26, "random") * scale
        d, V, rank = spikepca.eigen.descending_eigh(M, 2)
        d_ref, V_ref, _ = self.eigh_reference(M)
        assert d.tobytes() == d_ref.tobytes() and rank == 26
        signs = np.sign(np.sum(V * V_ref[:, :2], axis=0))
        assert np.abs(V * signs - V_ref[:, :2]).max() <= 1e-13

    @pytest.mark.skipif(not HAS_LAPACK, reason="numpy's OpenBLAS lacks the LAPACK symbols")
    def test_callable_count_runs_once_before_any_vector(self, monkeypatch):
        calls = []
        routines = spikepca.eigen._lapack_routines()

        def logged(routine):
            def call(*args):
                calls.append(routine.__name__)
                return routine(*args)

            call.__name__ = routine.__name__
            return call

        monkeypatch.setattr(
            spikepca.eigen, "_lapack_routines", lambda: tuple(map(logged, routines))
        )

        def count(d):
            calls.append("count")
            return 2

        d, V, _ = spikepca.eigen.descending_eigh(self.matrix(64, "random"), count)
        assert V.shape == (64, 2)
        assert calls.count("count") == 1
        first = calls.index("count")
        assert "scipy_dormtr_64_" not in calls[:first]
        assert set(calls[first + 1 :]) == {"scipy_dormtr_64_"}

    @pytest.mark.parametrize("kind", ["random", "spread"])
    @pytest.mark.parametrize("n", [26, 200])
    def test_without_the_library_eigh_gives_the_same_eigenvalues(
        self, n, kind, monkeypatch
    ):
        M = self.matrix(n, kind)
        d, V, rank = spikepca.eigen.descending_eigh(M, 3)
        monkeypatch.setattr(spikepca.eigen, "_lapack_routines", lambda: None)
        d_eigh, V_eigh, rank_eigh = spikepca.eigen.descending_eigh(M, 3)
        assert d.tobytes() == d_eigh.tobytes() and rank == rank_eigh
        assert V_eigh.shape == V.shape
        signs = np.sign(np.sum(V * V_eigh, axis=0))
        assert np.abs(V * signs - V_eigh).max() <= 1e-13


class TestOverflow:
    """A finite matrix whose covariance overflows a double is a numerical
    error, raised before any decomposition and with no warning."""

    @staticmethod
    def matrix():
        return DataMatrix(np.random.default_rng(0).standard_normal((6, 5)) * 1e200)

    @pytest.mark.parametrize("mode", ["none", "center"])
    def test_fit_and_jackknife_raise_domain_error(self, mode):
        with pytest.raises(DomainError, match="sample covariance overflows a double"):
            fit(self.matrix(), mode, k=1)
        with pytest.raises(DomainError, match="sample covariance overflows a double"):
            jackknife_shrinkage(self.matrix(), mode, 1)


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
