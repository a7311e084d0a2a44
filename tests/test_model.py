"""Fit/predict pipeline, jackknife, and PC regression."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikepca import (
    DataMatrix,
    FittedPcModel,
    Preprocessing,
    SampleEigen,
    DegenerateMatrix,
    DegenerateRegressor,
    DegenerateVariable,
    DimensionError,
    DomainError,
    NotIdentifiable,
    debias_eigenvalue,
    detection_threshold,
    fit,
    jackknife_shrinkage,
    pc_scores,
    pcr_fit,
    pcr_mse,
    pcr_predict,
    predict,
    read_model,
    rescale_eigenvalues,
    sample_eigenvalue_limit,
    shrinkage_factor,
    standardize,
    write_matrix,
    write_model,
)
from spikepca import cli
import spikepca._workers
import spikepca.eigen
import spikepca.matrix_io
import spikepca.model
from spikepca.model import component_estimates
from spikepca.simulate import (
    gen_two_spike,
    run_table3,
    run_table12,
    standard_normal,
    substream,
)

needs_lapack = pytest.mark.skipif(
    spikepca._workers.openblas(*spikepca.eigen._LAPACK) is None,
    reason="numpy's OpenBLAS lacks the LAPACK symbols",
)


@pytest.fixture(scope="module")
def two_spike_model():
    X = gen_two_spike(200, 1.0, seed=7)
    return X, fit(X, mode="none", k="auto")


class TestFit:
    def test_two_spike_design(self, two_spike_model):
        _, model = two_spike_model
        assert model.k_spikes == 2
        assert model.k == 2
        assert abs(model.shrinkage[0] - 0.88) < 0.05
        assert model.spectrum.converged

    def test_pure_noise_detects_no_spikes_most_of_the_time(self):
        # the top rescaled eigenvalue hovers at the detection edge, so a
        # boundary crossing happens in a low-double-digit share of draws
        hits = 0
        reps = 100
        for rep in range(reps):
            rng = substream(123, 4, rep)
            X = DataMatrix(standard_normal(rng, (200, 100)))
            model = fit(X, mode="none", k=1)
            hits += int(model.k_spikes == 0)
        assert hits >= 0.85 * reps

    def test_single_variable_chain(self):
        # p=1: the lone trace share is 1, so the rescaled eigenvalue is
        # exactly p=1, below the noise edge: classified as noise
        rng = np.random.default_rng(0)
        X = DataMatrix(3.0 * rng.standard_normal((1, 10)))
        model = fit(X, mode="none", k=1)
        assert model.spectrum.d_hat[0] == pytest.approx(1.0)
        assert model.spectrum.lambda_hat[0] == 1.0
        assert model.k_spikes == 0
        assert not model.identifiable[0]
        assert math.isnan(model.shrinkage[0])

    def test_auto_k_retains_at_least_one(self):
        rng = substream(9, 4, 0)
        X = DataMatrix(standard_normal(rng, (50, 30)))
        model = fit(X, mode="none", k="auto")
        assert model.k == max(model.k_spikes, 1)

    def test_estimates_recomputable_from_spectrum(self, two_spike_model):
        _, model = two_spike_model
        shrink, corr, angle, ident = component_estimates(model.spectrum, model.k)
        np.testing.assert_array_equal(shrink, model.shrinkage)
        np.testing.assert_array_equal(
            np.where(ident, 1.0 / shrink, np.nan), model.adjustment
        )
        np.testing.assert_array_equal(corr, model.score_corr)
        np.testing.assert_array_equal(angle, model.evec_angle)
        np.testing.assert_array_equal(ident, model.identifiable)

    def test_model_derives_its_estimates_from_the_spectrum(self, two_spike_model):
        # the four estimate arrays are derived fields, never passed in
        _, model = two_spike_model
        rebuilt = FittedPcModel(
            prep=model.prep, eig=model.eig, spectrum=model.spectrum,
            n_samples=model.n,
        )
        derived = component_estimates(model.spectrum, model.k)
        for name, expected in zip(
            ("shrinkage", "score_corr", "evec_angle", "identifiable"), derived
        ):
            np.testing.assert_array_equal(getattr(rebuilt, name), expected)
            assert getattr(rebuilt, name).dtype == expected.dtype
        with pytest.raises(TypeError):
            FittedPcModel(
                prep=model.prep, eig=model.eig, spectrum=model.spectrum,
                n_samples=model.n, shrinkage=model.shrinkage,
            )

    def test_plugin_chain_consistency(self, two_spike_model):
        _, model = two_spike_model
        gamma = model.gamma
        for v in range(model.k_spikes):
            lam = debias_eigenvalue(model.spectrum.d_hat[v], gamma)
            assert model.spectrum.lambda_hat[v] == pytest.approx(lam, rel=1e-12)
            assert model.shrinkage[v] == pytest.approx(
                shrinkage_factor(lam, gamma), rel=1e-12
            )
            assert model.shrinkage[v] * model.adjustment[v] == pytest.approx(1.0)

    def test_too_few_samples(self):
        with pytest.raises(DimensionError):
            fit(DataMatrix(np.eye(2)), mode="none", k=1)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(2)
        X = DataMatrix(rng.standard_normal((4, 6)))
        with pytest.raises(DimensionError):
            fit(X, mode="none", k=9)


class TestSpikeRule:
    def test_spike_at_the_edge_is_flagged_and_persists(self, tmp_path):
        # a d whose rescaling leaves d_hat_2 one ulp above the noise edge,
        # where it debiases to exactly the detection threshold: still one
        # of the spectrum's k spikes, and a model file the reader derives
        p, n = 8, 50
        gamma = p / n
        d = np.array([6.0, 1.209559715435315] + [0.5] * 6)
        spectrum = rescale_eigenvalues(d, p, n)
        edge = spectrum.d_hat[1]
        assert edge == np.nextafter((1 + math.sqrt(gamma)) ** 2, np.inf)
        assert debias_eigenvalue(edge, gamma) == detection_threshold(gamma)
        assert spectrum.lambda_hat[1] == detection_threshold(gamma)
        assert spectrum.k == 2
        shrink, corr, angle, ident = component_estimates(spectrum, 3)
        np.testing.assert_array_equal(ident, [True, True, False])
        assert shrink[1] == pytest.approx(1 / (1 + math.sqrt(gamma)), rel=1e-15)
        assert np.isfinite(shrink[:2]).all() and np.isnan(shrink[2])
        model = FittedPcModel(
            prep=Preprocessing("none", np.zeros(p), np.ones(p)),
            eig=SampleEigen(d=d, U=np.eye(p)[:, :3], gamma=gamma),
            spectrum=spectrum,
            n_samples=n,
        )
        path = tmp_path / "model.spca"
        write_model(model, path)
        loaded = read_model(path)
        np.testing.assert_array_equal(loaded.identifiable, ident)
        np.testing.assert_array_equal(loaded.shrinkage, shrink)
        np.testing.assert_array_equal(loaded.adjustment, model.adjustment)


class TestPredict:
    def test_training_round_trip_matches_sample_scores(self, two_spike_model):
        X, model = two_spike_model
        scores = pc_scores(X, model.eig)  # mode "none": standardized == raw
        pred = predict(model, X)
        np.testing.assert_allclose(pred.naive, scores, atol=1e-10)

    def test_round_trip_with_standardization(self):
        rng = np.random.default_rng(5)
        X = DataMatrix(rng.standard_normal((30, 25)) * 3 + 1)
        model = fit(X, mode="center_scale", k=3)
        from spikepca import standardize

        Xs, _ = standardize(X, "center_scale")
        scores = pc_scores(Xs, model.eig)
        pred = predict(model, X)
        np.testing.assert_allclose(pred.naive, scores, atol=1e-10)

    def test_zero_column_gives_zero_scores(self, two_spike_model):
        _, model = two_spike_model
        pred = predict(model, np.zeros((model.p, 1)))
        np.testing.assert_array_equal(pred.naive, 0.0)
        np.testing.assert_array_equal(pred.adjusted, 0.0)

    def test_adjustment_consistency(self, two_spike_model):
        X, model = two_spike_model
        rng = substream(40, 1, 0)
        new = 2.0 * standard_normal(rng, (model.p, 5))
        pred = predict(model, new)
        gamma = model.gamma
        for v in range(model.k):
            if not pred.identifiable[v]:
                np.testing.assert_array_equal(pred.adjusted[v], pred.naive[v])
                continue
            lam = debias_eigenvalue(model.spectrum.d_hat[v], gamma)
            factor = (lam + gamma - 1) / (lam - 1)
            np.testing.assert_allclose(
                pred.adjusted[v], pred.naive[v] * factor, rtol=1e-12
            )

    def test_dimension_mismatch(self, two_spike_model):
        _, model = two_spike_model
        with pytest.raises(DimensionError):
            predict(model, np.zeros((model.p + 1, 2)))

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    def test_no_samples_give_no_scores(self, two_spike_model, mode):
        X, _ = two_spike_model
        model = fit(X, mode, k=2)
        pred = predict(model, np.empty((model.p, 0)))
        assert pred.naive.shape == pred.adjusted.shape == (2, 0)

    def test_non_finite_new_samples_rejected(self, two_spike_model):
        _, model = two_spike_model
        new = np.zeros((model.p, 2))
        new[3, 1] = np.nan
        with pytest.raises(DomainError, match="new samples contain non-finite values"):
            predict(model, new)

    def test_non_finite_in_last_block_rejected(self, two_spike_model, monkeypatch):
        _, model = two_spike_model
        monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 8)
        new = np.zeros((model.p, 4))
        new[-1, -1] = np.inf
        with pytest.raises(DomainError, match="new samples contain non-finite values"):
            predict(model, new)

    def test_shrinkage_direction(self, two_spike_model):
        # out-of-sample squared scores are smaller than in-sample ones
        X, model = two_spike_model
        test = gen_two_spike(200, 1.0, seed=8)
        train_scores = predict(model, X).naive
        test_scores = predict(model, test).naive
        for v in range(2):
            assert np.mean(test_scores[v] ** 2) < np.mean(train_scores[v] ** 2)


class TestScaleEquivariance:
    def test_fit_of_scaled_matrix(self):
        X = gen_two_spike(100, 1.0, seed=13)
        c = 4.0
        base = fit(X, mode="none", k=2)
        scaled = fit(DataMatrix(c * X.values), mode="none", k=2)
        assert scaled.k_spikes == base.k_spikes
        np.testing.assert_allclose(scaled.eig.U, base.eig.U, atol=1e-8)
        np.testing.assert_allclose(
            scaled.spectrum.lambda_hat, base.spectrum.lambda_hat, rtol=1e-8
        )
        np.testing.assert_allclose(scaled.shrinkage, base.shrinkage, rtol=1e-8)
        pred_base = predict(base, X)
        pred_scaled = predict(scaled, DataMatrix(c * X.values))
        np.testing.assert_allclose(
            pred_scaled.naive, c * pred_base.naive, rtol=1e-8
        )
        np.testing.assert_allclose(
            pred_scaled.adjusted, c * pred_base.adjusted, rtol=1e-8
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestJackknife:
    def test_agrees_with_plugin_on_two_spike(self):
        X = gen_two_spike(100, 1.0, seed=3)
        model = fit(X, mode="none", k=1)
        estimate = jackknife_shrinkage(X, "none", 1)
        assert estimate.excluded == 0
        assert estimate.used == 100
        assert abs(estimate.value - model.shrinkage[0]) <= 0.08

    def test_minimal_input_runs(self):
        # n=4 is the smallest legal input; the spike row must dominate the
        # trace for the rescaled top eigenvalue to clear the noise edge
        rng = np.random.default_rng(4)
        X = DataMatrix(np.vstack([20.0 * rng.standard_normal(4),
                                  0.5 * rng.standard_normal((11, 4))]))
        estimate = jackknife_shrinkage(X, "none", 1)
        assert math.isfinite(estimate.value)
        assert estimate.used + estimate.excluded == 4

    def test_too_few_samples(self):
        X = DataMatrix(np.ones((2, 3)) + np.eye(2, 3))
        with pytest.raises(DimensionError):
            jackknife_shrinkage(X, "none", 1)

    def test_non_spike_component_rejected(self):
        rng = substream(11, 4, 0)
        X = DataMatrix(standard_normal(rng, (40, 20)))
        model = fit(X, mode="none", k="auto")
        bad = model.k_spikes + min(40, 20)  # definitely beyond the spikes
        with pytest.raises((NotIdentifiable, DimensionError)):
            jackknife_shrinkage(X, "none", bad)


def refit_jackknife(X, mode, component):
    """The leave-one-out jackknife as n + 1 full refits: (value, used, excluded).

    The mean square in-sample score is taken from the projection of the
    standardized matrix, not from the eigenvalue d_v that the jackknife
    uses, so the jackknife's denominator is checked too."""
    full = fit(X, mode, k=component)
    Xs, _ = standardize(X, mode)
    mean_sq_sample = float(np.mean(pc_scores(Xs, full.eig)[component - 1] ** 2))
    predicted_sq = []
    for j in range(X.n):
        refit = fit(DataMatrix(np.delete(X.values, j, axis=1)), mode, k=component)
        if refit.k_spikes < component or refit.k < component:
            continue
        z = predict(refit, X.values[:, j]).naive[component - 1, 0]
        predicted_sq.append(float(z) ** 2)
    used = len(predicted_sq)
    value = math.sqrt(math.fsum(predicted_sq) / used / mean_sq_sample) if used else None
    return value, used, X.n - used


def factor_matrix():
    """A 30 x 20 matrix whose one common factor stays a spike under center_scale."""
    rng = np.random.default_rng(3)
    factor = np.outer(np.ones(30), 2.0 * rng.standard_normal(20))
    return DataMatrix(rng.standard_normal((30, 20)) + factor)


def spiked_matrix(seed, p, n, spike, outlier=1.0, spikes=1):
    """Row v < spikes scaled by spike / (v + 1), column 5 by outlier."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((p, n)) + rng.uniform(-1.0, 1.0, size=(p, 1))
    X[:spikes] *= spike / np.arange(1, spikes + 1)[:, None]
    X[:, 5] *= outlier
    return DataMatrix(X)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestJackknifeDowndate:
    """The downdate path of modes none and center against n + 1 refits."""

    CASES = {
        "gram": spiked_matrix(1, 300, 40, 6.0),
        "covariance": spiked_matrix(2, 40, 120, 4.0),
        "minimal": DataMatrix(np.vstack([
            20.0 * np.random.default_rng(4).standard_normal(4),
            0.5 * np.random.default_rng(5).standard_normal((11, 4)),
        ])),
        "gram_excluded": spiked_matrix(0, 60, 30, 1.6),
        "covariance_excluded": spiked_matrix(1, 20, 60, 1.6),
        # one sample holding nearly all of the scatter is refit, since its
        # downdate would subtract nearly equal terms
        "gram_outlier": spiked_matrix(1, 300, 40, 6.0, outlier=1e4),
        "covariance_outlier": spiked_matrix(2, 40, 120, 4.0, outlier=1e4),
        # under center the outlier's refit replicate is excluded
        "covariance_outlier_excluded": spiked_matrix(1, 20, 60, 1.6, outlier=1e4),
        # p = n - 1 is the last shape that downdates A A' rather than A'A
        "p_is_n_minus_2": spiked_matrix(3, 28, 30, 5.0),
        "p_is_n_minus_1": spiked_matrix(3, 29, 30, 5.0),
        "p_is_n": spiked_matrix(3, 30, 30, 5.0),
        # more spikes than the secular solve's first K leading eigenvalues
        "many_spikes": spiked_matrix(4, 80, 40, 40.0, spikes=9),
    }

    @pytest.mark.parametrize("block_cells", ["one_block", "many_blocks"])
    @pytest.mark.parametrize("mode", ["none", "center"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_refits(self, case, mode, block_cells, monkeypatch):
        if block_cells == "many_blocks":
            monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 2**7)
        X = self.CASES[case]
        value, used, excluded = refit_jackknife(X, mode, 1)
        estimate = jackknife_shrinkage(X, mode, 1)
        assert (estimate.used, estimate.excluded) == (used, excluded)
        assert abs(estimate.value - value) <= 1e-10 * value
        assert estimate.plugin == fit(X, mode, k=1).shrinkage[0]

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_in_sample_mean_square_is_the_eigenvalue(self, case, mode):
        # the projection the jackknife does not make: the in-sample scores
        # of the unit eigenvector u of Z Z' / n have mean square d_1
        X = self.CASES[case]
        prep = Preprocessing.from_data(X, mode)
        d, V, _ = spikepca.eigen._covariance_eigh(X.values, prep)
        U = spikepca.eigen._eigenvectors(X.values, d, V[:, :1], prep)
        mean_sq = np.mean(spikepca.eigen.project(U, X.values, prep)[-1] ** 2)
        assert abs(mean_sq - d[0]) <= 1e-13 * d[0]

    @pytest.mark.parametrize("mode", ["none", "center"])
    @pytest.mark.parametrize(
        "case", ["gram", "covariance", "gram_outlier", "covariance_outlier"]
    )
    def test_projects_and_builds_vectors_only_in_refits(self, case, mode, monkeypatch):
        # outside its refit replicates the jackknife neither builds an
        # eigenvector nor projects X
        calls, refitting = [], [False]
        refit_one = spikepca.model._refit_one

        def refit(*args):
            refitting[0] = True
            try:
                return refit_one(*args)
            finally:
                refitting[0] = False

        def watch(module, name):
            original = getattr(module, name)

            def watched(*args, **kwargs):
                calls.append((name, refitting[0]))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, watched)

        monkeypatch.setattr(spikepca.model, "_refit_one", refit)
        watch(spikepca.model, "project")
        watch(spikepca.eigen, "_eigenvectors")
        jackknife_shrinkage(self.CASES[case], mode, 1)
        assert all(inside for _, inside in calls)
        assert ("project", True) in calls if "outlier" in case else not calls

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """Shapes of every numpy.linalg.eigh call, wherever it is made."""
        calls = []
        original = np.linalg.eigh

        def counting(M, *args, **kwargs):
            calls.append(M.shape)
            return original(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    @pytest.fixture
    def tridiagonalizations(self, monkeypatch):
        """Shapes of every matrix eigen tridiagonalizes (dsytrd)."""
        calls = []
        original = spikepca.eigen._tridiagonal_eigh

        def counting(M, routines):
            calls.append(M.shape)
            return original(M, routines)

        monkeypatch.setattr(spikepca.eigen, "_tridiagonal_eigh", counting)
        return calls

    @needs_lapack
    @pytest.mark.parametrize("case", ["gram", "covariance", "p_is_n_minus_1", "p_is_n"])
    def test_one_eigendecomposition_per_jackknife(self, case, tridiagonalizations):
        # the full-data decomposition is also the downdate basis
        X = self.CASES[case]
        m = min(X.p, X.n)
        for mode in ("none", "center"):
            tridiagonalizations.clear()
            estimate = jackknife_shrinkage(X, mode, 1)
            assert estimate.used + estimate.excluded == X.n
            assert tridiagonalizations == [(m, m)]

    @needs_lapack
    @pytest.mark.parametrize("case", ["gram", "covariance"])
    def test_fit_makes_no_full_eigendecomposition(self, case, eigh_calls):
        # fit back-transforms only the vectors it keeps, through LAPACK
        for mode in ("none", "center", "center_scale"):
            fit(self.CASES[case], mode, k="auto")
        assert eigh_calls == []

    @needs_lapack
    def test_jackknife_and_studies_make_no_eigh_call(self, eigh_calls):
        # the jackknife's whole basis and its outlier refit, and the
        # table12 and table3 replicates, all decompose through LAPACK
        for case in ("gram", "covariance"):
            for mode in ("none", "center"):
                jackknife_shrinkage(self.CASES[case], mode, 1)
        jackknife_shrinkage(self.CASES["gram_outlier"], "center", 1)
        run_table12(gammas=(1.0, 20.0), ns=(20,), replicates=2, seed=5)
        run_table3(cells=((20, 5),), replicates=2, seed=5, p=60)
        assert eigh_calls == []

    @pytest.mark.parametrize(
        "case, mode",
        [(case, mode) for case in ("gram", "covariance")
         for mode in ("none", "center")] + [("factor", "center_scale")],
    )
    def test_refit_score_is_predicts(self, case, mode):
        X = factor_matrix() if case == "factor" else self.CASES[case]
        scored = 0
        for j in range(X.n):
            refit = fit(DataMatrix(np.delete(X.values, j, axis=1)), mode, k=1)
            held_out = spikepca.model._refit_one(X, mode, 1, j)
            if refit.k_spikes < 1:
                assert math.isnan(held_out)
                continue
            score = predict(refit, X.values[:, j]).naive[0, 0]
            assert np.float64(held_out).tobytes() == score.tobytes()
            scored += 1
        assert scored > X.n // 2

    def test_leading_count_grows_past_the_spikes(self, monkeypatch):
        ks = []
        original = spikepca.model.downdate_leading

        def recording(lam, W, rho, k, v):
            ks.append(k)
            return original(lam, W, rho, k, v)

        monkeypatch.setattr(spikepca.model, "downdate_leading", recording)
        X = self.CASES["many_spikes"]
        estimate = jackknife_shrinkage(X, "center", 1)
        assert fit(X, "center", k=1).k_spikes > 4
        assert ks[:2] == [4, 8]
        value = refit_jackknife(X, "center", 1)[0]
        assert abs(estimate.value - value) <= 1e-10 * value

    def test_cases_exercise_exclusions(self):
        assert refit_jackknife(self.CASES["gram_excluded"], "center", 1)[2] > 0
        assert refit_jackknife(self.CASES["covariance_excluded"], "center", 1)[2] > 0

    @pytest.mark.parametrize("mode", ["none", "center"])
    @pytest.mark.parametrize("n", [5, 7])
    def test_all_zero_replicate_raises_like_refits(self, mode, n):
        # every sample but the last is zero, so leaving the last one out
        # leaves nothing to decompose; at n=7 the centered downdate rounds
        # to a nonzero matrix instead of an exact zero
        values = np.zeros((12, n))
        values[:, -1] = np.arange(1.0, 13.0)
        X = DataMatrix(values)
        assert fit(X, mode, k=1).k_spikes >= 1
        with pytest.raises(DegenerateMatrix):
            refit_jackknife(X, mode, 1)
        with pytest.raises(DegenerateMatrix):
            jackknife_shrinkage(X, mode, 1)

    def test_center_scale_still_refits(self):
        X = factor_matrix()
        value, used, excluded = refit_jackknife(X, "center_scale", 1)
        estimate = jackknife_shrinkage(X, "center_scale", 1)
        assert (estimate.used, estimate.excluded) == (used, excluded)
        # the refits are the oracle's own; only the denominator, d_v
        # against the projection's mean square, differs in its last bits
        assert abs(estimate.value - value) <= 1e-14 * value
        assert estimate.plugin == fit(X, "center_scale", k=1).shrinkage[0]

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize(
        "values, component, error, message",
        [
            # the component is checked against min(p, n) before anything
            # is decomposed
            (np.random.default_rng(6).standard_normal((12, 8)), 9,
             DimensionError, "k must be in [1, 8], got 9"),
            (np.random.default_rng(6).standard_normal((8, 12)), 9,
             DimensionError, "k must be in [1, 8], got 9"),
            # as in fit(), k=0 fails the same range check
            (np.random.default_rng(6).standard_normal((8, 12)), 0,
             DimensionError, "k must be in [1, 8], got 0"),
            (np.random.default_rng(5).standard_normal((30, 20)), 2,
             NotIdentifiable,
             "component 2 is not a spike in the full-data fit (k_spikes=0)"),
        ],
    )
    def test_component_errors_keep_their_messages(
        self, mode, values, component, error, message
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            jackknife_shrinkage(DataMatrix(values), mode, component)

    @pytest.mark.parametrize(
        "mode, error, message",
        [
            ("none", DegenerateMatrix, "cannot decompose an all-zero matrix"),
            ("center", DegenerateMatrix, "cannot decompose an all-zero matrix"),
            ("center_scale", DegenerateVariable,
             "variable 0 has zero variance; cannot center_scale"),
        ],
    )
    def test_all_zero_matrix_raises_like_fit(self, mode, error, message):
        X = DataMatrix(np.zeros((6, 5)) if mode == "none" else np.ones((6, 5)))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            fit(X, mode, k=1)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            jackknife_shrinkage(X, mode, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtremeScales:
    """center_scale statistics of rows whose squares overflow or
    underflow a double: each fit matches that of a copy rescaled by an
    exact power of two into the normal range."""

    CASES = {"huge": (1e200, 2.0**-664), "tiny": (1e-200, 2.0**664)}

    @staticmethod
    def matrix(scale):
        rng = np.random.default_rng(3)
        factor = np.outer(np.ones(30), 2.0 * rng.standard_normal(20))
        return (rng.standard_normal((30, 20)) + factor) * scale

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_matches_the_rescaled_copy(self, case):
        scale, back = self.CASES[case]
        values = self.matrix(scale)
        model = fit(DataMatrix(values), "center_scale", k=1)
        reference = fit(DataMatrix(values * back), "center_scale", k=1)
        np.testing.assert_allclose(model.prep.scales * back, reference.prep.scales,
                                   rtol=1e-12)
        np.testing.assert_allclose(model.eig.d, reference.eig.d, rtol=1e-12)
        np.testing.assert_allclose(model.eig.U, reference.eig.U, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.shrinkage, reference.shrinkage, rtol=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_jackknife_matches_the_rescaled_copy(self, case):
        scale, back = self.CASES[case]
        values = self.matrix(scale)
        estimate = jackknife_shrinkage(DataMatrix(values), "center_scale", 1)
        reference = jackknife_shrinkage(DataMatrix(values * back), "center_scale", 1)
        assert (estimate.used, estimate.excluded) == (reference.used, reference.excluded)
        assert estimate.value == pytest.approx(reference.value, rel=1e-12)
        assert estimate.plugin == pytest.approx(reference.plugin, rel=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constant_row_still_degenerate(self, case):
        scale, back = self.CASES[case]
        values = self.matrix(scale)
        values[4] = 1 / back  # a power of two, so its mean is exact
        with pytest.raises(DegenerateVariable) as info:
            fit(DataMatrix(values), "center_scale", k=1)
        assert info.value.row == 4


class TestConstantRows:
    """center_scale flags a row whose entries are all equal, whether or
    not its computed mean rounds back to them."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 1000),
           value=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
           row=st.integers(0, 3))
    def test_fit_raises_degenerate_variable(self, n, value, row):
        values = np.random.default_rng(n).standard_normal((4, n))
        values[row] = value
        with pytest.raises(DegenerateVariable) as info:
            fit(DataMatrix(values), "center_scale", k=1)
        assert info.value.row == row

    def test_tiny_real_variance_still_fits(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((5, 40))
        values[2] = 1 + 1e-12 * rng.standard_normal(40)
        model = fit(DataMatrix(values), "center_scale", k=1)
        centered = values[2] - values[2].mean()
        assert model.prep.scales[2] == pytest.approx(
            np.sqrt(np.mean(centered**2)), rel=1e-12
        )
        assert 0 < model.prep.scales[2] < 1e-11

    def test_jackknife_raises_for_a_row_constant_in_one_replicate(
        self, tmp_path, capsys
    ):
        # the full data fit, but leaving out sample 7 (8 counted from 1)
        # leaves row 4 constant
        values = factor_matrix().values.copy()
        values[4] = 0.1
        values[4, 7] = 0.3
        fit(DataMatrix(values), "center_scale", k=1)
        with pytest.raises(DegenerateVariable) as info:
            jackknife_shrinkage(DataMatrix(values), "center_scale", 1)
        assert info.value.row == 4
        assert "when sample 8 is left out" in str(info.value)
        path = tmp_path / "x.csv"
        write_matrix(DataMatrix(values), path)
        code = cli.main(["jackknife", str(path), "--pc", "1", "--mode", "center-scale"])
        assert code == 3
        assert "when sample 8 is left out" in capsys.readouterr().err


class TestSpectrumFirstFit:
    """fit chooses k from the eigenvalues before it builds any eigenvector."""

    CASES = {
        "gram": spiked_matrix(1, 300, 40, 6.0),
        "covariance": spiked_matrix(2, 40, 120, 4.0),
    }

    @pytest.fixture
    def built(self, monkeypatch):
        """Column counts of every U that fit's sample_eigen call returns."""
        counts = []
        original = spikepca.model.sample_eigen

        def recording(X, k, **kwargs):
            eig = original(X, k, **kwargs)
            counts.append(eig.U.shape[1])
            return eig

        monkeypatch.setattr(spikepca.model, "sample_eigen", recording)
        return counts

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_auto_builds_only_kept_columns(self, case, built):
        model = fit(self.CASES[case], "center", k="auto")
        assert model.k < min(self.CASES[case].values.shape)
        assert built == [model.k]

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_auto_equals_explicit_k(self, case, mode):
        # a narrower product may round differently from the full-width
        # one, so building all columns and slicing would not match
        auto = fit(self.CASES[case], mode, k="auto")
        explicit = fit(self.CASES[case], mode, k=auto.k)
        np.testing.assert_array_equal(auto.eig.U, explicit.eig.U)
        np.testing.assert_array_equal(auto.eig.d, explicit.eig.d)
        np.testing.assert_array_equal(auto.shrinkage, explicit.shrinkage)

    @pytest.mark.parametrize("shape", [(300, 40), (40, 120)])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_auto_keeps_at_most_rank(self, shape, rank, built):
        rng = np.random.default_rng(rank)
        p, n = shape
        X = DataMatrix(
            (rng.standard_normal((p, rank)) * [8.0, 3.0][:rank])
            @ rng.standard_normal((rank, n))
        )
        model = fit(X, "none", k="auto")
        assert 1 <= model.k <= rank
        assert built == [model.k]
        assert np.count_nonzero(model.eig.d) == rank
        np.testing.assert_allclose(
            model.eig.U.T @ model.eig.U, np.eye(model.k), atol=1e-12
        )


class TestPcRegression:
    def test_exact_linear_relation(self):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        coeffs = pcr_fit(s, 2 * s)
        assert coeffs[0] == pytest.approx(0.0, abs=1e-12)
        assert coeffs[1] == pytest.approx(2.0, rel=1e-12)
        assert pcr_mse(2 * s, pcr_predict(coeffs, s)) == pytest.approx(0.0, abs=1e-24)

    def test_three_point_hand_ols(self):
        # x = (0, 1, 2), y = (1, 2, 4): slope 3/2, intercept 5/6
        s = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 4.0])
        intercept, slope = pcr_fit(s, y)
        assert slope == pytest.approx(1.5, rel=1e-12)
        assert intercept == pytest.approx(5 / 6, rel=1e-12)

    def test_constant_scores_rejected(self):
        with pytest.raises(DegenerateRegressor):
            pcr_fit(np.ones(5), np.arange(5.0))

    def test_too_short(self):
        with pytest.raises(DimensionError):
            pcr_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
