"""Generators, empirical estimators, and experiment drivers."""

import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikepca import (
    DegenerateInput,
    DimensionError,
    DomainError,
    empirical_angle,
    empirical_shrinkage,
    fit,
    gen_intro,
    gen_pcr,
    gen_two_spike,
    pc_scores,
    pcr_fit,
    pcr_mse,
    pcr_predict,
    predict,
    run_intro,
    run_table3,
    run_table12,
    sample_eigen,
)
from spikepca import _workers, simulate
from spikepca.simulate import (
    INTRO_SCORES_HEADER,
    _stratum_means,
    _two_spike_estimators,
    _two_spike_proxy,
    _two_spike_replicate,
    standard_normal,
    substream,
)


def direct_two_spike_replicate(rng, gamma, n) -> dict:
    """The Tables 1-2 estimators of a gen_two_spike train/test pair, the
    oracle of the rotated draw _two_spike_replicate makes."""
    train, test = gen_two_spike(n, gamma, rng), gen_two_spike(n, gamma, rng)
    model = fit(train, mode="none", k=2)
    return _two_spike_estimators(
        model.eig.U,
        train.values,
        pc_scores(train, model.eig),
        predict(model, test).naive,
        (model.shrinkage, model.score_corr, model.evec_angle, model.identifiable),
    )


class TestRng:
    def test_substream_reproducible(self):
        a = substream(5, 1, 2, 3).integers(0, 2**53, size=8, dtype=np.int64)
        b = substream(5, 1, 2, 3).integers(0, 2**53, size=8, dtype=np.int64)
        assert (a == b).all()

    def test_substreams_differ(self):
        a = substream(5, 1, 2, 3).integers(0, 2**53, size=8, dtype=np.int64)
        b = substream(5, 1, 2, 4).integers(0, 2**53, size=8, dtype=np.int64)
        c = substream(6, 1, 2, 3).integers(0, 2**53, size=8, dtype=np.int64)
        assert (a != b).any()
        assert (a != c).any()

    def test_standard_normal_moments(self):
        z = standard_normal(substream(0, 0, 0, 0), 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1) < 0.01
        assert np.isfinite(z).all()

    def test_proxy_noise_gram_has_wishart_moments(self):
        # n=4: the 8 x 8 noise Gram W = R^T R / 4 of the proxy should be
        # Wishart_8(dof, I), dof = p - 2, with a triangular R at gamma=2.5
        # (p=10) and a 4 x 8 trapezoidal one at gamma=1.5 (p=6): E[W] =
        # dof I, Var(W_ii) = 2 dof and Var(W_ij) = dof off the diagonal.
        # Over N draws the entry means have standard error sqrt(Var / N);
        # a chi^2_dof sample variance has standard error
        # sqrt((8 dof^2 + 48 dof) / N).
        dim, N = 8, 20_000
        for gamma, dof in ((2.5, 8), (1.5, 4)):
            rng = substream(3, 0, 0, 0)
            W = np.empty((N, dim, dim))
            for i in range(N):
                X = _two_spike_proxy(rng, gamma, 4)
                assert X.shape == (dof + 2, dim)
                assert (np.tril(X[2:], -1) == 0).all()
                W[i] = X[2:].T @ X[2:] / 4
            var = np.where(np.eye(dim) == 1, 2.0 * dof, float(dof))
            mean_err = np.abs(W.mean(axis=0) - dof * np.eye(dim))
            assert (mean_err < 4 * np.sqrt(var / N)).all(), gamma
            diag_var = W[:, range(dim), range(dim)].var(axis=0)
            diag_se = math.sqrt((8 * dof**2 + 48 * dof) / N)
            assert (np.abs(diag_var - 2 * dof) < 4 * diag_se).all(), gamma


class TestGenIntro:
    def test_label_partition(self):
        train, test, labels = gen_intro((50, 30, 20), p=200, seed=3)
        assert train.n == test.n == 100
        assert train.p == test.p == 200
        counts = [int((labels == s).sum()) for s in (1, 2, 3)]
        assert counts == [50, 30, 20]

    def test_train_and_test_share_stratum_means(self):
        p = 400
        train, test, labels = gen_intro((50, 30, 20), p=p, seed=3)
        mu = _stratum_means(substream(3, 0, 0, 0), 3, p)
        for s, nk in zip((1, 2, 3), (50, 30, 20)):
            cols = labels == s
            for X in (train, test):
                block_mean = X.values[:, cols].mean(axis=1)
                # CLT: per-coordinate sd of the block mean is 2 / sqrt(nk)
                rms_err = np.sqrt(np.mean((block_mean - mu[s - 1]) ** 2))
                assert rms_err < 3 * 2 / math.sqrt(nk)

    def test_mean_elements_from_three_point_set(self):
        mu = _stratum_means(substream(0, 0, 0, 0), 3, 1000)
        assert set(np.round(np.unique(mu), 10)) <= {-0.3, 0.0, 0.3}

    def test_deterministic(self):
        a = gen_intro((5, 4, 3), p=20, seed=9)[0]
        b = gen_intro((5, 4, 3), p=20, seed=9)[0]
        assert a.values.tobytes() == b.values.tobytes()


class TestGenTwoSpike:
    def test_row_variances(self):
        X = gen_two_spike(200, 1.0, seed=5)
        lam1 = 4 * (1 + 1.0)
        var1 = X.values[0].var()
        assert abs(var1 - 4 * lam1) / (4 * lam1) < 0.20
        noise_var = X.values[5].var()
        assert abs(noise_var - 4) / 4 < 0.30

    def test_shape_follows_gamma(self):
        X = gen_two_spike(100, 0.5, seed=1)
        assert (X.p, X.n) == (50, 100)

    def test_leading_eigenvector_alignment(self):
        # empirical |cos| between the top sample eigenvector and the first
        # coordinate axis, one replicate at gamma=1, n=200
        X = gen_two_spike(200, 1.0, seed=11)
        eig = sample_eigen(X, 1)
        axis = np.zeros(X.p)
        axis[0] = 1.0
        assert empirical_angle(eig.U[:, 0], axis) == pytest.approx(0.93, abs=0.03)

    def test_gamma_zero_rejected(self):
        with pytest.raises(DomainError):
            gen_two_spike(100, 0.0, seed=0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_gamma_not_positive_and_finite_rejected(self, gamma):
        with pytest.raises(DomainError, match="gamma must be positive and finite"):
            gen_two_spike(100, gamma, seed=0)

    def test_tiny_p_rejected(self):
        with pytest.raises(DimensionError):
            gen_two_spike(100, 0.01, seed=0)

    @pytest.mark.parametrize("gamma", [1e300, 1e15, 1e14, 1.7e308])
    def test_p_past_2_53_rejected(self, gamma):
        # p is checked before the p x n draw is allocated; rescaling takes
        # p as a double, which holds every integer up to 2**53
        message = r"must round to a finite p in \[3, 2\*\*53\]"
        with pytest.raises(DimensionError, match=message):
            gen_two_spike(100, gamma, seed=0)


class TestGenPcr:
    def test_group_means_of_outcome(self):
        n, g = 200, 50
        X, y = gen_pcr(n, g, p=500, seed=2)
        # E y = 2 * 3 = 6 on the first half, 2 * 4 = 8 on the second;
        # sd of a half-mean is sqrt(16/g + 1) / sqrt(n/2)
        se = math.sqrt(16 / g + 1) / math.sqrt(n / 2)
        assert abs(y[: n // 2].mean() - 6.0) < 3 * se
        assert abs(y[n // 2 :].mean() - 8.0) < 3 * se

    def test_block_structure(self):
        X, _ = gen_pcr(20, 3, p=10, seed=4)
        assert X.values[:3, :10].mean() == pytest.approx(3.0, abs=0.5)
        assert X.values[:3, 10:].mean() == pytest.approx(4.0, abs=0.5)
        assert X.values[3:, :].mean() == pytest.approx(3.5, abs=0.3)

    def test_oracle_regression_mse(self):
        # regressing on the group indicator leaves the noise terms
        # (2/g) * sum(eps) + eps_y, with variance 1 + 16/g
        n, g = 400, 25
        X, y = gen_pcr(n, g, p=200, seed=6)
        indicator = np.repeat([0.0, 1.0], n // 2)
        coeffs = pcr_fit(indicator, y)
        mse = pcr_mse(y, pcr_predict(coeffs, indicator))
        expected = 1 + 16 / g
        assert mse == pytest.approx(expected, rel=0.25)

    def test_g_boundaries(self):
        gen_pcr(10, 9, p=10, seed=0)
        with pytest.raises(DomainError):
            gen_pcr(10, 10, p=10, seed=0)

    def test_odd_n_rejected(self):
        with pytest.raises(DomainError):
            gen_pcr(11, 3, p=10, seed=0)


class TestEmpiricalEstimators:
    def test_shrinkage_identity_cases(self):
        s = np.array([1.0, -2.0, 3.0])
        assert empirical_shrinkage(s, s) == 1.0
        assert empirical_shrinkage(s, s / 2) == pytest.approx(0.5, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(0.01, 100.0), seed=st.integers(0, 1000))
    def test_shrinkage_scaling_property(self, c, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(20) + 0.1
        assert empirical_shrinkage(s, c * s) == pytest.approx(c, rel=1e-9)

    def test_shrinkage_zero_denominator(self):
        with pytest.raises(DegenerateInput):
            empirical_shrinkage(np.zeros(3), np.ones(3))

    def test_angle_identity_and_orthogonal(self):
        assert empirical_angle([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert empirical_angle([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_angle_sign_free_and_normalizing(self):
        assert empirical_angle([2.0, 0.0], [-5.0, 0.0]) == pytest.approx(1.0)

    def test_angle_zero_vector(self):
        with pytest.raises(DegenerateInput):
            empirical_angle([0.0, 0.0], [1.0, 0.0])

    def test_two_spike_second_component_angle(self):
        # replicate mean over a handful of draws at gamma=1, n=100
        vals = []
        for rep in range(10):
            X = gen_two_spike(100, 1.0, substream(13, 1, rep))
            eig = sample_eigen(X, 2)
            axis = np.zeros(X.p)
            axis[1] = 1.0
            vals.append(empirical_angle(eig.U[:, 1], axis))
        assert np.mean(vals) == pytest.approx(0.81, abs=0.06)

    def test_two_spike_shrinkage_replicate_mean(self):
        # gamma=20, n=100: the leading component shrinks to about half
        vals = []
        for rep in range(10):
            rng = substream(14, 1, rep)
            train = gen_two_spike(100, 20.0, rng)
            test = gen_two_spike(100, 20.0, rng)
            model = fit(train, mode="none", k=1)
            from spikepca import pc_scores, predict

            s_train = pc_scores(train, model.eig)[0]
            s_test = predict(model, test).naive[0]
            vals.append(empirical_shrinkage(s_train, s_test))
        assert np.mean(vals) == pytest.approx(0.51, abs=0.04)


# Cells each study rejects before any draw, with the driver's message
# when the cell follows a good one (gamma=1 and n=20, or n=30 and g=5).
TABLE12_BAD_CELLS = [
    (-1.0, 20, "table12 cell gamma=-1, n=20: gamma must be positive"),
    (0.0, 20, "table12 cell gamma=0, n=20: gamma must be positive"),
    (math.inf, 20, "table12 cell gamma=inf, n=20: gamma must be positive"),
    (math.nan, 20, "table12 cell gamma=nan, n=20: gamma must be positive"),
    (100.0, 2, "table12 cell gamma=1, n=2: need n >= 4"),
    (0.1, 20, "table12 cell gamma=0.1, n=20: gamma \\* n must round to a finite p"),
    (1e308, 20, "cell gamma=1e\\+308, n=20: gamma \\* n must round to a finite p"),
]
TABLE3_BAD_CELLS = [
    (11, 20, 200, "table3 cell n=11, g=20: n must be even"),
    (0, 20, 200, "table3 cell n=0, g=20: need n >= 2"),
    (1, 20, 200, "table3 cell n=1, g=20: need n >= 2"),
    # even, but fit needs 3 training samples
    (2, 1, 200, "table3 cell n=2, g=1: need n >= 4: each replicate fits its n"),
    (10, 20, 10, "table3 cell n=10, g=20: g must satisfy 1 <= g < p=10"),
    (10, 0, 200, "table3 cell n=10, g=0: g must satisfy 1 <= g < p=200"),
]


class TestDrivers:
    def test_single_replicate_has_zero_sd(self):
        report = run_table12(gammas=(1.0,), ns=(100,), replicates=1, seed=5)
        for cell in report.cells:
            _, sd, used = cell.stats
            assert sd == 0.0
            assert used <= 1

    # gamma=1 cells draw a trapezoidal noise block, gamma=20 cells a
    # triangular one
    def test_report_reproducible(self):
        a = run_table12(gammas=(1.0, 20.0), ns=(100,), replicates=3, seed=5).to_csv()
        b = run_table12(gammas=(1.0, 20.0), ns=(100,), replicates=3, seed=5).to_csv()
        assert a == b

    def test_workers_do_not_change_results(self):
        # 2 workers split the last three replicates of a cell in two, 5
        # workers in as many blocks as there are usable cores
        for study in (
            lambda workers: run_table12(
                gammas=(1.0, 20.0), ns=(100,), replicates=4, seed=5, workers=workers
            ),
            lambda workers: run_table3(
                cells=((20, 5), (40, 10)), replicates=4, seed=5, p=100, workers=workers
            ),
        ):
            reports = [study(workers).to_csv() for workers in (1, 2, 5)]
            assert reports[1:] == reports[:1] * 2

    @pytest.mark.parametrize("p", [10, 21, 22])
    def test_proxy_shape_follows_bartlett_rule(self, p):
        # at n=10 the noise block has min(p - 2, 2n) rows: p=10 and p=21
        # (one short of p - 2 = 2n) are trapezoidal, p=22 is triangular
        n = 10
        X = _two_spike_proxy(substream(5, 1, 0, 0), p / n, n)
        assert X.shape == (min(p - 2, 2 * n) + 2, 2 * n)
        assert (np.tril(X[2:], -1) == 0).all()
        assert np.isfinite(X).all()

    def test_reduced_replicate_is_direct_replicate_rotated(self, monkeypatch):
        # Feed the replicate the spike rows of a direct draw and the R of
        # the QR decomposition of its noise rows, triangular at gamma=20
        # and trapezoidal at gamma=1. Every estimator is rotation
        # invariant, so it must agree with the direct oracle on that draw.
        n = 10
        for gamma in (20.0, 1.0):
            rng = substream(4, 1, 0, 0)
            train, test = gen_two_spike(n, gamma, rng), gen_two_spike(n, gamma, rng)
            joint = np.hstack([train.values, test.values])
            proxy = np.vstack([joint[:2], np.linalg.qr(joint[2:], mode="r")])
            monkeypatch.setattr(simulate, "_two_spike_proxy", lambda *args: proxy)
            direct = direct_two_spike_replicate(substream(4, 1, 0, 0), gamma, n)
            reduced = _two_spike_replicate(None, gamma, n)
            assert reduced.keys() == direct.keys()
            for key, value in direct.items():
                assert reduced[key] == pytest.approx(value, rel=1e-9, nan_ok=True), (
                    gamma, key
                )

    def test_reduced_replicate_matches_direct(self):
        # Two independent samples, one per draw, of every estimator at
        # n=10, gamma=20 (p=200, triangular noise block) and gamma=1
        # (p=10, trapezoidal). Identical distributions give |z| <= 4 for
        # the mean difference and an SD ratio in [0.8, 1.25] here; larger n
        # makes the angle estimators heavy-tailed (rare swaps of the two
        # spike components), which puts the SD ratio of 1000-rep samples
        # outside that range often even when the draws agree. Below
        # gamma=1 at n=10, component 2 is almost never a spike.
        reps = 1000
        problems = []
        for gamma in (20.0, 1.0):
            direct = [
                direct_two_spike_replicate(substream(21, 1, 0, r), gamma, 10)
                for r in range(reps)
            ]
            reduced = [
                _two_spike_replicate(substream(22, 1, 0, r), gamma, 10)
                for r in range(reps)
            ]
            assert direct[0].keys() == reduced[0].keys()
            for key in direct[0]:
                a = np.array([r[key] for r in direct])
                b = np.array([r[key] for r in reduced])
                a, b = a[~np.isnan(a)], b[~np.isnan(b)]
                z = (b.mean() - a.mean()) / math.sqrt(a.var() / a.size + b.var() / b.size)
                ratio = b.std() / a.std()
                if not (abs(z) <= 4 and 0.8 <= ratio <= 1.25):
                    problems.append((gamma, key, z, ratio))
        assert problems == []

    def test_table12_estimates_in_range(self):
        report = run_table12(gammas=(1.0,), ns=(100,), replicates=10, seed=5)
        for cell in report.cells:
            mean, _, used = cell.stats
            assert used >= 9
            assert 0.0 <= mean <= 1.0
            assert abs(mean - cell.analytic) < 0.1

    def test_adjusted_ratio_closer_to_one_than_naive(self):
        # the RMS ratio of adjusted test scores to train scores should beat
        # the naive ratio in at least 90% of spike-component replicates;
        # at gamma=20 the shrinkage is strong enough to dominate the
        # replicate-to-replicate noise of the ratios
        wins = total = 0
        for rep in range(20):
            rng = substream(15, 1, rep)
            train = gen_two_spike(100, 20.0, rng)
            test = gen_two_spike(100, 20.0, rng)
            model = fit(train, mode="none", k=2)
            from spikepca import predict

            tr = predict(model, train)
            te = predict(model, test)
            for v in range(2):
                if not model.identifiable[v]:
                    continue
                rms_train = np.sqrt(np.mean(tr.naive[v] ** 2))
                naive_ratio = np.sqrt(np.mean(te.naive[v] ** 2)) / rms_train
                adj_ratio = np.sqrt(np.mean(te.adjusted[v] ** 2)) / rms_train
                wins += int(abs(adj_ratio - 1) < abs(naive_ratio - 1))
                total += 1
        assert wins >= 0.9 * total

    def test_table3_adjusted_beats_unadjusted(self):
        report = run_table3(cells=((100, 300),), replicates=5, seed=5)
        unadj = report.cell("mse_test_unadjusted", n=100, g=300)
        adj = report.cell("mse_test_adjusted", n=100, g=300)
        train = report.cell("mse_train", n=100, g=300)
        better = sum(a < u for a, u in zip(adj.values, unadj.values))
        assert better >= 4
        assert train.stats[0] < unadj.stats[0]

    def test_intro_report_and_dump(self):
        report, scores_csv = run_intro(seed=1, p=400, n_per_stratum=(20, 12, 8))
        assert {c.estimator for c in report.cells} == {
            "shrinkage_plugin",
            "rms_ratio_naive",
            "rms_ratio_adjusted",
        }
        lines = scores_csv.strip().splitlines()
        assert lines[0] == INTRO_SCORES_HEADER
        assert len(lines) == 1 + 2 * 40
        strata = {int(ln.split(",")[1]) for ln in lines[1:]}
        assert strata == {1, 2, 3}
        again, scores_again = run_intro(seed=1, p=400, n_per_stratum=(20, 12, 8))
        assert scores_again == scores_csv
        assert again.to_csv() == report.to_csv()

    def test_replicates_validation(self):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            run_table12(gammas=(1.0,), ns=(100,), replicates=0, seed=1)
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            run_table3(cells=((30, 20),), replicates=0, seed=1, p=200)

    def test_replicates_past_stream_address_rejected(self, monkeypatch):
        # rejected before any draw: substream would fail at replicate 65536
        monkeypatch.setattr(simulate, "substream", None)
        with pytest.raises(ValueError, match="replicates must be <= 65536, got 65537"):
            run_table12(gammas=(1.0,), ns=(20,), replicates=65537, seed=1)
        with pytest.raises(ValueError, match="replicates must be <= 65536, got 65537"):
            run_table3(cells=((30, 20),), replicates=65537, seed=1, p=200)

    def test_workers_validation(self):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                run_table12(gammas=(1.0,), ns=(20,), replicates=1, seed=1,
                            workers=workers)
            with pytest.raises(ValueError, match="workers must be >= 1"):
                run_table3(cells=((30, 20),), replicates=1, seed=1, p=200,
                           workers=workers)

    @pytest.mark.parametrize("p, strata, message", [
        (1, (50, 30, 20), "intro: p must be >= 2, got 1"),
        (20, (1, 1), r"intro: need strata >= 0 with sum >= 3, got \(1, 1\)"),
        (20, (), r"with sum >= 3, got \(\)"),
        (20, (5, -1, 3), r"strata >= 0 with sum >= 3, got \(5, -1, 3\)"),
    ])
    def test_intro_validation(self, monkeypatch, p, strata, message):
        # two components are fitted; checked before any draw
        monkeypatch.setattr(simulate, "gen_intro", None)
        with pytest.raises(ValueError, match=message):
            run_intro(seed=1, p=p, n_per_stratum=strata)

    @pytest.mark.parametrize("gamma, n, message", TABLE12_BAD_CELLS)
    def test_table12_grid_validation(self, monkeypatch, gamma, n, message):
        # a bad cell anywhere in the grid is rejected before any draw
        monkeypatch.setattr(simulate, "_run_study", None)
        with pytest.raises(ValueError, match=message):
            run_table12(gammas=(1.0, gamma), ns=(20, n), seed=1)

    @pytest.mark.parametrize("n, g, p, message", TABLE3_BAD_CELLS)
    def test_table3_grid_validation(self, monkeypatch, n, g, p, message):
        monkeypatch.setattr(simulate, "_run_study", None)
        with pytest.raises(ValueError, match=message):
            run_table3(cells=((30, 5), (n, g)), seed=1, p=p)

    @pytest.mark.parametrize("drive, generate", [
        *(pytest.param(partial(run_table12, gammas=(gamma,), ns=(n,), seed=1),
                       partial(gen_two_spike, n, gamma, seed=1),
                       id=f"table12-{gamma}-{n}")
          for gamma, n, _ in TABLE12_BAD_CELLS),
        *(pytest.param(partial(run_table3, cells=((n, g),), seed=1, p=p),
                       partial(gen_pcr, n, g, p, seed=1),
                       id=f"table3-{n}-{g}-{p}")
          for n, g, p, _ in TABLE3_BAD_CELLS),
    ])
    def test_generator_rejects_a_bad_cell_for_the_drivers_reason(
        self, monkeypatch, drive, generate
    ):
        # one cell rule serves a study's driver and its generator: the
        # driver's reason, after its cell label, is the generator's, before
        # the cell's values
        monkeypatch.setattr(simulate, "_run_study", None)
        monkeypatch.setattr(simulate, "standard_normal", None)
        with pytest.raises(ValueError) as driver:
            drive()
        with pytest.raises((DimensionError, DomainError)) as generator:
            generate()
        reason = str(driver.value).split(": ", 1)[1]
        assert str(generator.value).split("; got ")[0] == reason


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raising_at(rep):
    """_two_spike_replicate, raising DegenerateInput at replicate `rep`."""
    replicate = simulate._two_spike_replicate

    def raising(rng, **cell):
        # substream's key ends in the 16-bit replicate number
        if rng.bit_generator.state["state"]["key"][1] & 0xFFFF == rep:
            raise DegenerateInput(f"replicate {rep} failed")
        return replicate(rng, **cell)

    return raising


@pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes need os.fork")
class TestWorkerProcesses:
    """Replicate blocks after the first run in forked children; at most 4
    per cell here, so even a broken block count forks only a few."""

    CELL = dict(gammas=(1.0,), ns=(20,), replicates=4, seed=5)

    def counted_forks(self, monkeypatch, cores):
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    def test_one_block_per_usable_core(self, monkeypatch):
        forks = self.counted_forks(monkeypatch, 2)
        forked = run_table12(**self.CELL, workers=5).to_csv()
        assert len(forks) == 1
        assert forked == run_table12(**self.CELL).to_csv()
        assert_no_child()

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("rep", [0, 1, 3])
    def test_failing_replicate_raises_as_with_one_worker(self, monkeypatch, rep, workers):
        # at 4 cores, 5 workers split replicates 0-3 into one block each
        # and fork three children: 0 fails in the parent's own block, and
        # 1 and 3 in a child's at 5 workers, which the parent then runs
        # again
        forks = self.counted_forks(monkeypatch, 4)
        monkeypatch.setattr(simulate, "_two_spike_replicate", raising_at(rep))
        with pytest.raises(DegenerateInput, match=rf"^replicate {rep} failed$"):
            run_table12(**self.CELL, workers=workers)
        assert len(forks) == min(workers, 4) - 1
        assert_no_child()

    def test_without_fork_runs_serially(self, monkeypatch):
        serial = run_table12(**self.CELL).to_csv()
        monkeypatch.delattr(os, "fork")
        assert run_table12(**self.CELL, workers=2).to_csv() == serial

    def test_failing_fork_runs_serially(self, monkeypatch):
        def refuse():
            raise OSError("fork refused")

        serial = run_table12(**self.CELL).to_csv()
        monkeypatch.setattr(os, "fork", refuse)
        assert run_table12(**self.CELL, workers=2).to_csv() == serial


def python_with_src(argv, env=None, **kwargs):
    """Run a fresh interpreter on ``argv`` with this checkout's src first
    on PYTHONPATH; returns the completed process, output captured."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          timeout=120, **kwargs)


PRE_FORK = """
import json, sys
from spikepca import simulate
loaded = ["scipy.special" in sys.modules]
fill_rows = simulate.fill_rows

def recording(*args):
    loaded.append("scipy.special" in sys.modules)
    return fill_rows(*args)

simulate.fill_rows = recording
if sys.argv[1] == "table12":
    simulate.run_table12(gammas=(1.0,), ns=(20, 24), replicates=2, seed=5, workers=2)
else:
    simulate.run_table3(cells=((4, 2), (6, 3)), replicates=2, seed=5, p=10, workers=2)
print(json.dumps(loaded))
"""


class TestPreForkImport:
    """A study loads scipy.special once, before it forks its workers."""

    @pytest.mark.parametrize("study", ["table12", "table3"])
    def test_scipy_special_is_loaded_at_every_fill_rows_call(self, study):
        result = python_with_src(["-c", PRE_FORK, study], text=True)
        assert result.returncode == 0, result.stderr
        # not loaded by the import, then loaded at both cells' calls
        assert json.loads(result.stdout) == [False, True, True]

    def test_workers_match_one_worker_with_openblas_threads_unset(self):
        # scipy.special loads scipy's own OpenBLAS, which starts its
        # threads before the fork when no thread count is set; the
        # timeout catches a worker that hangs on them
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        argv = ["-m", "spikepca", "simulate", "table12", "--seed", "3", "--gamma", "1",
                "--n", "100", "--replicates", "3", "--workers"]
        reports = [python_with_src([*argv, workers], env) for workers in ("1", "2")]
        assert [r.returncode for r in reports] == [0, 0], reports[1].stderr
        assert reports[1].stdout == reports[0].stdout


@pytest.mark.skipif(_workers._openblas_threads() is None,
                    reason="numpy carries no OpenBLAS thread hook")
def test_replicates_run_at_one_blas_thread(monkeypatch):
    get, set_ = _workers._openblas_threads()
    replicate = simulate._two_spike_replicate
    seen = []

    def recording(rng, **cell):
        seen.append(get())
        return replicate(rng, **cell)

    monkeypatch.setattr(simulate, "_two_spike_replicate", recording)
    previous = get()
    set_(2)
    try:
        run_table12(gammas=(1.0,), ns=(20,), replicates=2, seed=5)
        assert (seen, get()) == ([1, 1], 2)
    finally:
        set_(previous)
