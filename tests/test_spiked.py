"""Closed-form spike estimators, rescaling iteration, and MP quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikepca import (
    DegenerateMatrix,
    DimensionError,
    DomainError,
    NotIdentifiable,
    adjustment_factor,
    debias_eigenvalue,
    detection_threshold,
    eigenvector_angle,
    gen_two_spike,
    rescale_eigenvalues,
    sample_eigen,
    sample_eigenvalue_limit,
    score_angle,
    shrinkage_factor,
)
from spikepca.simulate import standard_normal, substream
from mp_oracles import MpLaw, mp_edges, mp_integral, trace_gap

GAMMA_GRID = [0.1, 1.0, 20.0, 100.0, 500.0]


class TestEigenvalueMaps:
    def test_limit_hand_value(self):
        assert sample_eigenvalue_limit(8, 1) == pytest.approx(64 / 7, rel=1e-15)

    def test_limit_gamma_zero_identity(self):
        for lam in [1.5, 8.0, 123.0]:
            assert sample_eigenvalue_limit(lam, 0.0) == lam

    def test_limit_at_threshold_hits_upper_edge(self):
        # spike exactly at the detection threshold maps onto the noise edge
        assert sample_eigenvalue_limit(1 + math.sqrt(4.0), 4.0) == pytest.approx(9.0)
        assert mp_edges(4.0)[1] == 9.0

    def test_limit_domain(self):
        with pytest.raises(DomainError):
            sample_eigenvalue_limit(1.0, 1.0)
        with pytest.raises(DomainError):
            sample_eigenvalue_limit(2.0, -0.5)
        with pytest.raises(DomainError, match="gamma must be finite, got inf"):
            sample_eigenvalue_limit(2.0, math.inf)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: detection_threshold(math.nan),
            lambda: sample_eigenvalue_limit(math.nan, 1.0),
            lambda: sample_eigenvalue_limit(2.0, math.nan),
            lambda: debias_eigenvalue(math.nan, 1.0),
            lambda: debias_eigenvalue(5.0, math.nan),
            lambda: eigenvector_angle(math.nan, 1.0),
            lambda: score_angle(5.0, math.nan),
            lambda: shrinkage_factor(math.nan, 1.0),
            lambda: adjustment_factor(math.nan, 1.0),
        ],
    )
    def test_nan_is_out_of_domain(self, call):
        # a nan fails every comparison, so each check is written to pass
        # only in-domain values rather than to catch out-of-domain ones
        with pytest.raises(DomainError):
            call()

    def test_debias_round_trip(self):
        d = sample_eigenvalue_limit(8, 1)
        assert debias_eigenvalue(d, 1) == pytest.approx(8.0, abs=1e-12)

    def test_debias_boundary_zero_discriminant(self):
        b = (1 + 1) ** 2
        assert debias_eigenvalue(b, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_debias_gamma_zero(self):
        assert debias_eigenvalue(5.0, 0.0) == pytest.approx(5.0, abs=1e-12)

    def test_debias_below_edge(self):
        with pytest.raises(DomainError):
            debias_eigenvalue(3.9, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        gamma=st.sampled_from(GAMMA_GRID),
        mult=st.floats(1.001, 50.0),
    )
    def test_round_trip_property(self, gamma, mult):
        lam = mult * (1 + math.sqrt(gamma))
        d = sample_eigenvalue_limit(lam, gamma)
        assert abs(debias_eigenvalue(d, gamma) - lam) <= 1e-10 * max(1.0, lam)

    def test_round_trip_grid(self):
        for gamma in GAMMA_GRID:
            t = 1 + math.sqrt(gamma)
            for lam in [1.01 * t, 2 * t, 10 * t]:
                d = sample_eigenvalue_limit(lam, gamma)
                assert debias_eigenvalue(d, gamma) == pytest.approx(lam, abs=1e-10 * lam)


class TestAngles:
    # analytic values reproduced by the benchmark tables (two decimals)
    TABLE_EVEC = {
        (1.0, 1): 0.93, (1.0, 2): 0.82,
        (20.0, 1): 0.70, (20.0, 2): 0.51,
        (100.0, 1): 0.53, (100.0, 2): 0.37,
        (500.0, 1): 0.38, (500.0, 2): 0.25,
    }
    TABLE_SCORE = {
        (1.0, 1): 0.99, (1.0, 2): 0.94,
        (20.0, 1): 0.98, (20.0, 2): 0.89,
        (100.0, 1): 0.97, (100.0, 2): 0.88,
        (500.0, 1): 0.97, (500.0, 2): 0.87,
    }

    def test_eigenvector_angle_values(self):
        assert eigenvector_angle(8, 1) == pytest.approx(0.9258, abs=5e-5)
        assert eigenvector_angle(44, 100) == pytest.approx(0.5333, abs=5e-5)

    def test_eigenvector_angle_below_threshold(self):
        assert eigenvector_angle(1.5, 1.0) == 0.0

    def test_score_angle_values(self):
        assert score_angle(8, 1) == pytest.approx(math.sqrt(48 / 49), rel=1e-12)
        assert score_angle(44, 100) == pytest.approx(0.9726, abs=5e-5)

    def test_score_angle_gamma_zero(self):
        assert score_angle(3.0, 0.0) == 1.0

    def test_two_decimal_table(self):
        for (gamma, comp), expected in self.TABLE_EVEC.items():
            lam = (4 if comp == 1 else 2) * (1 + math.sqrt(gamma))
            assert round(eigenvector_angle(lam, gamma), 2) == expected
        for (gamma, comp), expected in self.TABLE_SCORE.items():
            lam = (4 if comp == 1 else 2) * (1 + math.sqrt(gamma))
            assert round(score_angle(lam, gamma), 2) == expected

    def test_domain_errors(self):
        for func in (eigenvector_angle, score_angle):
            with pytest.raises(DomainError):
                func(0.9, 1.0)
            with pytest.raises(DomainError):
                func(2.0, -1.0)
            with pytest.raises(DomainError):
                func(2.0, math.inf)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 20.0])
    def test_threshold_continuity(self, gamma):
        # the closed form tends to the below-threshold branch value 0
        lam = detection_threshold(gamma) + 1e-8
        assert eigenvector_angle(lam, gamma) < 1e-3
        assert score_angle(lam, gamma) < 1e-3

    def test_score_angle_dominates_eigenvector_angle(self):
        for gamma in GAMMA_GRID:
            for mult in [1.1, 2.0, 10.0]:
                lam = mult * (1 + math.sqrt(gamma))
                assert score_angle(lam, gamma) >= eigenvector_angle(lam, gamma)


class TestShrinkage:
    TABLE_FACTOR = {
        (1.0, 1): 0.88, (1.0, 2): 0.75,
        (20.0, 1): 0.51, (20.0, 2): 0.33,
        (100.0, 1): 0.30, (100.0, 2): 0.17,
        (500.0, 1): 0.16, (500.0, 2): 0.08,
    }

    def test_hand_values(self):
        assert shrinkage_factor(8, 1) == pytest.approx(7 / 8, rel=1e-15)
        assert shrinkage_factor(44, 100) == pytest.approx(43 / 143, rel=1e-15)

    def test_gamma_zero(self):
        assert shrinkage_factor(5.0, 0.0) == 1.0

    def test_two_decimal_table(self):
        for (gamma, comp), expected in self.TABLE_FACTOR.items():
            lam = (4 if comp == 1 else 2) * (1 + math.sqrt(gamma))
            assert round(shrinkage_factor(lam, gamma), 2) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            shrinkage_factor(1 + math.sqrt(1.0), 1.0)

    def test_monotone_in_spike_and_gamma(self):
        gammas = [0.1, 0.5, 1.0, 5.0, 20.0, 100.0]
        for gamma in gammas:
            lams = [(1 + math.sqrt(gamma)) * m for m in [1.05, 1.5, 2.5, 5.0, 20.0]]
            vals = [shrinkage_factor(lam, gamma) for lam in lams]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        lam_mult = 3.0
        vals = [
            shrinkage_factor(lam_mult * (1 + math.sqrt(g)), g) for g in gammas
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=100, deadline=None)
    @given(gamma=st.floats(0.0, 500.0), mult=st.floats(1.01, 40.0))
    def test_range_property(self, gamma, mult):
        lam = mult * (1 + math.sqrt(gamma))
        s = shrinkage_factor(lam, gamma)
        assert 0 < s <= 1

    def test_rms_ratio_identity(self):
        # sqrt((angle^2 (lam-1) + 1) / limit) equals the shrinkage factor
        for gamma in GAMMA_GRID:
            t = 1 + math.sqrt(gamma)
            for lam in [1.01 * t, 2 * t, 10 * t]:
                phi = eigenvector_angle(lam, gamma)
                lhs = math.sqrt(
                    (phi**2 * (lam - 1) + 1) / sample_eigenvalue_limit(lam, gamma)
                )
                assert lhs == pytest.approx(shrinkage_factor(lam, gamma), abs=1e-10)


class TestAdjustment:
    def test_reciprocal_of_shrinkage(self):
        d = sample_eigenvalue_limit(8, 1)
        assert adjustment_factor(d, 1) == pytest.approx(8 / 7, rel=1e-12)
        lam = debias_eigenvalue(d, 1)
        assert adjustment_factor(d, 1) * shrinkage_factor(lam, 1) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_gamma_zero(self):
        assert adjustment_factor(5.0, 0.0) == pytest.approx(1.0)

    def test_below_edge_not_identifiable(self):
        with pytest.raises(NotIdentifiable):
            adjustment_factor(3.9, 1.0)


class TestRescale:
    def test_no_spike_branch_stops_after_one_pass(self):
        gamma = 1.0
        p = n = 8
        b = (1 + math.sqrt(gamma)) ** 2
        d = np.linspace(b * 0.9, b * 0.1, p)
        spectrum = rescale_eigenvalues(d, p, n)
        assert spectrum.k == 0
        assert spectrum.iterations == 1
        assert spectrum.converged
        assert spectrum.tau == p
        np.testing.assert_allclose(spectrum.d_hat, p * d / d.sum(), rtol=1e-15)

    def test_null_spectrum_stays_put(self):
        # noise-only data on the unit scale: rescaling is a ~1% correction
        rng = substream(123, 4, 0)
        X = standard_normal(rng, (200, 100))
        d = np.maximum(np.linalg.eigvalsh(X.T @ X / 100)[::-1], 0.0)
        spectrum = rescale_eigenvalues(d, 200, 100)
        assert spectrum.converged
        assert spectrum.k == 0
        assert np.max(np.abs(spectrum.d_hat - d) / d[0]) < 0.02

    def test_two_spike_recovers_population_eigenvalue(self):
        # noise sd 2 scales the raw spectrum by 4; the iteration undoes it
        gamma, n = 1.0, 200
        lam1 = 4 * (1 + math.sqrt(gamma))
        estimates = []
        for rep in range(20):
            X = gen_two_spike(n, gamma, substream(31, 1, rep))
            eig = sample_eigen(X, 1)
            spectrum = rescale_eigenvalues(eig.d, X.p, X.n)
            assert spectrum.converged
            estimates.append(debias_eigenvalue(spectrum.d_hat[0], gamma))
        assert np.mean(estimates) == pytest.approx(lam1, rel=0.10)

    def test_ratio_structure_preserved(self):
        d = np.array([50.0, 10.0, 3.0, 2.0, 1.0, 0.5])
        spectrum = rescale_eigenvalues(d, 6, 4)
        np.testing.assert_allclose(spectrum.d_hat, spectrum.tau * d / d.sum(), rtol=1e-15)
        assert (np.diff(spectrum.d_hat) <= 0).all()

    def test_spike_prefix_invariant(self):
        d = np.array([80.0, 30.0, 2.0, 1.5, 1.2, 1.0, 0.8, 0.5])
        spectrum = rescale_eigenvalues(d, 8, 10)
        assert (spectrum.lambda_hat >= 1).all()
        assert (spectrum.lambda_hat[: spectrum.k] > 1).all()
        assert (spectrum.lambda_hat[spectrum.k :] == 1).all()

    def test_converged_root_of_trace_gap(self):
        d = np.array([80.0, 30.0, 2.0, 1.5, 1.2, 1.0, 0.8, 0.5])
        p = 8
        spectrum = rescale_eigenvalues(d, p, 10, tol=1e-10)
        assert spectrum.converged
        assert abs(trace_gap(spectrum.tau, d / d.sum(), p, spectrum.gamma)) < 1e-10 * p

    def test_max_iter_exhaustion_flags_not_converged(self):
        d = np.array([80.0, 30.0, 2.0, 1.5, 1.2, 1.0, 0.8, 0.5])
        spectrum = rescale_eigenvalues(d, 8, 10, tol=1e-16, max_iter=2)
        assert not spectrum.converged
        assert spectrum.iterations == 2

    def test_stops_at_rounding_floor(self):
        # tol * p is below one ulp of tau, so only a zero step would meet
        # the tolerance; the iteration stops when a step reverses direction.
        # The eigenvalues of a 113 x 37 noise-only matrix, written out so
        # the case does not depend on the BLAS build.
        d = np.array(
            [
                7.3100610595300664, 6.5411816318658991, 6.2820661978192875,
                5.5868177692956458, 5.4100513508899484, 4.9144863966220385,
                4.6515718436269919, 4.4063373649367881, 4.3449622601074278,
                4.1132387729069642, 3.8500983590006852, 3.7119274827999695,
                3.6154232136043714, 3.4498784730904957, 3.1767249035395833,
                3.1129438110969634, 2.8861872354486713, 2.6757774801535406,
                2.5388273321180392, 2.4026735414772982, 2.2646207094966861,
                2.1404013333980965, 2.1126712879516094, 1.8249395772594337,
                1.722234880903093, 1.6496923777078625, 1.6066191740675273,
                1.4471153099188767, 1.399314025096144, 1.2672861125915549,
                1.1955868757052261, 1.1344384686540809, 0.95535996398070677,
                0.87597841744271998, 0.8457132335960178, 0.7299960958438042,
                0.55151010231303566,
            ]
        )
        p = 113
        spectrum = rescale_eigenvalues(d, p, 37, tol=1e-17)
        assert spectrum.converged
        assert spectrum.iterations < 500
        assert abs(trace_gap(spectrum.tau, d / d.sum(), p, spectrum.gamma)) <= 1e-15 * p

    def test_all_zero_spectrum(self):
        with pytest.raises(DegenerateMatrix):
            rescale_eigenvalues(np.zeros(5), 5, 10)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            rescale_eigenvalues(np.array([1.0, 2.0]), 2, 4)  # increasing
        with pytest.raises(DomainError):
            rescale_eigenvalues(np.array([2.0, -1.0]), 2, 4)  # negative

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"gamma": math.nan}, "gamma must be >= 0, got nan"),
            ({"tol": math.nan}, "tol must be positive, got nan"),
            ({"gamma": math.inf}, "gamma must be finite, got inf"),
            ({"tol": math.inf}, "tol must be finite, got inf"),
        ],
    )
    def test_rejects_nan_gamma_and_tol(self, options, message):
        # unchecked, gamma=nan or inf finds no spike, tol=nan never
        # converges and tol=inf converges after one step
        with pytest.raises(DomainError, match=message):
            rescale_eigenvalues(np.array([40.0, 3.0, 2.0, 1.0]), 4, 8, **options)

    @pytest.mark.parametrize("p, n", [(10, 0), (0, 5), (-4, 5)])
    def test_rejects_counts_below_one(self, p, n):
        # unchecked, a zero n divides by zero and a zero p yields a spectrum
        with pytest.raises(DimensionError, match="p and n must be >= 1"):
            rescale_eigenvalues(np.array([4.0, 3.0, 2.0, 1.0]), p, n)
        with pytest.raises(DimensionError):
            rescale_eigenvalues(np.array([4.0, 3.0]), p, n, gamma=1.0)

    @pytest.mark.parametrize(
        "p, n, name", [(10**400, 50, "p"), (100, 10**400, "n"), (2**53 + 1, 5, "p")]
    )
    def test_rejects_counts_past_exact_doubles(self, p, n, name):
        # unchecked, a count too large for a double raises a bare
        # OverflowError from p / n
        with pytest.raises(DimensionError, match=rf"{name} must be <= 2\*\*53, got {max(p, n)}$"):
            rescale_eigenvalues(np.array([40.0, 3.0, 2.0, 1.0]), p, n)

    def test_leading_eigenvalues_with_total(self):
        # the three spikes and a tail whose rescaled values stay below the
        # edge: the leading four plus the trace give the full result
        d = np.r_[60.0, 30.0, 12.0, np.linspace(2.0, 0.1, 37)]
        full = rescale_eigenvalues(d, 40, 80)
        lead = rescale_eigenvalues(d[:4], 40, 80, total=d.sum())
        assert full.k == lead.k == 3
        assert full.tau * d[4] / d.sum() <= (1 + math.sqrt(0.5)) ** 2
        assert lead.tau == full.tau
        assert lead.iterations == full.iterations
        np.testing.assert_array_equal(lead.d_hat, full.d_hat[:4])
        np.testing.assert_array_equal(lead.lambda_hat, full.lambda_hat[:4])

    @pytest.mark.parametrize("total", [-1.0, math.inf, math.nan])
    def test_rejects_invalid_total(self, total):
        with pytest.raises(DomainError, match="total"):
            rescale_eigenvalues(np.array([4.0, 3.0]), 10, 5, total=total)

    def test_zero_total_is_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            rescale_eigenvalues(np.array([0.0]), 10, 5, total=0.0)

    def test_gamma_override(self):
        d = np.array([40.0, 3.0, 2.0, 1.0])
        via_n = rescale_eigenvalues(d, 4, 8)
        via_gamma = rescale_eigenvalues(d, 4, 123456, gamma=0.5)
        np.testing.assert_array_equal(via_n.d_hat, via_gamma.d_hat)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        p=st.integers(4, 40),
        spikes=st.integers(0, 3),
        scale=st.floats(0.1, 10.0),
    )
    def test_rescale_invariants_property(self, seed, p, spikes, scale):
        rng = np.random.default_rng(seed)
        n = max(4, p // 2)
        gamma = p / n
        b = (1 + math.sqrt(gamma)) ** 2
        noise = np.sort(rng.uniform(0.05, b * 0.9, size=p - spikes))[::-1]
        top = np.sort(rng.uniform(b * 2, b * 12, size=spikes))[::-1]
        d = scale * np.concatenate([top, noise])
        spectrum = rescale_eigenvalues(d, p, n)
        np.testing.assert_allclose(spectrum.d_hat, spectrum.tau * d / d.sum(), rtol=1e-12)
        assert (spectrum.lambda_hat >= 1).all()
        assert (spectrum.lambda_hat[: spectrum.k] > 1).all()
        assert (spectrum.lambda_hat[spectrum.k :] == 1).all()
        if spectrum.converged:
            assert abs(trace_gap(spectrum.tau, d / d.sum(), p, gamma)) <= 1e-8 * p

    def test_scale_invariance(self):
        # d_hat depends on the spectrum only through the trace shares
        d = np.array([80.0, 30.0, 2.0, 1.5, 1.2, 1.0, 0.8, 0.5])
        a = rescale_eigenvalues(d, 8, 10)
        b = rescale_eigenvalues(d * 7.5, 8, 10)
        np.testing.assert_allclose(a.d_hat, b.d_hat, rtol=1e-12)
        assert a.k == b.k


class TestTraceGap:
    def test_concavity_via_second_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = 30
            d = np.sort(rng.uniform(0.1, 5.0, size=p))[::-1]
            d[0] *= 30  # make at least one spike
            r = d / d.sum()
            xs = np.linspace(p, 3 * p, 41)
            gamma = 1.5
            vals = np.array([trace_gap(x, r, p, gamma) for x in xs])
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            spike_counts = {
                int((x * r > (1 + math.sqrt(gamma)) ** 2).sum()) for x in xs
            }
            if len(spike_counts) == 1:
                # fixed spike set: strictly concave
                assert (second <= 1e-9).all()

    def test_unique_root_when_positive_at_p(self):
        p = 20
        d = np.concatenate([[200.0, 50.0], np.linspace(2.0, 0.2, p - 2)])
        r = d / d.sum()
        gamma = 2.0
        assert trace_gap(p, r, p, gamma) > 0
        spectrum = rescale_eigenvalues(d, p, 10)
        tau = spectrum.tau
        # sign changes exactly once on [p, inf)
        xs = np.linspace(p, 4 * tau, 200)
        signs = np.sign([trace_gap(x, r, p, gamma) for x in xs])
        changes = np.count_nonzero(np.diff(signs) != 0)
        assert changes == 1


class TestMpLaw:
    def test_edges(self):
        assert mp_edges(1.0) == (0.0, 4.0)
        assert mp_edges(4.0) == (1.0, 9.0)
        assert mp_edges(0.0) == (1.0, 1.0)
        with pytest.raises(DomainError):
            mp_edges(-0.1)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0, 10.0])
    def test_density_mass(self, gamma):
        from scipy.integrate import quad

        law = MpLaw.from_gamma(gamma)
        mass, _ = quad(
            lambda x: float(law.density(x)), law.a, law.b, limit=200
        )
        assert mass == pytest.approx(1 - law.point_mass_at_zero, abs=1e-6)

    def test_point_mass(self):
        assert MpLaw.from_gamma(0.5).point_mass_at_zero == 0.0
        assert MpLaw.from_gamma(4.0).point_mass_at_zero == pytest.approx(0.75)


class TestMpIntegral:
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 4.0, 100.0])
    def test_first_moment_is_one(self, gamma):
        assert mp_integral(lambda x: x, gamma) == pytest.approx(1.0, abs=1e-8)

    def test_zero_function(self):
        assert mp_integral(lambda x: 0.0, 2.0) == 0.0

    @pytest.mark.parametrize(
        "lam,gamma",
        [(8.0, 1.0), (3.0, 0.5), (44.0, 100.0), (10.0, 4.0), (30.0, 20.0)],
    )
    def test_resolvent_moment_identity(self, lam, gamma):
        # integral of x / (limit - x)^2 equals 1 / ((lam-1)^2 - gamma)
        assert lam > 1 + math.sqrt(gamma)
        rho = sample_eigenvalue_limit(lam, gamma)
        value = mp_integral(lambda x: x / (rho - x) ** 2, gamma)
        assert value == pytest.approx(1 / ((lam - 1) ** 2 - gamma), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            mp_integral(lambda x: x, 0.0)
