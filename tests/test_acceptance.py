"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The simulation
criteria are deterministic for the seeds fixed here; the two long ones
(criteria 2 and 3) take a few minutes combined.
"""

import math

import numpy as np
import pytest

from spikepca import (
    DataMatrix,
    debias_eigenvalue,
    eigenvector_angle,
    fit,
    gen_two_spike,
    jackknife_shrinkage,
    pc_scores,
    predict,
    rescale_eigenvalues,
    run_intro,
    run_table3,
    run_table12,
    sample_eigen,
    sample_eigenvalue_limit,
    score_angle,
    shrinkage_factor,
)
from spikepca.simulate import substream, two_spike_eigenvalues
from mp_oracles import mp_integral, trace_gap

pytestmark = pytest.mark.acceptance

SEED = 0
WORKERS = 4


def _criterion(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} | {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_analytic_table_columns():
    """Closed-form angle/factor columns match the reference values to 2 decimals."""
    reference = {
        # gamma: (evec pc1/pc2, score pc1/pc2, factor pc1/pc2)
        1.0: ((0.93, 0.82), (0.99, 0.94), (0.88, 0.75)),
        20.0: ((0.70, 0.51), (0.98, 0.89), (0.51, 0.33)),
        100.0: ((0.53, 0.37), (0.97, 0.88), (0.30, 0.17)),
        500.0: ((0.38, 0.25), (0.97, 0.87), (0.16, 0.08)),
    }
    mismatches = []
    for gamma, (evec, score, factor) in reference.items():
        spikes = two_spike_eigenvalues(gamma)
        for v, lam in enumerate(spikes):
            checks = [
                ("evec", eigenvector_angle(lam, gamma), evec[v]),
                ("score", score_angle(lam, gamma), score[v]),
                ("factor", shrinkage_factor(lam, gamma), factor[v]),
            ]
            for tag, value, expected in checks:
                if round(value, 2) != expected:
                    mismatches.append((gamma, v + 1, tag, value, expected))
    _criterion(
        "criterion 1 (analytic table columns)",
        not mismatches,
        f"{24 - len(mismatches)}/24 values match to two decimals"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_2_simulation_tables():
    """200-replicate cell means sit within 0.04 of the analytic values."""
    report = run_table12(
        gammas=(1.0, 20.0, 100.0),
        ns=(100, 200),
        replicates=200,
        seed=SEED,
        workers=WORKERS,
    )
    worst = 0.0
    worst_cell = ""
    failures = []
    for cell in report.cells:
        mean, _, _ = cell.stats
        dev = abs(mean - cell.analytic)
        if dev > worst:
            worst = dev
            worst_cell = (
                f"{cell.estimator} gamma={cell.gamma:g} n={cell.n} pc{cell.component}"
            )
        if dev > 0.04:
            failures.append((cell.estimator, cell.gamma, cell.n, cell.component, dev))
    _criterion(
        "criterion 2 (simulation tables, 200 reps)",
        not failures,
        f"worst |mean - analytic| = {worst:.4f} at {worst_cell}"
        + (f"; over band: {failures}" if failures else ""),
    )


def test_criterion_3_pc_regression():
    """Test MSE bands and the adjusted-beats-unadjusted rate."""
    report = run_table3(
        cells=((100, 300), (200, 300)), replicates=100, seed=SEED, workers=WORKERS
    )
    targets = {(100, 300): (1.63, 1.17, 1.12), (200, 300): (1.39, 1.08, 1.07)}
    problems = []
    details = []
    for (n, g), (t_unadj, t_adj, t_train) in targets.items():
        unadj = report.cell("mse_test_unadjusted", n=n, g=g)
        adj = report.cell("mse_test_adjusted", n=n, g=g)
        train = report.cell("mse_train", n=n, g=g)
        for cell, target in ((unadj, t_unadj), (adj, t_adj), (train, t_train)):
            mean = cell.stats[0]
            if abs(mean - target) > 0.15:
                problems.append((cell.estimator, n, mean, target))
        frac = np.mean(
            [a < u for a, u in zip(adj.values, unadj.values)]
        )
        if frac < 0.90:
            problems.append(("frac_adjusted_better", n, frac, 0.90))
        details.append(
            f"n={n}: unadj {unadj.stats[0]:.3f}/{t_unadj}, adj {adj.stats[0]:.3f}/"
            f"{t_adj}, train {train.stats[0]:.3f}/{t_train}, frac {frac:.2f}"
        )
    _criterion(
        "criterion 3 (PC regression MSE)",
        not problems,
        "; ".join(details) + (f"; out of band: {problems}" if problems else ""),
    )


def test_criterion_4_intro_experiment():
    """Seeded stratified run: plug-in shrinkage and RMS ratios."""
    report, _ = run_intro(seed=1)
    targets = {1: 0.465, 2: 0.329}
    problems = []
    details = []
    for comp, target in targets.items():
        plug = report.cell("shrinkage_plugin", component=comp).values[0]
        naive = report.cell("rms_ratio_naive", component=comp).values[0]
        adjusted = report.cell("rms_ratio_adjusted", component=comp).values[0]
        if abs(plug - target) > 0.06:
            problems.append((f"pc{comp} plug-in", plug, target))
        if abs(naive - plug) > 0.06:
            problems.append((f"pc{comp} naive ratio", naive, plug))
        if abs(adjusted - 1.0) > 0.10:
            problems.append((f"pc{comp} adjusted ratio", adjusted, 1.0))
        details.append(
            f"pc{comp}: plug {plug:.3f} (ref {target}), naive ratio {naive:.3f}, "
            f"adjusted ratio {adjusted:.3f}"
        )
    _criterion(
        "criterion 4 (intro experiment)",
        not problems,
        "; ".join(details) + (f"; out of band: {problems}" if problems else ""),
    )


def test_criterion_5_rescaling_consistency():
    """Rescaled top eigenvalue debiases to the population spike (noise sd 2)."""
    problems = []
    details = []
    for gamma in (1.0, 20.0):
        lam1 = two_spike_eigenvalues(gamma)[0]
        edge = (1 + math.sqrt(gamma)) ** 2
        estimates = []
        converged = 0
        for rep in range(100):
            X = gen_two_spike(200, gamma, substream(SEED, 1, 50 + int(gamma), rep))
            eig = sample_eigen(X, 1)
            spectrum = rescale_eigenvalues(eig.d, X.p, X.n)
            converged += int(spectrum.converged and spectrum.iterations <= 500)
            if spectrum.d_hat[0] > edge:
                estimates.append(debias_eigenvalue(spectrum.d_hat[0], spectrum.gamma))
        mean = float(np.mean(estimates))
        rel = abs(mean - lam1) / lam1
        if rel > 0.05:
            problems.append((f"gamma={gamma} relative error", rel))
        if converged < 100:
            problems.append((f"gamma={gamma} converged", converged))
        details.append(
            f"gamma={gamma:g}: mean {mean:.3f} vs {lam1:.3f} (rel {rel:.4f}), "
            f"converged {converged}/100"
        )
    _criterion(
        "criterion 5 (rescaling consistency)",
        not problems,
        "; ".join(details) + (f"; failures: {problems}" if problems else ""),
    )


def test_criterion_6_property_suites():
    """Analytic identities, decomposition invariants, and fit round trips."""
    problems = []

    # inverse round trip to 1e-10
    for gamma in (0.1, 1.0, 20.0, 100.0, 500.0):
        t = 1 + math.sqrt(gamma)
        for lam in (1.01 * t, 2 * t, 10 * t):
            d = sample_eigenvalue_limit(lam, gamma)
            if abs(debias_eigenvalue(d, gamma) - lam) > 1e-10 * max(1.0, lam):
                problems.append(("inverse round trip", gamma, lam))

    # shrinkage-ratio identity to 1e-10
    for gamma in (0.1, 1.0, 20.0, 100.0, 500.0):
        t = 1 + math.sqrt(gamma)
        for lam in (1.01 * t, 2 * t, 10 * t):
            phi = eigenvector_angle(lam, gamma)
            lhs = math.sqrt(
                (phi**2 * (lam - 1) + 1) / sample_eigenvalue_limit(lam, gamma)
            )
            if abs(lhs - shrinkage_factor(lam, gamma)) > 1e-10:
                problems.append(("shrinkage-ratio identity", gamma, lam))

    # MP resolvent-moment identity to 1e-6
    for lam, gamma in ((8.0, 1.0), (3.0, 0.5), (44.0, 100.0), (10.0, 4.0), (30.0, 20.0)):
        rho = sample_eigenvalue_limit(lam, gamma)
        value = mp_integral(lambda x, rho=rho: x / (rho - x) ** 2, gamma)
        if abs(value - 1 / ((lam - 1) ** 2 - gamma)) > 1e-6:
            problems.append(("MP integral identity", lam, gamma))

    # fixed-point residual: concavity and unique root
    p = 20
    d = np.concatenate([[200.0, 50.0], np.linspace(2.0, 0.2, p - 2)])
    r = d / d.sum()
    gamma = 2.0
    if not trace_gap(p, r, p, gamma) > 0:
        problems.append(("trace_gap positive at p",))
    spectrum = rescale_eigenvalues(d, p, 10)
    xs = np.linspace(p, 4 * spectrum.tau, 200)
    signs = np.sign([trace_gap(x, r, p, gamma) for x in xs])
    if np.count_nonzero(np.diff(signs) != 0) != 1:
        problems.append(("trace_gap unique root",))
    xs = np.linspace(1.05 * spectrum.tau, 3 * spectrum.tau, 40)  # fixed spike set here
    vals = np.array([trace_gap(x, r, p, gamma) for x in xs])
    if not (vals[2:] - 2 * vals[1:-1] + vals[:-2] <= 1e-9).all():
        problems.append(("trace_gap concavity",))

    # orthonormality / trace conservation at 1e-8
    rng = np.random.default_rng(SEED)
    for p_dim, n_dim in ((5, 10), (50, 100), (2000, 100)):
        X = DataMatrix(rng.standard_normal((p_dim, n_dim)))
        eig = sample_eigen(X, min(p_dim, n_dim))
        if np.abs(eig.U.T @ eig.U - np.eye(eig.k)).max() >= 1e-8:
            problems.append(("orthonormality", p_dim, n_dim))
        trace = np.sum(X.values**2) / n_dim
        if abs(eig.d.sum() - trace) > 1e-8 * trace:
            problems.append(("trace conservation", p_dim, n_dim))

    # fit/predict training round trip to 1e-10
    X = gen_two_spike(150, 2.0, seed=5)
    model = fit(X, mode="center", k=2)
    from spikepca import standardize

    Xs, _ = standardize(X, "center")
    scores = pc_scores(Xs, model.eig)
    if np.abs(predict(model, X).naive - scores).max() > 1e-10:
        problems.append(("fit/predict round trip",))

    # scale equivariance of fit under c * X
    c = 4.0
    base = fit(X, mode="none", k=2)
    scaled = fit(DataMatrix(c * X.values), mode="none", k=2)
    if scaled.k_spikes != base.k_spikes:
        problems.append(("scale equivariance: spike count",))
    if np.abs(scaled.eig.U - base.eig.U).max() > 1e-8:
        problems.append(("scale equivariance: eigenvectors",))
    if not np.allclose(scaled.spectrum.lambda_hat, base.spectrum.lambda_hat, rtol=1e-8):
        problems.append(("scale equivariance: population estimates",))
    if not np.allclose(scaled.shrinkage, base.shrinkage, rtol=1e-8, equal_nan=True):
        problems.append(("scale equivariance: shrinkage",))
    if not np.allclose(
        predict(scaled, DataMatrix(c * X.values)).naive,
        c * predict(base, X).naive,
        rtol=1e-8,
    ):
        problems.append(("scale equivariance: scores",))

    _criterion(
        "criterion 6 (property suites)",
        not problems,
        "identities, invariants, and round trips all hold"
        if not problems
        else f"failures: {problems}",
    )


def test_criterion_7_jackknife_agreement():
    """Leave-one-out estimate agrees with the plug-in shrinkage factor."""
    X = gen_two_spike(100, 1.0, seed=3)
    model = fit(X, mode="none", k=1)
    estimate = jackknife_shrinkage(X, "none", 1)
    gap = abs(estimate.value - model.shrinkage[0])
    _criterion(
        "criterion 7 (jackknife agreement)",
        gap <= 0.08,
        f"jackknife {estimate.value:.4f} vs plug-in {model.shrinkage[0]:.4f} "
        f"(|gap| {gap:.4f}, {estimate.used} used, {estimate.excluded} excluded)",
    )
