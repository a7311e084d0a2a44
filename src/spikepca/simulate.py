"""Seeded simulation harness: data generators, empirical estimators, and
experiment drivers that benchmark the asymptotic estimators.

All randomness flows through counter-based Philox streams keyed by
(seed, design, cell, replicate), and normal and chi-square variates are
produced by inverse-CDF from 53-bit uniforms, so every run is
reproducible byte for byte and replicates can be evaluated in any order
(or in parallel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._workers import fill_rows, one_blas_thread
# nothing here calls pc_scores: it stays bound for the spikepca.simulate
# entry of perfbench/tracer.py's BINDINGS, until ROADMAP item 3(a) retires it
from .eigen import pc_scores, project, sample_eigen
from .errors import (
    DegenerateInput,
    DimensionError,
    DomainError,
)
from .matrix_io import DataMatrix, _csv
from .model import component_estimates, fit, pcr_fit, pcr_mse, pcr_predict, predict
from .spiked import (
    eigenvector_angle,
    rescale_eigenvalues,
    score_angle,
    shrinkage_factor,
)

_DESIGN_IDS = {"intro": 0, "two_spike": 1, "pcr": 2}


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream addressed by up to four small integers."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if len(path) > 4:
        raise ValueError("at most 4 path components")
    key = 0
    for part in path:
        if not 0 <= part < 2**16:
            raise ValueError(f"path component {part} out of range [0, 65535]")
        key = (key << 16) | part
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
    )


def _uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Strictly interior 53-bit uniforms on (0, 1), the source of every variate."""
    bits = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return (bits.astype(np.float64) + 0.5) * 2.0**-53


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """N(0,1) variates via inverse-CDF of strictly interior 53-bit uniforms."""
    from scipy.special import ndtri

    return ndtri(_uniform(rng, shape))


def _as_rng(seed_or_rng, design: str) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return substream(int(seed_or_rng), _DESIGN_IDS[design], 0, 0)


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------


def _stratum_means(rng: np.random.Generator, n_strata: int, p: int) -> np.ndarray:
    """Per-stratum mean vectors, elements drawn from {-0.3, 0, 0.3}."""
    return 0.3 * (rng.integers(0, 3, size=(n_strata, p)).astype(np.float64) - 1.0)


def gen_intro(
    n_per_stratum=(50, 30, 20), p: int = 5000, seed=0
) -> tuple[DataMatrix, DataMatrix, np.ndarray]:
    """Stratified train/test pair sharing fixed stratum means.

    Each stratum mean vector is drawn once and reused for both sets;
    samples are the stratum mean plus isotropic noise of standard
    deviation 2. Returns (train, test, labels) with 1-based stratum
    labels describing the columns of either matrix.
    """
    rng = _as_rng(seed, "intro")
    mu = _stratum_means(rng, len(n_per_stratum), p)

    def draw():
        blocks = [
            mu[s][:, None] + 2.0 * standard_normal(rng, (p, nk))
            for s, nk in enumerate(n_per_stratum)
        ]
        return DataMatrix(np.hstack(blocks))

    train = draw()
    test = draw()
    labels = np.repeat(np.arange(1, len(n_per_stratum) + 1), n_per_stratum)
    return train, test, labels


def gen_two_spike(n: int, gamma: float, seed=0) -> DataMatrix:
    """Two-spike test matrix with noise standard deviation 2.

    Rows are sqrt(s1) * z, sqrt(s2) * z, z, ..., all scaled by 2, with
    s1 = 4 (1 + sqrt(gamma)) and s2 = 2 (1 + sqrt(gamma)) and
    p = round(gamma * n). The population covariance is therefore
    4 * diag(s1, s2, 1, ..., 1): after rescaling absorbs the factor 4,
    the spikes sit exactly at s1 and s2 and the leading population
    eigenvectors are the first two coordinate axes.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if n < 4:
        raise DimensionError(f"need n >= 4, got {n}")
    if not (math.isfinite(gamma * n) and 3 <= _two_spike_p(gamma, n) <= 2**53):
        raise DimensionError(f"gamma * n = {gamma * n:g} must round to a p in [3, 2**53]")
    p = _two_spike_p(gamma, n)
    rng = _as_rng(seed, "two_spike")
    spike1, spike2 = two_spike_eigenvalues(gamma)
    X = 2.0 * standard_normal(rng, (p, n))
    X[0] *= math.sqrt(spike1)
    X[1] *= math.sqrt(spike2)
    return DataMatrix(X)


def _two_spike_p(gamma: float, n: int) -> int:
    """Variable count of the two-spike design with n samples."""
    return int(round(gamma * n))


def _two_spike_proxy(rng: np.random.Generator, gamma: float, n: int) -> np.ndarray:
    """A joint train/test draw of gen_two_spike in rotated coordinates.

    Rotating the p - 2 noise coordinates of the p x 2n draw by the Q of
    their QR decomposition keeps the two spike rows and the Gram matrix,
    so it changes no sign- and rotation-invariant estimator, and leaves
    an r x 2n upper-trapezoidal noise block R, r = min(p - 2, 2n). Its
    first r columns are the triangular Bartlett factor of 4 Wishart_r(
    p - 2, I) (Bartlett 1933), and, as Q depends on those columns alone,
    the rest are iid N(0, 4). So R = 2 L^T is drawn directly: L is 2n x r
    with N(0, 1) entries below the diagonal and sqrt(chi^2_{p-2-i}) on
    diagonal entry i, the chi-square variates by inverse CDF of the
    53-bit uniforms. Returns the (r + 2) x 2n matrix [spike rows; R],
    train samples first.
    """
    from scipy.special import chdtri

    p, m = _two_spike_p(gamma, n), 2 * n
    r = min(p - 2, m)
    X = np.zeros((r + 2, m))
    X[:2] = 2.0 * standard_normal(rng, (2, m))
    X[:2] *= np.sqrt(two_spike_eigenvalues(gamma))[:, None]
    # L is a view of R, filled in place; a boolean mask takes its values
    # in L's row-major order
    L = X[2:].T
    below = np.tri(m, r, -1, dtype=bool)
    L[below] = standard_normal(rng, np.count_nonzero(below))
    L[np.diag_indices(r)] = np.sqrt(chdtri(p - 2 - np.arange(r), _uniform(rng, r)))
    X[2:] *= 2.0
    return X


def two_spike_eigenvalues(gamma: float) -> tuple[float, float]:
    """The two population spike eigenvalues of the two-spike design."""
    return 4 * (1 + math.sqrt(gamma)), 2 * (1 + math.sqrt(gamma))


def gen_pcr(n: int, g: int, p: int = 5000, seed=0) -> tuple[DataMatrix, np.ndarray]:
    """Expression-style regression design with g informative variables.

    The first g variables have mean 3 for the first n/2 samples and 4
    for the rest; the remaining variables have mean 3.5; all noise is
    N(0, 2^2). The outcome is twice the mean of the informative block
    plus N(0, 1) noise.
    """
    if n % 2 != 0:
        raise DomainError(f"n must be even, got {n}")
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    if not 1 <= g < p:
        raise DomainError(f"g must satisfy 1 <= g < p, got g={g}, p={p}")
    rng = _as_rng(seed, "pcr")
    X = np.empty((p, n))
    X[:g, : n // 2] = 3.0
    X[:g, n // 2 :] = 4.0
    X[g:, :] = 3.5
    X += 2.0 * standard_normal(rng, (p, n))
    y = (2.0 / g) * X[:g].sum(axis=0) + standard_normal(rng, n)
    return DataMatrix(X), y


# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------


def empirical_shrinkage(train_scores, test_scores) -> float:
    """Root ratio of summed squared predicted to summed squared sample scores."""
    q = np.asarray(test_scores, dtype=np.float64)
    s = np.asarray(train_scores, dtype=np.float64)
    if q.shape != s.shape or q.ndim != 1:
        raise DimensionError("score vectors must be 1-D of equal length")
    denom = float(s @ s)
    if denom == 0:
        raise DegenerateInput("training scores are all zero")
    return math.sqrt(float(q @ q) / denom)


def empirical_angle(u, e) -> float:
    """|cos| of the angle between two vectors (normalized internally)."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(e, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("vectors must be 1-D of equal length")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0 or nb == 0:
        raise DegenerateInput("cannot take the angle of a zero vector")
    return abs(float(a @ b)) / (na * nb)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _mean_sd(values) -> tuple[float, float, int]:
    """Exact-sum mean and population SD over the non-NaN entries."""
    finite = [float(v) for v in values if not math.isnan(v)]
    used = len(finite)
    if used == 0:
        return math.nan, math.nan, 0
    mean = math.fsum(finite) / used
    var = math.fsum((v - mean) ** 2 for v in finite) / used
    return mean, math.sqrt(var), used


@dataclass(frozen=True)
class EstimatorCell:
    """Per-replicate values of one estimator in one design cell."""

    design: str
    estimator: str
    component: int | None
    gamma: float | None
    n: int | None
    g: int | None
    analytic: float | None
    values: tuple

    @property
    def stats(self) -> tuple[float, float, int]:
        return _mean_sd(self.values)


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated simulation results; serializes deterministically."""

    design: str
    seed: int
    replicates: int
    cells: tuple = field(default_factory=tuple)

    CSV_HEADER = "design,gamma,n,g,component,estimator,analytic,mean,sd,used,replicates"

    def cell(self, estimator: str, component=None, gamma=None, n=None, g=None):
        for c in self.cells:
            if (
                c.estimator == estimator
                and (component is None or c.component == component)
                and (gamma is None or c.gamma == gamma)
                and (n is None or c.n == n)
                and (g is None or c.g == g)
            ):
                return c
        raise KeyError(f"no cell for estimator={estimator!r}")

    def to_csv(self) -> str:
        rows = [(self.CSV_HEADER,)]
        for c in self.cells:
            rows.append((c.design, c.gamma, c.n, c.g, c.component, c.estimator,
                         c.analytic, *c.stats, self.replicates))
        return _csv(rows)

    def summary(self) -> str:
        lines = [
            f"{self.design}: {self.replicates} replicate(s), seed {self.seed}"
        ]
        for c in self.cells:
            mean, sd, used = c.stats
            label = []
            if c.gamma is not None:
                label.append(f"gamma={c.gamma:g}")
            if c.n is not None:
                label.append(f"n={c.n}")
            if c.g is not None:
                label.append(f"g={c.g}")
            if c.component is not None:
                label.append(f"pc{c.component}")
            ref = "" if c.analytic is None else f"  [analytic {c.analytic:.4f}]"
            lines.append(
                f"  {' '.join(label)} {c.estimator}: "
                f"{mean:.4f} ({sd:.4f}, {used} used){ref}"
            )
        return "\n".join(lines) + "\n"


def _run_study(design, replicate, keys, cells, replicates, seed, workers, analytic=None):
    """Report of ``replicate(rng, **cell)`` over the replicates of each cell.

    Replicate rep of the i-th cell draws from substream(seed, design, i,
    rep), so the report is the same in any order and at any worker
    count. ``replicate`` returns {(estimator, component): value} for
    each of the study's fixed ``keys``, which the report lists in that
    order; a cell's gamma, n and g label its rows, and
    ``analytic(estimator, component, gamma)`` gives the reference.

    ``workers`` processes share each cell's replicates, which run with
    BLAS at one thread (fill_rows), so the report does not depend on the
    BLAS thread count either. A replicate that raises in a worker is run
    again in this process, so it raises as it does with one worker.
    scipy.special, whose ndtri and chdtri make every variate, is loaded
    before the workers fork, so they inherit it instead of each loading
    it again.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if replicates > 2**16:
        # substream addresses a replicate with one 16-bit path component
        raise ValueError(f"replicates must be <= 65536, got {replicates}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    import scipy.special  # loaded once, so the forked workers inherit it

    design_id = _DESIGN_IDS[design]
    rows = []
    for index, cell in enumerate(cells):

        def fill(values, lo, hi):
            for rep in range(lo, hi):
                result = replicate(substream(seed, design_id, index, rep), **cell)
                values[rep] = [result[key] for key in keys]
            return True

        values = fill_rows(replicates, len(keys), workers, fill)
        for (estimator, component), column in zip(keys, values.T):
            rows.append(
                EstimatorCell(
                    design=design,
                    estimator=estimator,
                    component=component,
                    gamma=cell.get("gamma"),
                    n=cell["n"],
                    g=cell.get("g"),
                    analytic=None
                    if analytic is None
                    else analytic(estimator, component, cell["gamma"]),
                    values=tuple(column.tolist()),
                )
            )
    return SimulationReport(
        design=design, seed=seed, replicates=replicates, cells=tuple(rows)
    )


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


# A study's estimator keys, in report order, are fixed, so its replicate
# buffer is sized before any replicate is drawn.
_TWO_SPIKE_KEYS = tuple(
    (name, component)
    for name in (
        "evec_angle_empirical",
        "evec_angle_plugin",
        "score_angle_empirical",
        "score_angle_plugin",
        "shrinkage_empirical",
        "shrinkage_plugin",
    )
    for component in (1, 2)
)


def _two_spike_estimators(U, spike_rows, train_scores, test_scores, estimates) -> dict:
    """The six Tables 1-2 estimators per component of one fitted draw.

    U holds the two kept eigenvectors in coordinates whose first two axes
    are the population spike directions, spike_rows the train values on
    those axes, and estimates is component_estimates' output.
    """
    shrink, corr, angle, identifiable = estimates
    per_component = []
    for v in range(2):
        axis = np.zeros(U.shape[0])
        axis[v] = 1.0
        ident = bool(identifiable[v])
        per_component.append(
            {
                "evec_angle_empirical": empirical_angle(U[:, v], axis),
                "evec_angle_plugin": angle[v] if ident else math.nan,
                "score_angle_empirical": empirical_angle(
                    spike_rows[v], train_scores[v]
                ),
                "score_angle_plugin": corr[v] if ident else math.nan,
                "shrinkage_empirical": empirical_shrinkage(
                    train_scores[v], test_scores[v]
                ),
                "shrinkage_plugin": shrink[v],
            }
        )
    return {(name, v): per_component[v - 1][name] for name, v in _TWO_SPIKE_KEYS}


def _two_spike_replicate(rng, gamma, n) -> dict:
    """Tables 1-2 estimators from one rotated train/test draw (_two_spike_proxy)."""
    X = _two_spike_proxy(rng, gamma, n)
    train, test = X[:, :n], X[:, n:]
    eig = sample_eigen(DataMatrix(train), 2)
    # the proxy has at most 2n + 2 rows, so rescale with the design's own p
    spectrum = rescale_eigenvalues(eig.d, _two_spike_p(gamma, n), n)
    return _two_spike_estimators(
        eig.U, train, project(eig.U, train), project(eig.U, test),
        component_estimates(spectrum, 2),
    )


_TWO_SPIKE_LIMITS = {
    "evec_angle": eigenvector_angle,
    "score_angle": score_angle,
    "shrinkage": shrinkage_factor,
}


def _two_spike_analytic(estimator: str, component: int, gamma: float) -> float:
    limit = _TWO_SPIKE_LIMITS[estimator.rsplit("_", 1)[0]]
    return limit(two_spike_eigenvalues(gamma)[component - 1], gamma)


def run_table12(
    gammas=(1.0, 20.0, 100.0),
    ns=(100, 200),
    replicates: int = 200,
    seed: int = 0,
    workers: int = 1,
) -> SimulationReport:
    """Two-spike benchmark of the angle and shrinkage estimators.

    Per replicate: draw independent train/test sets of n samples, fit
    on the train set (raw second moments, two retained components), and
    record the empirical and plug-in estimators next to their analytic
    values. Replicates where a component is classified as noise
    contribute no plug-in value (the `used` count reflects it). Each
    replicate draws the rotated data of _two_spike_proxy instead of the
    p x n matrices. Raises ValueError for a cell gen_two_spike would
    reject, or whose p exceeds 2**53, before any draw. ``workers``
    processes share each cell's replicates (see _run_study); the report
    is the same at any count.
    """
    grid = [{"gamma": float(gamma), "n": int(n)} for gamma in gammas for n in ns]
    for cell in grid:
        gamma, n = cell["gamma"], cell["n"]
        if not (math.isfinite(gamma) and gamma > 0):
            problem = "gamma must be positive and finite"
        elif n < 4:
            problem = "need n >= 4"
        elif not (math.isfinite(gamma * n) and 3 <= _two_spike_p(gamma, n) <= 2**53):
            # rescaling takes p as a double, which holds every integer up to 2**53
            problem = "gamma * n must round to a finite p in [3, 2**53]"
        else:
            continue
        raise ValueError(f"table12 cell gamma={gamma:g}, n={n}: {problem}")
    return _run_study(
        "two_spike", _two_spike_replicate, _TWO_SPIKE_KEYS, grid, replicates, seed,
        workers, analytic=_two_spike_analytic,
    )


_PCR_KEYS = (("mse_test_unadjusted", 1), ("mse_test_adjusted", 1), ("mse_train", 1))


def _pcr_replicate(rng, n, g, p) -> dict:
    """Table 3 test and train MSEs from one train/test draw of the PCR design."""
    X_train, y_train = gen_pcr(n, g, p, rng)
    X_test, y_test = gen_pcr(n, g, p, rng)
    model = fit(X_train, mode="center", k=1)
    s_train = predict(model, X_train).naive[0]
    coeffs = pcr_fit(s_train, y_train)
    scores = predict(model, X_test)
    return dict(zip(_PCR_KEYS, (
        pcr_mse(y_test, pcr_predict(coeffs, scores.naive[0])),
        pcr_mse(y_test, pcr_predict(coeffs, scores.adjusted[0])),
        pcr_mse(y_train, pcr_predict(coeffs, s_train)),
    )))


def run_table3(
    cells=((100, 300), (200, 300)),
    replicates: int = 100,
    seed: int = 0,
    p: int = 5000,
    workers: int = 1,
) -> SimulationReport:
    """PC-regression benchmark: test MSE with and without adjustment.

    Per replicate: draw independent train/test sets from the same
    (n, g) configuration, fit a one-component model on the centered
    train set, regress the outcome on the first PC score, and evaluate
    test MSE using naive and bias-adjusted predicted scores. Raises
    ValueError for a cell gen_pcr would reject, before any draw.
    ``workers`` processes share each cell's replicates (see _run_study);
    the report is the same at any count.
    """
    grid = [{"n": int(n), "g": int(g), "p": p} for n, g in cells]
    for cell in grid:
        n, g = cell["n"], cell["g"]
        if n < 2:
            problem = "need n >= 2"
        elif n % 2:
            problem = "n must be even"
        elif not 1 <= g < p:
            problem = f"g must satisfy 1 <= g < p={p}"
        else:
            continue
        raise ValueError(f"table3 cell n={n}, g={g}: {problem}")
    return _run_study("pcr", _pcr_replicate, _PCR_KEYS, grid, replicates, seed, workers)


INTRO_SCORES_HEADER = "set,stratum,pc1,pc2,pc1_adj,pc2_adj"


def run_intro(
    seed: int = 1, p: int = 5000, n_per_stratum=(50, 30, 20)
) -> tuple[SimulationReport, str]:
    """Single seeded run of the stratified shrinkage demonstration.

    Fits two components on the raw training matrix, records the plug-in
    shrinkage estimates and the test/train RMS score ratios, and dumps
    all four score sets (train/test x naive/adjusted) as CSV for
    plotting. The fit and predictions run with BLAS at one thread, so the
    output does not depend on the BLAS thread count.
    """
    rng = substream(seed, _DESIGN_IDS["intro"], 0, 0)
    train, test, labels = gen_intro(n_per_stratum, p, rng)
    with one_blas_thread():
        model = fit(train, mode="none", k=2)
        train_pred = predict(model, train)
        test_pred = predict(model, test)

    cells = []
    for v in range(2):
        rms_train = math.sqrt(float(np.mean(train_pred.naive[v] ** 2)))
        rms_test = math.sqrt(float(np.mean(test_pred.naive[v] ** 2)))
        rms_test_adj = math.sqrt(float(np.mean(test_pred.adjusted[v] ** 2)))
        for name, value in (
            ("shrinkage_plugin", model.shrinkage[v]),
            ("rms_ratio_naive", rms_test / rms_train),
            ("rms_ratio_adjusted", rms_test_adj / rms_train),
        ):
            cells.append(
                EstimatorCell(
                    design="intro",
                    estimator=name,
                    component=v + 1,
                    gamma=p / train.n,
                    n=train.n,
                    g=None,
                    analytic=None,
                    values=(float(value),),
                )
            )
    report = SimulationReport(
        design="intro", seed=seed, replicates=1, cells=tuple(cells)
    )

    rows = [(INTRO_SCORES_HEADER,)]
    for name, pred in (("train", train_pred), ("test", test_pred)):
        rows += zip([name] * pred.m, labels, *pred.naive, *pred.adjusted)
    return report, _csv(rows)
