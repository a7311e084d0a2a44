"""End-to-end fit / predict pipeline with shrinkage-adjusted predictions.

fit() standardizes, decomposes the sample covariance, rescales the
spectrum, classifies spikes, and attaches per-component shrinkage and
fidelity estimates. predict() maps new samples into the trained
coordinates and returns both the naive scores and the bias-adjusted
ones. A leave-one-out jackknife provides an empirical check on the
asymptotic shrinkage factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import (
    RANK_TOL,
    SampleEigen,
    descending_eigh,
    downdate_leading,
    pc_scores,
    project,
    sample_eigen,
)
from .errors import (
    DegenerateRegressor,
    DimensionError,
    DomainError,
    NotIdentifiable,
)
from .matrix_io import DataMatrix, Preprocessing, standardize
from .spiked import (
    RescaledSpectrum,
    _shrinkage,
    eigenvector_angle,
    rescale_eigenvalues,
    score_angle,
)


@dataclass(frozen=True)
class FittedPcModel:
    """Fitted spiked-model PCA.

    Per retained component v the model carries the shrinkage factor
    s_v, the estimated |cos|-angle between sample and population
    eigenvectors, and the estimated correlation between sample and
    population scores; the score adjustment 1/s_v is derived from the
    shrinkage. For components classified as noise (``identifiable``
    False) shrinkage and adjustment are NaN and both angle estimates
    are 0.
    """

    prep: Preprocessing
    eig: SampleEigen
    spectrum: RescaledSpectrum
    shrinkage: np.ndarray
    score_corr: np.ndarray
    evec_angle: np.ndarray
    identifiable: np.ndarray
    n_samples: int

    @property
    def p(self) -> int:
        return self.eig.p

    @property
    def n(self) -> int:
        return self.n_samples

    @property
    def gamma(self) -> float:
        return self.eig.gamma

    @property
    def k(self) -> int:
        """Number of retained components."""
        return self.eig.k

    @property
    def k_spikes(self) -> int:
        return self.spectrum.k

    @property
    def adjustment(self) -> np.ndarray:
        """Score adjustment 1/shrinkage per component; NaN for noise."""
        return np.where(self.identifiable, 1.0 / self.shrinkage, np.nan)


@dataclass(frozen=True)
class PredictionScores:
    """Naive and bias-adjusted predicted scores, one row per component.

    Rows of ``adjusted`` equal naive * adjustment for identifiable
    (spike) components and mirror the naive row, flagged, otherwise.
    """

    naive: np.ndarray
    adjusted: np.ndarray
    identifiable: np.ndarray

    @property
    def k(self) -> int:
        return self.naive.shape[0]

    @property
    def m(self) -> int:
        return self.naive.shape[1]


def component_estimates(spectrum: RescaledSpectrum, k: int):
    """Shrinkage/angle estimates and spike flags for the first k components.

    Derived from the rescaled spectrum alone; used by fit() and usable
    to re-derive the stored estimates of a persisted model. The spikes
    are the first spectrum.k components, the rule read_model() applies.
    """
    shrink = np.full(k, np.nan)
    corr = np.zeros(k)
    angle = np.zeros(k)
    identifiable = np.arange(k) < spectrum.k
    gamma = spectrum.gamma
    for v in range(min(k, spectrum.k)):
        # a spike at the edge debiases to exactly 1 + sqrt(gamma), where
        # shrinkage_factor would raise: its shrinkage is 1 / (1 + sqrt(gamma))
        lam = spectrum.lambda_hat[v]
        shrink[v] = _shrinkage(lam, gamma)
        corr[v] = score_angle(lam, gamma)
        angle[v] = eigenvector_angle(lam, gamma)
    return shrink, corr, angle, identifiable


def fit(X: DataMatrix, mode: str = "center", k="auto") -> FittedPcModel:
    """Fit the spiked-model PCA pipeline to a training matrix.

    Runs standardize -> eigendecomposition (all min(p, n) eigenvalues)
    -> eigenvalue rescaling with gamma = p / n -> eigenvectors of the
    retained components only -> per-component estimates. With k="auto"
    the number of detected spikes is retained (minimum 1).
    """
    if X.n < 3:
        raise DimensionError(f"need at least 3 samples to fit, got {X.n}")
    m = min(X.p, X.n)
    auto = isinstance(k, str)
    if auto:
        if k != "auto":
            raise ValueError(f"k must be an integer or 'auto', got {k!r}")
    else:
        k_request = int(k)
        if not 1 <= k_request <= m:
            raise DimensionError(f"k must be in [1, {m}], got {k_request}")

    Xs, prep = standardize(X, mode)
    spectrum = None

    def k_keep(d):
        nonlocal spectrum
        spectrum = rescale_eigenvalues(d, X.p, X.n)
        return max(spectrum.k, 1) if auto else k_request

    # sample_eigen calls k_keep on the eigenvalues before it builds any
    # eigenvector, and then builds min(k_keep, numerical rank) of them.
    eig = sample_eigen(Xs, k_keep)
    shrink, corr, angle, identifiable = component_estimates(spectrum, eig.k)
    return FittedPcModel(
        prep=prep,
        eig=eig,
        spectrum=spectrum,
        shrinkage=shrink,
        score_corr=corr,
        evec_angle=angle,
        identifiable=identifiable,
        n_samples=X.n,
    )


def predict(model: FittedPcModel, X_new) -> PredictionScores:
    """Naive and bias-adjusted predicted scores for new samples.

    ``X_new`` is a p x m array (or DataMatrix) in the original,
    unstandardized coordinates; the model's preprocessing is applied to
    each column before projection.
    """
    arr = X_new.values if isinstance(X_new, DataMatrix) else np.asarray(
        X_new, dtype=np.float64
    )
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != model.p:
        raise DimensionError(
            f"expected a {model.p} x m matrix, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise DomainError("new samples contain non-finite values")
    naive = project(model.eig.U, model.prep.apply(arr))
    adjusted = naive.copy()
    mask = model.identifiable
    adjusted[mask] = naive[mask] * model.adjustment[mask, None]
    return PredictionScores(
        naive=naive, adjusted=adjusted, identifiable=mask.copy()
    )


@dataclass(frozen=True)
class JackknifeShrinkage:
    """Leave-one-out shrinkage estimate with its replicate accounting.

    ``plugin`` is the asymptotic (plug-in) shrinkage factor of the same
    component from the full-data fit, the value the estimate checks.
    """

    value: float
    used: int
    excluded: int
    plugin: float


def jackknife_shrinkage(
    X: DataMatrix, mode: str, component: int
) -> JackknifeShrinkage:
    """Leave-one-out empirical estimate of the shrinkage factor.

    For each sample j the model is fit, re-standardization included, to
    the other n-1 columns and the held-out column's naive score is
    predicted. The estimate is the root of mean squared predicted score
    over mean squared full-data sample score, the same quantity the
    asymptotic shrinkage factor describes. Replicates whose fit does
    not classify the component as a spike are excluded and counted.

    Modes none and center do not refit: leaving a sample out is a
    rank-one change of the scatter matrix. The jackknife costs two
    eigendecompositions of size min(p, n): the full-data fit's, for the
    plug-in and the in-sample scores, and one of the standardized
    scatter for the downdate basis (through the Gram matrix when
    p > n - 1). Each replicate then costs a secular-equation solve for
    the leading K eigenvalues of a diagonal-plus-rank-one matrix,
    O(K min(p, n)) per iteration, with K a few above the component.
    The exception is a sample holding nearly all of the scatter, whose
    replicate is refit. center_scale refits throughout, because its
    scales change with each left-out sample.
    """
    if X.n < 4:
        raise DimensionError(f"jackknife needs at least 4 samples, got {X.n}")
    if component < 1:
        raise DomainError(f"component must be >= 1, got {component}")
    Xs, _ = standardize(X, mode)
    # Xs is already standardized, so mode "none" reproduces fit(X, mode)
    # without standardizing a second time.
    full = fit(Xs, "none", k=component)
    if component > full.k_spikes:
        raise NotIdentifiable(
            f"component {component} is not a spike in the full-data fit "
            f"(k_spikes={full.k_spikes})"
        )
    sample_row = pc_scores(Xs, full.eig)[component - 1]
    mean_sq_sample = float(np.mean(sample_row**2))

    if mode == "center_scale":
        held_out = np.array([_refit_one(X, mode, component, j) for j in range(X.n)])
    else:
        held_out = _downdate_replicates(X, Xs.values, mode, component)
    used = held_out[~np.isnan(held_out)]
    if not used.size:
        raise NotIdentifiable(
            f"component {component} was a spike in no leave-one-out replicate"
        )
    value = math.sqrt((math.fsum(used * used) / used.size) / mean_sq_sample)
    return JackknifeShrinkage(
        value=value,
        used=used.size,
        excluded=X.n - used.size,
        plugin=float(full.shrinkage[component - 1]),
    )


def _refit_one(X: DataMatrix, mode: str, component: int, j: int) -> float:
    """Held-out naive score of sample j from a full refit; NaN if excluded."""
    refit = fit(DataMatrix(np.delete(X.values, j, axis=1)), mode, k=component)
    if refit.k_spikes < component or refit.k < component:
        return math.nan
    z = refit.prep.apply(X.values[:, j])
    return float(refit.eig.U[:, component - 1] @ z)


# A replicate whose scatter trace is below this share of the full one is
# refit: the downdate's rounding error grows with the ratio, and the
# refit also handles a replicate that standardizes to all zeros.
DOWNDATE_MIN_SHARE = 1e-3


def _downdate_replicates(
    X: DataMatrix, A: np.ndarray, mode: str, component: int
) -> np.ndarray:
    """Held-out naive scores from one scatter decomposition; NaN marks an exclusion.

    With A the standardized p x n matrix (columns a_j) and rho = n/(n-1)
    for center, 1 for none, leaving out sample j gives the replicate
    scatter (n - 1) S_-j = A A' - rho a_j a_j' (centered columns sum to
    zero) and the held-out sample z_j = rho a_j. In the eigenbasis W of
    A A' = W diag(lam) W', taken through the Gram matrix A'A = H diag(lam)
    H' when p > n - 1 (then W'A = sqrt(lam) H'), the replicate is
    diag(lam) - rho w w' with w = W'a_j and trace sum(lam) - rho |w|^2.
    downdate_leading solves its leading K eigenvalues by the secular
    equation, with the score rho q'w along the component's eigenvector
    q. The rescaling runs on those K plus the trace; K starts a few
    above the component and doubles, up to min(p, n - 1), while
    tau * lam_(K+1) / trace, a bound on the first unsolved eigenvalue,
    is above the noise edge. The rank clamp and the exclusion rule are
    those of fit(). A sample that carries nearly all of the scatter
    would leave a downdate of nearly equal terms; its replicate is
    refit from X instead.
    """
    p, n = A.shape
    m = n - 1
    k_max = min(p, m)
    if component > k_max:
        raise DimensionError(f"k must be in [1, {k_max}], got {component}")
    rho = n / m if mode == "center" else 1.0
    v = component - 1
    norms = np.einsum("ij,ij->j", A, A)
    total = norms.sum()
    refit = total - rho * norms < DOWNDATE_MIN_SHARE * total
    if p > m:
        lam, H, _ = descending_eigh(A.T @ A)
        WA = np.sqrt(lam)[:, None] * H.T
    else:
        lam, V, _ = descending_eigh(A @ A.T)
        WA = V.T @ A
    W = WA.T
    traces = lam.sum() - rho * np.einsum("ij,ij->i", W, W)
    edge = (1 + math.sqrt(p / m)) ** 2
    held_out = np.full(n, np.nan)
    pending = np.flatnonzero(~refit)
    k = min(component + 3, k_max)
    while pending.size:
        mu, score = downdate_leading(lam, W[pending], rho, k, v)
        grow = []
        for j, d, q in zip(pending, mu, score):
            d = np.where(d < RANK_TOL * d[0], 0.0, d)
            spectrum = rescale_eigenvalues(d / m, p, m, total=traces[j] / m)
            if k < k_max and spectrum.tau * lam[k] > edge * traces[j]:
                grow.append(j)
            elif spectrum.k >= component and d[v] > 0:
                held_out[j] = q
        pending = np.array(grow, dtype=int)
        k = min(2 * k, k_max)
    for j in np.flatnonzero(refit):
        held_out[j] = _refit_one(X, mode, component, j)
    return held_out


# ---------------------------------------------------------------------------
# single-covariate PC regression
# ---------------------------------------------------------------------------


def pcr_fit(scores_train: np.ndarray, y_train: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares of y on one score covariate: (intercept, slope)."""
    s = np.asarray(scores_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise DimensionError("scores and outcomes must be 1-D of equal length")
    if s.size < 3:
        raise DimensionError(f"need at least 3 observations, got {s.size}")
    if np.ptp(s) == 0:
        raise DegenerateRegressor("scores are constant; slope is undefined")
    s_mean = s.mean()
    y_mean = y.mean()
    ds = s - s_mean
    slope = float(ds @ (y - y_mean) / (ds @ ds))
    return y_mean - slope * s_mean, slope


def pcr_predict(coeffs: tuple[float, float], scores: np.ndarray) -> np.ndarray:
    """Apply fitted regression coefficients to scores."""
    intercept, slope = coeffs
    return intercept + slope * np.asarray(scores, dtype=np.float64)


def pcr_mse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean squared residual."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DimensionError("prediction and outcome lengths differ")
    return float(np.mean((y - y_hat) ** 2))
