"""End-to-end fit / predict pipeline with shrinkage-adjusted predictions.

fit() takes the standardizing statistics, decomposes the standardized
sample covariance and rescales the spectrum; the model derives its
per-component shrinkage and fidelity estimates from the spectrum
(component_estimates). predict() maps new samples into the trained
coordinates and returns both the naive scores and the bias-adjusted
ones. write_model() and read_model() persist a model as text. A
leave-one-out jackknife provides an empirical check on the asymptotic
shrinkage factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .eigen import (
    SampleEigen,
    _check_k,
    _covariance_eigh,
    _rank_clamped,
    _scatter_coordinates,
    downdate_leading,
    project,
    sample_eigen,
)
from .errors import (
    DegenerateRegressor,
    DegenerateVariable,
    DimensionError,
    DomainError,
    FormatError,
    NotIdentifiable,
    SpikePcaError,
)
from .matrix_io import (
    MODES,
    DataMatrix,
    Preprocessing,
    _check_statistics,
    _csv,
    _fmt,
    all_finite,
    standardize,  # uncalled: bound for perfbench/tracer.py, until ROADMAP item 3(a)
)
from .spiked import (
    RescaledSpectrum,
    _noise_edge,
    _shrinkage,
    eigenvector_angle,
    rescale_eigenvalues,
    score_angle,
)


# FittedPcModel's derived fields, in component_estimates' order
ESTIMATES = ("shrinkage", "score_corr", "evec_angle", "identifiable")


@dataclass(frozen=True)
class FittedPcModel:
    """Fitted spiked-model PCA.

    Per retained component v the model derives from its spectrum, once
    (component_estimates), the shrinkage factor s_v, the estimated
    |cos|-angle between sample and population eigenvectors, and the
    estimated correlation between sample and population scores; the
    score adjustment 1/s_v is derived from the shrinkage. For components
    classified as noise (``identifiable`` False) shrinkage and
    adjustment are NaN and both angle estimates are 0.
    """

    prep: Preprocessing
    eig: SampleEigen
    spectrum: RescaledSpectrum
    n_samples: int
    shrinkage: np.ndarray = field(init=False)
    score_corr: np.ndarray = field(init=False)
    evec_angle: np.ndarray = field(init=False)
    identifiable: np.ndarray = field(init=False)

    def __post_init__(self):
        estimates = component_estimates(self.spectrum, self.k)
        for name, value in zip(ESTIMATES, estimates):
            object.__setattr__(self, name, value)

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

    Derived from the rescaled spectrum alone: the one derivation of a
    fitted model's estimates, whether fit() built it or read_model()
    rebuilt it from a file. The spikes are the first spectrum.k
    components, each with a debiased eigenvalue above 1.
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

    Runs the standardizing statistics -> eigendecomposition of the
    standardized covariance (all min(p, n) eigenvalues) -> eigenvalue
    rescaling with gamma = p / n -> eigenvectors of the retained
    components only -> per-component estimates. With k="auto" the number
    of detected spikes is retained (minimum 1). The standardized matrix
    is never materialized: sample_eigen streams it in blocks.
    """
    if X.n < 3:
        raise DimensionError(f"need at least 3 samples to fit, got {X.n}")
    auto = isinstance(k, str)
    if auto:
        if k != "auto":
            raise ValueError(f"k must be an integer or 'auto', got {k!r}")
    else:
        k_request = int(k)
        _check_k(k_request, min(X.p, X.n))

    prep = Preprocessing.from_data(X, mode)
    spectrum = None

    def k_keep(d):
        nonlocal spectrum
        spectrum = rescale_eigenvalues(d, X.p, X.n)
        return max(spectrum.k, 1) if auto else k_request

    # sample_eigen calls k_keep on the eigenvalues before it builds any
    # eigenvector, and then builds min(k_keep, numerical rank) of them.
    eig = sample_eigen(X, k_keep, prep=prep)
    return FittedPcModel(prep=prep, eig=eig, spectrum=spectrum, n_samples=X.n)


def predict(model: FittedPcModel, X_new) -> PredictionScores:
    """Naive and bias-adjusted predicted scores for new samples.

    ``X_new`` is a p x m array (or DataMatrix) in the original,
    unstandardized coordinates; the model's preprocessing is applied to
    one column block at a time as it is projected (eigen.project), so
    no standardized copy of X_new is made.
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
    if not all_finite(arr):
        raise DomainError("new samples contain non-finite values")
    naive = project(model.eig.U, arr, model.prep)
    adjusted = naive.copy()
    mask = model.identifiable
    adjusted[mask] = naive[mask] * model.adjustment[mask, None]
    return PredictionScores(
        naive=naive, adjusted=adjusted, identifiable=mask.copy()
    )


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

MODEL_MAGIC = "spikepca-model"
MODEL_FORMAT_VERSION = 1


def write_model(model: FittedPcModel, path) -> None:
    """Write a fitted model as a versioned line-oriented text file.

    Layout: a magic first line, then sections ``[meta]`` (key=value),
    ``[means]``, ``[scales]``, ``[eigenvalues]`` (``d,d_hat,lambda_hat``
    per line), one ``[eigenvector <v>]`` section per retained component
    (p lines each) and ``[adjustment]``
    (``shrinkage,score_corr,evec_angle`` per retained component).
    """
    spectrum = model.spectrum
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "p": model.p,
        "n": model.n,
        "gamma": model.gamma,
        "mode": model.prep.mode,
        "k": model.k,
        "k_spikes": model.k_spikes,
        "tau": spectrum.tau,
        "iterations": spectrum.iterations,
        "converged": spectrum.converged,
    }
    rows = [(MODEL_MAGIC,), ("[meta]",)]
    rows += ((f"{key}={_fmt(value)}",) for key, value in meta.items())
    rows.append(("[means]",))
    rows += zip(model.prep.means)
    rows.append(("[scales]",))
    rows += zip(model.prep.scales)
    rows.append(("[eigenvalues]",))
    rows += zip(model.eig.d, spectrum.d_hat, spectrum.lambda_hat)
    for v in range(model.k):
        rows.append((f"[eigenvector {v + 1}]",))
        rows += zip(model.eig.U[:, v])
    rows.append(("[adjustment]",))
    rows += zip(model.shrinkage, model.score_corr, model.evec_angle)
    try:
        Path(path).write_text(_csv(rows))
    except OSError as exc:
        raise FormatError(f"cannot write model to {path!r}: {exc}") from exc


def _parse_model_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"bad number {token!r} in {where}") from None


def _require_finite(values: np.ndarray, where: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise FormatError(f"non-finite value {float(values[bad][0])} in {where}")


def read_model(path) -> FittedPcModel:
    """Read a model written by write_model. Inverse up to exact floats.

    The spectrum is derived again from the [eigenvalues] d column, and
    the estimates from it, as fit() derives them. A stored d_hat,
    lambda_hat, tau, k_spikes, iterations, converged or gamma that
    differs from the derived one, or an [adjustment] cell that differs
    from its derived value (nan matching nan), is a FormatError, as is
    a file that cannot be read or is not UTF-8, named by its path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read model from {path!r}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != MODEL_MAGIC:
        raise FormatError(f"{path} is not a {MODEL_MAGIC} file")

    sections: dict[str, list[str]] = {}
    current = None
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            if current in sections:
                raise FormatError(f"duplicate section [{current}]")
            sections[current] = []
        elif current is None:
            raise FormatError(f"content before first section: {ln!r}")
        else:
            sections[current].append(ln)

    if "meta" not in sections:
        raise FormatError("missing [meta] section")
    meta = {}
    for ln in sections["meta"]:
        if "=" not in ln:
            raise FormatError(f"bad meta line {ln!r}")
        key, _, value = ln.partition("=")
        meta[key.strip()] = value.strip()

    if meta.get("format_version") != str(MODEL_FORMAT_VERSION):
        raise FormatError(
            f"unsupported format_version {meta.get('format_version')!r}"
        )
    try:
        p = int(meta["p"])
        n = int(meta["n"])
        k = int(meta["k"])
        k_spikes = int(meta["k_spikes"])
        iterations = int(meta["iterations"])
        gamma = _parse_model_float(meta["gamma"], "[meta] gamma")
        tau = _parse_model_float(meta["tau"], "[meta] tau")
        mode = meta["mode"]
        converged = meta["converged"]
    except KeyError as exc:
        raise FormatError(f"missing meta key {exc}") from None
    except ValueError as exc:
        raise FormatError(f"bad meta value: {exc}") from None
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r} in model file")
    if converged not in ("true", "false"):
        raise FormatError(f"bad converged={converged!r} in [meta], expected true/false")
    if not (0 <= gamma < np.inf and np.isfinite(tau)):
        raise FormatError(f"bad gamma={gamma} or tau={tau} in [meta]")

    m = min(p, n)
    for key, value, low in (("k", k, 1), ("k_spikes", k_spikes, 0)):
        if not low <= value <= m:
            raise FormatError(f"{key}={value} in [meta] is outside [{low}, {m}]")

    def table(name, rows, width):
        if name not in sections:
            raise FormatError(f"missing [{name}] section")
        lines = sections[name]
        if len(lines) != rows:
            raise FormatError(
                f"[{name}] has {len(lines)} lines, expected {rows} (truncated file?)"
            )
        values = np.empty((rows, width))
        for i, ln in enumerate(lines):
            cells = ln.split(",")
            if len(cells) != width:
                raise FormatError(f"bad [{name}] line {ln!r}")
            values[i] = [_parse_model_float(c, f"[{name}]") for c in cells]
        if name != "adjustment":  # compared below, noise rows hold a nan
            _require_finite(values, f"[{name}]")
        return values

    means = table("means", p, 1)[:, 0]
    scales = table("scales", p, 1)[:, 0]
    _check_statistics(mode, means, scales, FormatError,
                      lambda name, i: f"in [{name}] line {i + 1}")
    d, d_hat, lambda_hat = table("eigenvalues", m, 3).T
    U = np.column_stack([table(f"eigenvector {v + 1}", p, 1) for v in range(k)])
    stored = table("adjustment", k, 3)
    try:
        spectrum = rescale_eigenvalues(d, p, n)
    except SpikePcaError as exc:
        raise FormatError(f"bad d column in [eigenvalues]: {exc}") from None
    for name, value, expected in (
        ("d_hat", d_hat, spectrum.d_hat),
        ("lambda_hat", lambda_hat, spectrum.lambda_hat),
        ("tau", tau, spectrum.tau),
        ("k_spikes", k_spikes, spectrum.k),
        ("iterations", iterations, spectrum.iterations),
        ("converged", converged == "true", spectrum.converged),
        ("gamma", gamma, spectrum.gamma),
    ):
        where = "[meta]"
        if np.ndim(value):
            lines = np.flatnonzero(value != expected)
            if not lines.size:
                continue
            kind = "spike" if lines[0] < spectrum.k else "noise"
            name, where = f"{kind} {name}", f"[eigenvalues] line {lines[0] + 1}"
            value, expected = value[lines[0]], expected[lines[0]]
        if value != expected:
            raise FormatError(
                f"{name} {_fmt(value)} in {where} is not {_fmt(expected)}, "
                "the value the [eigenvalues] d column gives"
            )

    model = FittedPcModel(
        prep=Preprocessing(mode, means, scales),
        eig=SampleEigen(d=d, U=U, gamma=gamma),
        spectrum=spectrum,
        n_samples=n,
    )
    derived = np.column_stack([getattr(model, name) for name in ESTIMATES[:3]])
    same = (stored == derived) | (np.isnan(stored) & np.isnan(derived))
    if not same.all():
        v, c = np.argwhere(~same)[0]
        raise FormatError(
            f"{'spike' if v < k_spikes else 'noise'} {ESTIMATES[c]} "
            f"{_fmt(stored[v, c])} in [adjustment] line {v + 1} is not "
            f"{_fmt(derived[v, c])}, the value [eigenvalues] gives"
        )
    return model


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
    asymptotic shrinkage factor describes. The latter is the sample
    eigenvalue d_v itself: the in-sample scores u'z_i of the unit
    eigenvector u of Z Z' / n have mean square u'(Z Z' / n)u = d_v.
    Replicates whose fit does not classify the component as a spike
    are excluded and counted.

    Modes none and center do not refit: leaving a sample out is a
    rank-one change of the scatter matrix. The jackknife costs one
    eigendecomposition of size min(p, n), the one fit() makes
    (eigen._covariance_eigh): it gives the plug-in, the in-sample score
    scale d_v and the downdate basis, whose eigenvectors come from the
    chain that fit() uses (eigen.descending_eigh). Each replicate then
    costs a secular-equation solve for the leading K eigenvalues of a
    diagonal-plus-rank-one matrix, O(K min(p, n)) per iteration, with K
    a few above the component. The exception is a sample holding nearly
    all of the scatter, whose replicate is refit. center_scale refits
    throughout, because its scales change with each left-out sample.
    Every refit scores its held-out sample through eigen.project, as
    predict() does. The decomposition and the downdate's scatter
    coordinates read the standardized matrix in matrix_io._standardized
    blocks, as fit() does, so no standardized copy of X is made.
    """
    if X.n < 4:
        raise DimensionError(f"jackknife needs at least 4 samples, got {X.n}")
    _check_k(component, min(X.p, X.n))
    prep = Preprocessing.from_data(X, mode)
    # the decomposition of fit(X, mode, k=component), kept for the downdate
    d, V, _ = _covariance_eigh(X.values, prep)
    spectrum = rescale_eigenvalues(d, X.p, X.n)
    if component > spectrum.k:
        raise NotIdentifiable(
            f"component {component} is not a spike in the full-data fit "
            f"(k_spikes={spectrum.k})"
        )
    plugin = float(component_estimates(spectrum, component)[0][component - 1])
    mean_sq_sample = float(d[component - 1])

    if mode == "center_scale":
        held_out, refit = np.full(X.n, np.nan), range(X.n)
    else:
        held_out, refit = _downdate_replicates(X, prep, d, V, component)
    for j in refit:
        held_out[j] = _refit_one(X, mode, component, j)
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
        plugin=plugin,
    )


def _refit_one(X: DataMatrix, mode: str, component: int, j: int) -> float:
    """Held-out naive score of sample j from a full refit, projected by
    eigen.project as predict() projects it; NaN if excluded.

    Raises DegenerateVariable, naming sample j, for a row that is
    constant once sample j is left out."""
    try:
        refit = fit(DataMatrix(np.delete(X.values, j, axis=1)), mode, k=component)
    except DegenerateVariable as exc:
        raise DegenerateVariable(
            f"variable {exc.row} is constant when sample {j + 1} is left out; "
            "cannot center_scale",
            row=exc.row,
        ) from exc
    if refit.k_spikes < component or refit.k < component:
        return math.nan
    return float(project(refit.eig.U, X.values[:, j : j + 1], refit.prep)[-1, 0])


# A replicate whose scatter trace is below this share of the full one is
# refit: the downdate's rounding error grows with the ratio, and the
# refit also handles a replicate that standardizes to all zeros.
DOWNDATE_MIN_SHARE = 1e-3


def _downdate_replicates(
    X: DataMatrix, prep: Preprocessing, d: np.ndarray, V: np.ndarray, component: int
) -> tuple[np.ndarray, np.ndarray]:
    """Held-out naive scores from the full-data decomposition, and the
    samples whose replicates the caller must refit.

    The scores are NaN for an exclusion and for a replicate to refit.

    With A = prep.apply(X.values), the standardized p x n matrix
    (columns a_j), and rho = n/(n-1) for mode center, 1 for none,
    leaving out sample j gives the replicate scatter (n - 1) S_-j =
    A A' - rho a_j a_j' (centered columns sum to zero) and the held-out
    sample z_j = rho a_j. (d, V) is eigen._covariance_eigh(X.values,
    prep), so A A' = W diag(lam) W' with lam = n d, and
    eigen._scatter_coordinates gives W'A on either side without forming
    A. The replicate is then diag(lam) - rho w w' with w = W'a_j and
    trace sum(lam) - rho |w|^2; it is refit when that trace is below
    DOWNDATE_MIN_SHARE of the full one, sum(lam).
    downdate_leading solves its leading K eigenvalues by the secular
    equation, with the score rho q'w along the component's eigenvector
    q. The rescaling runs on those K plus the trace; K starts a few
    above the component and doubles, up to min(p, n - 1), while
    tau * lam_(K+1) / trace, a bound on the first unsolved eigenvalue,
    is above the noise edge. The rank clamp and the exclusion rule are
    those of fit(). A sample that carries nearly all of the scatter
    would leave a downdate of nearly equal terms; its replicate is
    returned for jackknife_shrinkage to refit from X instead.
    """
    p, n = X.p, X.n
    m = n - 1
    k_max = min(p, m)
    _check_k(component, k_max)
    rho = n / m if prep.mode == "center" else 1.0
    v = component - 1
    lam = n * d
    W = _scatter_coordinates(X.values, d, V, prep).T
    traces = lam.sum() - rho * np.einsum("ij,ij->i", W, W)
    refit = traces < DOWNDATE_MIN_SHARE * lam.sum()
    edge = _noise_edge(p / m)
    held_out = np.full(n, np.nan)
    pending = np.flatnonzero(~refit)
    k = min(component + 3, k_max)
    while pending.size:
        mu, score = downdate_leading(lam, W[pending], rho, k, v)
        grow = []
        for j, d, q in zip(pending, mu, score):
            d = _rank_clamped(d)
            spectrum = rescale_eigenvalues(d / m, p, m, total=traces[j] / m)
            if k < k_max and spectrum.tau * lam[k] > edge * traces[j]:
                grow.append(j)
            elif spectrum.k >= component and d[v] > 0:
                held_out[j] = q
        pending = np.array(grow, dtype=int)
        k = min(2 * k, k_max)
    return held_out, np.flatnonzero(refit)


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
