"""CSV ingestion, row standardization, and model persistence.

Data matrices are stored rows = variables, columns = samples. Every
text table and file the package writes encodes its cells with _fmt and
its rows with _csv; numbers are decimal with 17 significant digits,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._workers import fill_rows
from .errors import (
    DegenerateVariable,
    DimensionError,
    EmptyInput,
    FormatError,
    ParseError,
)

MODES = ("none", "center", "center_scale")

ORIENTATIONS = ("rows_are_variables", "rows_are_samples")

MODEL_MAGIC = "spikepca-model"
MODEL_FORMAT_VERSION = 1

# Data cells per row block of the bulk parse: a file gets one block per
# SPLIT_CELLS cells, at most one per usable core. Forking and reaping a
# child costs about 5 ms, converting 2**18 cells about 0.12 s (2 vCPU VM).
SPLIT_CELLS = 2**18


def _fmt(x) -> str:
    """Text of one cell: the one encoding of every table and file the
    package writes.

    A float prints with 17 significant digits, which round-trips IEEE
    doubles exactly; a flag as true/false; an integer in full, never
    through a float; None, a not-applicable cell, as empty; and a
    string, a header or label, unchanged. bool is a subclass of int, so
    flags are tested before integers.
    """
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return x


def _csv(rows) -> str:
    """Text of a table: the one row writer of the package.

    Each row's cells go through _fmt and are joined by commas, and every
    line ends in a newline; no rows make an empty text.
    """
    return "".join([",".join(map(_fmt, row)) + "\n" for row in rows])


@dataclass(frozen=True)
class DataMatrix:
    """p x n matrix of finite doubles; rows are variables, columns samples."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"data matrix must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise DimensionError(
                f"need at least 1 variable and 2 samples, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ParseError("data matrix contains non-finite entries")
        object.__setattr__(self, "values", arr)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Preprocessing:
    """Per-variable statistics applied before analysis.

    ``mode`` is one of none / center / center_scale. ``means`` and
    ``scales`` always have length p; for mode "none" they are the
    identity transform (zeros and ones).
    """

    mode: str
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        means = np.asarray(self.means, dtype=np.float64)
        scales = np.asarray(self.scales, dtype=np.float64)
        if means.shape != scales.shape or means.ndim != 1:
            raise DimensionError("means and scales must be 1-D of equal length")
        if not (scales > 0).all():
            raise ValueError("scales must be strictly positive")
        if self.mode == "none" and ((means != 0).any() or (scales != 1).any()):
            raise ValueError("mode 'none' requires zero means and unit scales")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scales", scales)

    @property
    def p(self) -> int:
        return self.means.shape[0]

    def apply(self, values) -> np.ndarray:
        """Map raw data, a length-p vector or a p x m matrix, into the
        standardized coordinates: (x - means) / scales per variable."""
        x = np.asarray(values, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.p:
            raise DimensionError(
                f"expected a length-{self.p} vector or {self.p} x m matrix, "
                f"got shape {x.shape}"
            )
        means, scales = self.means, self.scales
        if x.ndim == 2:
            means, scales = means[:, None], scales[:, None]
        Z = x - means
        Z /= scales
        return Z


def _parse_csv(path) -> np.ndarray:
    """Parse a rectangular numeric CSV (optional single header row).

    Cells are whatever float() accepts after str.strip(). A clean file
    takes one bulk _parse_clean call; any other goes to the cell-by-cell
    _scan_csv, which accepts the remaining spellings or raises ParseError
    with 1-based file coordinates on the first bad cell. Raises
    EmptyInput if the file holds no data rows.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    del text  # the lines hold a second copy; free this one before converting
    if not numbered:
        raise EmptyInput(f"{path} contains no data")
    start = 1 if _is_header(numbered[0][1]) else 0
    if start == len(numbered):
        raise EmptyInput(f"{path} contains a header but no data rows")
    rows = numbered[start:]
    arr = _parse_clean([ln for _, ln in rows])
    return arr if arr is not None else _scan_csv(rows)


def _is_header(line: str) -> bool:
    """A header row is one where no cell parses as a number under the
    scanner's rule; a row with a mix of numeric and non-numeric cells is
    an error, not a header."""
    for cell in line.split(","):
        try:
            float(cell.strip())
            return False
        except ValueError:
            pass
    return True


def _parse_clean(lines: list) -> np.ndarray | None:
    """Bulk parse of rectangular, all-finite data rows.

    np.loadtxt strips the same Unicode whitespace as str.strip() and
    converts through the same correctly rounded PyOS_string_to_double as
    float(), so every cell it accepts parses to the scanner's double. It
    accepts fewer spellings than float() (no underscores, no non-ASCII
    digits), and comments=None keeps a '#' tail a bad cell. Returns None
    on anything else (a ragged row, a bad or non-finite cell), leaving
    the scanner to parse the file or report the first bad cell.

    np.loadtxt holds the GIL, so a large file is converted in forked row
    blocks (fill_rows), one per SPLIT_CELLS cells and at most one per
    usable core, each written into the buffer that the result is built
    on; the parent converts the first block, and again any block whose
    child fails. Each cell is converted alone, so the blocks give the
    single call's doubles.
    """
    m, width = len(lines), lines[0].count(",") + 1
    return fill_rows(
        m, width, m * width // SPLIT_CELLS,
        lambda out, lo, hi: _convert_into(lines[lo:hi], out[lo:hi]),
    )


def _convert_into(lines: list, out: np.ndarray) -> bool:
    """One np.loadtxt call over data rows, copied into ``out``; False
    unless the rows fill out's shape and every cell is a finite number."""
    try:
        arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return False
    if arr.shape != out.shape or not np.isfinite(arr).all():
        return False
    out[...] = arr
    return True


def _scan_csv(numbered: list) -> np.ndarray:
    """Cell-by-cell parse of a CSV file's data rows, given as (1-based
    line number, line) pairs; raises ParseError at the first bad cell."""
    rows = []
    width = None
    for line_no, line in numbered:
        cells = [c.strip() for c in line.split(",")]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"ragged row: line {line_no} has {len(cells)} cells, expected {width}",
                row=line_no,
            )
        parsed = []
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric cell {cell!r} at row {line_no}, column {j + 1}",
                    row=line_no,
                    col=j + 1,
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"non-finite cell {cell!r} at row {line_no}, column {j + 1} "
                    "(missing values are not supported)",
                    row=line_no,
                    col=j + 1,
                )
            parsed.append(value)
        rows.append(parsed)
    return np.array(rows, dtype=np.float64)


def read_matrix(path, orientation: str = "rows_are_variables") -> DataMatrix:
    """Read a numeric CSV into a DataMatrix (rows = variables).

    ``orientation`` says what the file's rows mean; with
    "rows_are_samples" the parsed array is transposed so the result is
    always variables x samples.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    arr = _parse_csv(path)
    if orientation == "rows_are_samples":
        arr = arr.T
    return DataMatrix(arr)


def write_matrix(X: DataMatrix, path) -> None:
    """Write a DataMatrix as headerless CSV; read_matrix inverts it exactly."""
    try:
        Path(path).write_text(_csv(X.values))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def standardize(X: DataMatrix, mode: str) -> tuple[DataMatrix, Preprocessing]:
    """Center and/or scale each variable of X.

    Standard deviations use divisor n (population form), matching the
    covariance definition used downstream. Returns the transformed
    matrix and the Preprocessing record holding the statistics applied.

    Raises DegenerateVariable if a row has zero variance under
    center_scale.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = X.p
    if mode == "none":
        prep = Preprocessing("none", np.zeros(p), np.ones(p))
        return X, prep
    means = X.values.mean(axis=1)
    centered = X.values - means[:, None]
    if mode == "center":
        return DataMatrix(centered), Preprocessing("center", means, np.ones(p))
    sds = np.sqrt(np.mean(centered**2, axis=1))
    bad = np.flatnonzero(sds == 0)
    if bad.size:
        raise DegenerateVariable(
            f"variable {bad[0]} has zero variance; cannot center_scale",
            row=int(bad[0]),
        )
    centered /= sds[:, None]
    return DataMatrix(centered), Preprocessing("center_scale", means, sds)


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


def write_model(model, path) -> None:
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


def read_model(path):
    """Read a model written by write_model. Inverse up to exact floats."""
    from .eigen import SampleEigen
    from .model import FittedPcModel
    from .spiked import RescaledSpectrum

    try:
        text = Path(path).read_text()
    except OSError as exc:
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
        if name != "adjustment":  # checked below, noise rows hold a nan
            _require_finite(values, f"[{name}]")
        return values

    means = table("means", p, 1)[:, 0]
    scales = table("scales", p, 1)[:, 0]
    d, d_hat, lambda_hat = table("eigenvalues", m, 3).T
    U = np.column_stack([table(f"eigenvector {v + 1}", p, 1) for v in range(k)])
    estimates = table("adjustment", k, 3)
    shrinkage, score_corr, evec_angle = estimates.T
    # write_model stores a nan shrinkage for each noise component.
    _require_finite(estimates[:k_spikes], "[adjustment]")
    noise = estimates[k_spikes:]
    _require_finite(noise[~np.isnan(noise)], "[adjustment]")
    # A spike's shrinkage (x - 1) / (x + gamma - 1), x above the detection
    # threshold 1 + sqrt(gamma), lies in (1 / (1 + sqrt(gamma)), 1]; the
    # slack allows for rounding when x is a few ulp above the threshold.
    floor = (1 - 1e-12) / (1 + np.sqrt(gamma))
    for s in shrinkage[:k_spikes]:
        if not floor < s <= 1:
            raise FormatError(
                f"spike shrinkage {s} in [adjustment] is outside ({floor:.6g}, 1]"
            )

    prep = Preprocessing(mode, means, scales)
    eig = SampleEigen(d=d, U=U, gamma=gamma)
    spectrum = RescaledSpectrum(
        d_hat=d_hat,
        lambda_hat=lambda_hat,
        k=k_spikes,
        tau=tau,
        gamma=gamma,
        iterations=iterations,
        converged=converged == "true",
    )
    return FittedPcModel(
        prep=prep,
        eig=eig,
        spectrum=spectrum,
        shrinkage=shrinkage,
        score_corr=score_corr,
        evec_angle=evec_angle,
        identifiable=np.arange(k) < k_spikes,
        n_samples=n,
    )
