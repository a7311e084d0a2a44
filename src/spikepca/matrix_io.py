"""CSV ingestion, row standardization, and the package's text encoder.

Data matrices are stored rows = variables, columns = samples. Every
text table and file the package writes, the model files of
model.write_model included, encodes its cells with _fmt and its rows
with _csv; numbers are decimal with 17 significant digits, which
round-trips IEEE doubles exactly.
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
    ParseError,
)

MODES = ("none", "center", "center_scale")

ORIENTATIONS = ("rows_are_variables", "rows_are_samples")

# Data cells per row block of the bulk parse: a file gets one block per
# SPLIT_CELLS cells, at most one per usable core. Forking and reaping a
# child costs about 5 ms, converting 2**18 cells about 0.12 s (2 vCPU VM).
SPLIT_CELLS = 2**18

# Cells per block (16 MB of doubles) of the passes that stream a data
# matrix instead of copying it: the finiteness checks, the per-variable
# standard deviations and eigen's standardized products.
BLOCK_CELLS = 2**21


def blocks(length: int, width: int, least: int = 1) -> list[slice]:
    """Slices cutting ``length`` lines of ``width`` cells each into
    consecutive blocks of at most BLOCK_CELLS cells, or of ``least``
    lines where that is more; a last remainder of fewer than ``least``
    lines joins the block before it."""
    step = max(least, BLOCK_CELLS // max(width, 1))
    starts = list(range(0, length - least + 1, step)) or [0]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [length])]


def all_finite(arr: np.ndarray) -> bool:
    """np.isfinite(arr).all() for a 2-D array, one row block at a time."""
    return all(np.isfinite(arr[b]).all() for b in blocks(*arr.shape))


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
        if not all_finite(arr):
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

    @classmethod
    def from_data(cls, X: DataMatrix, mode: str) -> Preprocessing:
        """The statistics that standardize X under ``mode``.

        Means, and for center_scale standard deviations with divisor n
        (population form), matching the covariance definition used
        downstream. The deviations are taken one row block at a time, so
        no p x n temporary is made. A row whose mean square overflows, or
        falls below the normal doubles, is taken again in units of its
        largest |centered| entry, s sqrt(mean((c / s)^2)).
        Raises DegenerateVariable if a row has zero variance under
        center_scale.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "none":
            return cls("none", np.zeros(X.p), np.ones(X.p))
        A = X.values
        means = A.mean(axis=1)
        if mode == "center":
            return cls("center", means, np.ones(X.p))
        sds = np.empty(X.p)
        normal = np.sqrt(np.finfo(np.float64).tiny)  # least sd with a normal square
        for b in blocks(X.p, X.n):
            centered = A[b] - means[b, None]
            with np.errstate(over="ignore", under="ignore"):
                sd = np.sqrt(np.mean(centered**2, axis=1))
                for i in np.flatnonzero(~((sd >= normal) & (sd < np.inf))):
                    s = np.abs(centered[i]).max()
                    if s > 0:
                        sd[i] = s * np.sqrt(np.mean((centered[i] / s) ** 2))
            sds[b] = sd
        bad = np.flatnonzero(sds == 0)
        if bad.size:
            raise DegenerateVariable(
                f"variable {bad[0]} has zero variance; cannot center_scale",
                row=int(bad[0]),
            )
        return cls("center_scale", means, sds)

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
        if self.mode == "center_scale":  # other modes divide by 1, exactly
            Z /= scales
        return Z


def _parse_csv(path) -> np.ndarray:
    """Parse a rectangular numeric UTF-8 CSV (optional single header row;
    a leading byte-order mark is skipped).

    Cells are whatever float() accepts after str.strip(). A clean file
    takes one bulk _parse_clean call; any other goes to the cell-by-cell
    _scan_csv, which accepts the remaining spellings or raises ParseError
    with 1-based file coordinates on the first bad cell. Raises
    EmptyInput if the file holds no data rows.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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

    Returns the transformed matrix, prep.apply(X.values) (X itself for
    mode none), and the Preprocessing.from_data record prep holding the
    statistics applied. Raises DegenerateVariable if a row has zero
    variance under center_scale.
    """
    prep = Preprocessing.from_data(X, mode)
    if mode == "none":
        return X, prep
    return DataMatrix(prep.apply(X.values)), prep
