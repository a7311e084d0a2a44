"""Exception hierarchy shared across the package.

Input/format problems (bad CSV, bad model file, shape mismatches) and
numerical/domain problems (estimator preconditions, degenerate inputs)
are kept in separate branches so the CLI can map them to distinct exit
codes.
"""


class SpikePcaError(Exception):
    """Base class for all package errors."""


# ---- input / format errors (CLI exit code 2) ----


class ParseError(SpikePcaError):
    """Malformed CSV input. ``row``/``col`` are 1-based file coordinates."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class EmptyInput(SpikePcaError):
    """Input file or array contains no data."""


class FormatError(SpikePcaError):
    """Model file is malformed, truncated, or has an unsupported version."""


class DimensionError(SpikePcaError):
    """Shape or length of an input does not match what the operation needs."""


# ---- numerical / domain errors (CLI exit code 3) ----


class DomainError(SpikePcaError):
    """Argument lies outside the mathematical domain of the operation."""


class DegenerateMatrix(SpikePcaError):
    """Matrix or spectrum is identically zero (or otherwise rank-degenerate)."""


class DegenerateVariable(SpikePcaError):
    """A variable (row) has zero variance and cannot be scaled. ``row`` is 0-based."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class NotIdentifiable(SpikePcaError):
    """Component sits at or below the detection threshold; no adjustment exists."""


class DegenerateRegressor(SpikePcaError):
    """Regression covariate is constant."""


class DegenerateInput(SpikePcaError):
    """Vector input is identically zero where a direction or scale is needed."""


#: Errors that indicate bad user input rather than a numerical failure.
INPUT_ERRORS = (ParseError, EmptyInput, FormatError, DimensionError)
