"""Exception types shared across the package."""


class QimputeError(Exception):
    """Base class for all package errors."""


class CsvLoadError(QimputeError):
    """CSV ingestion failure, carrying 1-based row/column coordinates."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        coords = []
        if row is not None:
            coords.append(f"row {row}")
        if column is not None:
            coords.append(f"column {column!r}")
        suffix = f" ({', '.join(coords)})" if coords else ""
        super().__init__(message + suffix)
        self.row = row
        self.column = column


class FitError(QimputeError):
    """Preprocessor could not be fitted (e.g. a column with no observed cells)."""


class ContractViolation(QimputeError):
    """A caller broke a documented precondition, e.g. encoding a missing cell."""


class ConfigError(QimputeError, ValueError):
    """Malformed config file, invalid option value or combination."""


class CheckpointError(QimputeError):
    """Model checkpoint is unreadable or does not match the current schema."""


class TrainingDiverged(QimputeError):
    """Training loss became non-finite; carries learning-rate guidance."""
