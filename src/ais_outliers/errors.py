"""Error hierarchy shared by all pipeline stages.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""

from contextlib import contextmanager


class AisOutliersError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AisOutliersError):
    """Invalid configuration: bad option values, missing columns, bad flags."""


class DataError(AisOutliersError):
    """Input data cannot be processed: unreadable streams, missing artifacts,
    degenerate statistics, empty selections."""


class ShapeError(DataError):
    """Tensor shapes inconsistent with the configured model or operation."""


class NumericError(AisOutliersError):
    """A non-finite value appeared where the numerics contract forbids it."""


class TrainingDivergedError(NumericError):
    """Training produced a non-finite loss or gradient."""


@contextmanager
def utf8_text(path):
    """Turn a failed UTF-8 decode while reading `path` into a one-line
    DataError that names the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
