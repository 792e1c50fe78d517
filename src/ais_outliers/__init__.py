"""Maritime outlier detection from AIS data.

Pipeline: raw AIS CSVs -> validated vessel tracks -> normalized 48x4
per-vessel-day grids -> recurrent sequence autoencoder -> reconstruction
RMSE -> mean + k*sigma outlier flags and repeat-offender reporting.
"""

__version__ = "0.1.0"

from . import detect, ingest, nn, preprocess, sequence
from .errors import (
    AisOutliersError,
    ConfigError,
    DataError,
    NumericError,
    ShapeError,
    TrainingDivergedError,
)

__all__ = [
    "__version__",
    "detect",
    "ingest",
    "nn",
    "preprocess",
    "sequence",
    "AisOutliersError",
    "ConfigError",
    "DataError",
    "NumericError",
    "ShapeError",
    "TrainingDivergedError",
]
