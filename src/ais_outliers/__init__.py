"""Maritime outlier detection from AIS data.

Pipeline: raw AIS CSVs -> validated vessel tracks -> normalized 48x4
per-vessel-day grids -> recurrent sequence autoencoder -> reconstruction
RMSE -> mean + k*sigma outlier flags and repeat-offender reporting.
"""

__version__ = "0.1.0"
