"""Reconstruction errors -> outlier decisions.

Scores are columns whose rows line up with the scored set's IDS_DTYPE
ids: one RMSE per sequence over all 48x4 cells in normalized space, plus
a diagnostic RMSE per feature. Rows whose RMSE exceeds mean + k*sigma
(population sigma, strict comparison) are flagged, and MMSIs flagged on
enough distinct days are reported as persistent offenders.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import DataError
from .preprocess import FEATURES, SENTINEL, id_text, mmsi_text
from .sequence import SequenceSet

DEFAULT_SIGMA_K = 6.0
DEFAULT_BINS = 50
DEFAULT_MIN_APPEARANCES = 5


@dataclass
class ScoreDistribution:
    mean: float
    std: float  # population
    count: int
    bin_edges: np.ndarray  # (bins + 1,)
    bin_counts: np.ndarray  # (bins,)


@dataclass
class OutlierReport:
    threshold: float
    k: float
    flagged: np.ndarray  # row indices: RMSE descending, then MMSI, then day


@dataclass
class OffenderReport:
    mmsi: np.ndarray  # every flagged MMSI: count descending, then MMSI
    count: np.ndarray  # number of flagged days per MMSI
    min_appearances: int

    @property
    def persistent(self) -> np.ndarray:
        """Mask over the MMSIs flagged on at least `min_appearances` days."""
        return self.count >= self.min_appearances


def score_set(model, sset: SequenceSet,
              mask_sentinel: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """RMSE (N,) and per-feature RMSE (N, F), rows aligned with `sset.ids`.

    Sentinel (-1) truth cells count by default, mirroring the training
    loss; `mask_sentinel` restricts the RMSE to observed cells. The
    per-feature RMSE is a diagnostic and always counts every cell.

    The set is reconstructed and scored in the model's `row_chunks`, each
    chunk's columns filled before the next is reconstructed, so the pass
    never holds the whole set's prediction.
    """
    truth = sset.tensor
    rmse = np.empty(len(truth))
    feature_rmse = np.empty((len(truth), truth.shape[-1]))
    for rows in model.row_chunks(len(truth)):
        rmse[rows], feature_rmse[rows] = _chunk_scores(
            model.reconstruct(truth[rows]), truth[rows], mask_sentinel)
    return rmse, feature_rmse


def _chunk_scores(pred: np.ndarray, truth: np.ndarray,
                  mask_sentinel: bool) -> tuple[np.ndarray, np.ndarray]:
    """`score_set`'s columns for one chunk of rows. Its temporaries die
    with the call, before the next chunk is reconstructed."""
    diff2 = (pred - truth) ** 2
    feature_rmse = np.sqrt(diff2.mean(axis=1))
    if not mask_sentinel:
        return np.sqrt(diff2.mean(axis=(1, 2))), feature_rmse
    keep = truth != SENTINEL
    counts = keep.sum(axis=(1, 2))
    if not counts.all():
        raise DataError("cannot mask sentinels: sequence has no observed cells")
    return np.sqrt(np.where(keep, diff2, 0.0).sum(axis=(1, 2)) / counts), feature_rmse


def fit_distribution(rmse: np.ndarray, bins: int = DEFAULT_BINS) -> ScoreDistribution:
    """Population mean/std plus an equal-width histogram on [0, max]."""
    if bins < 1:
        raise DataError("histogram needs at least one bin")
    values = np.asarray(rmse, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot fit a distribution to zero scores")
    top = float(values.max())
    if top <= 0.0:
        top = 1.0  # degenerate all-zero scores still get a valid partition
    counts, edges = np.histogram(values, bins=bins, range=(0.0, top))
    return ScoreDistribution(
        mean=float(values.mean()),
        std=float(values.std()),  # ddof=0: population
        count=values.size,
        bin_edges=edges,
        bin_counts=counts,
    )


def flag_outliers(rmse: np.ndarray, ids: np.ndarray,
                  dist: ScoreDistribution, k: float = DEFAULT_SIGMA_K) -> OutlierReport:
    """Flag rows strictly above mean + k*sigma, RMSE descending; equal
    RMSEs go by MMSI, then day."""
    if not k > 0:
        raise DataError(f"sigma multiplier must be > 0, got {k}")
    threshold = dist.mean + k * dist.std
    rows = np.flatnonzero(rmse > threshold)
    picked = ids[rows]
    return OutlierReport(threshold=threshold, k=k, flagged=rows[
        np.lexsort((picked["day"], picked["mmsi"], -rmse[rows]))])


def offender_frequency(report: OutlierReport, ids: np.ndarray,
                       min_appearances: int = DEFAULT_MIN_APPEARANCES) -> OffenderReport:
    """Count flagged days per MMSI; persistent = count >= min_appearances."""
    if min_appearances < 1:
        raise DataError("min_appearances must be >= 1")
    mmsi, count = np.unique(ids["mmsi"][report.flagged], return_counts=True)
    order = np.argsort(-count, kind="stable")  # np.unique sorted by MMSI
    return OffenderReport(mmsi=mmsi[order], count=count[order],
                          min_appearances=min_appearances)


# ---------------------------------------------------------------------------
# CSV artifacts. Floats go through `.tolist()` or `float()` before `repr`,
# which spells a numpy scalar as "np.float64(...)".
# ---------------------------------------------------------------------------

def write_scores_csv(path, ids: np.ndarray, rmse: np.ndarray, mask_sentinel: bool = False,
                     feature_rmse: np.ndarray | None = None) -> None:
    """One row per scored sequence; `feature_rmse` adds one column per feature."""
    rmse_col = "rmse_masked" if mask_sentinel else "rmse"
    header = ["mmsi", "day", rmse_col]
    values = rmse[:, None]
    if feature_rmse is not None:
        header += [f"{rmse_col}_{name}" for name in FEATURES]
        values = np.column_stack((rmse, feature_rmse))
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([mmsi, day, *map(repr, row)]
                         for (mmsi, day), row in zip(id_text(ids), values.tolist()))


def write_outliers_csv(path, report: OutlierReport, ids: np.ndarray, rmse: np.ndarray) -> None:
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "mmsi", "day", "rmse", "threshold", "k"])
        for rank, ((mmsi, day), value) in enumerate(
                zip(id_text(ids[report.flagged]), rmse[report.flagged].tolist()), start=1):
            writer.writerow([rank, mmsi, day, repr(value), repr(report.threshold),
                             repr(report.k)])


def write_histogram_csv(path, dist: ScoreDistribution) -> None:
    edges = dist.bin_edges.tolist()
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_low", "bin_high", "count"])
        writer.writerows([repr(low), repr(high), count]
                         for low, high, count in zip(edges, edges[1:],
                                                     dist.bin_counts.tolist()))


def write_offenders_csv(path, offenders: OffenderReport) -> None:
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mmsi", "flag_count", "persistent"])
        writer.writerows(zip(map(mmsi_text, offenders.mmsi.tolist()), offenders.count.tolist(),
                             offenders.persistent.astype(int).tolist()))
