"""Reconstruction errors -> outlier decisions.

Each scored sequence gets one RMSE over all 48x4 cells in normalized
space. Sequences whose RMSE exceeds mean + k*sigma (population sigma,
strict comparison) are flagged, and MMSIs flagged on enough distinct days
are reported as persistent offenders.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DataError, ShapeError
from .sequence import SequenceSet

DEFAULT_SIGMA_K = 6.0
DEFAULT_BINS = 50
DEFAULT_MIN_APPEARANCES = 5
SENTINEL = -1.0


@dataclass(frozen=True)
class ScoreRecord:
    mmsi: str
    day: date
    rmse: float
    feature_rmse: tuple[float, ...] = ()  # diagnostic: unmasked RMSE per feature


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
    flagged: list[ScoreRecord]  # descending by rmse


@dataclass
class OffenderReport:
    counts: dict[str, int]  # MMSI -> number of flagged days
    min_appearances: int
    persistent: list[tuple[str, int]]  # descending by count


def _rmse(pred: np.ndarray, truth: np.ndarray, mask_sentinel: bool) -> np.ndarray:
    """RMSE over all cells of each sequence in a stack (leading axis)."""
    diff2 = (pred - truth) ** 2
    cells = tuple(range(1, diff2.ndim))
    if not mask_sentinel:
        return np.sqrt(diff2.mean(axis=cells))
    keep = truth != SENTINEL
    counts = keep.sum(axis=cells)
    if not counts.all():
        raise DataError("cannot mask sentinels: sequence has no observed cells")
    return np.sqrt(np.where(keep, diff2, 0.0).sum(axis=cells) / counts)


def rmse_per_sequence(pred: np.ndarray, truth: np.ndarray,
                      mask_sentinel: bool = False) -> float:
    """Root mean squared error over all cells of one sequence.

    Sentinel (-1) truth cells are included by default, mirroring the
    training loss; `mask_sentinel` restricts the mean to observed cells.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"rmse shapes differ: {pred.shape} vs {truth.shape}")
    return float(_rmse(pred[None], truth[None], mask_sentinel)[0])


def score_set(model, sset: SequenceSet, mask_sentinel: bool = False) -> list[ScoreRecord]:
    """One ScoreRecord per sequence, order preserved from the sidecar."""
    if len(sset) == 0:
        return []
    pred = model.reconstruct(sset.tensor)
    rmse = _rmse(pred, sset.tensor, mask_sentinel)
    features = per_feature_rmse(pred, sset.tensor)
    return [ScoreRecord(mmsi=mmsi, day=day, rmse=float(rmse[i]),
                        feature_rmse=tuple(map(float, features[i])))
            for i, (mmsi, day) in enumerate(sset.ids)]


def per_feature_rmse(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Diagnostic: RMSE per feature column of a (T, F) sequence or an
    (N, T, F) stack."""
    diff2 = (np.asarray(pred) - np.asarray(truth)) ** 2
    return np.sqrt(diff2.mean(axis=-2))


def fit_distribution(scores: list[ScoreRecord], bins: int = DEFAULT_BINS) -> ScoreDistribution:
    """Population mean/std plus an equal-width histogram on [0, max]."""
    if bins < 1:
        raise DataError("histogram needs at least one bin")
    if not scores:
        raise DataError("cannot fit a distribution to zero scores")
    values = np.array([s.rmse for s in scores], dtype=np.float64)
    top = float(values.max())
    if top <= 0.0:
        top = 1.0  # degenerate all-zero scores still get a valid partition
    counts, edges = np.histogram(values, bins=bins, range=(0.0, top))
    return ScoreDistribution(
        mean=float(values.mean()),
        std=float(values.std()),  # ddof=0: population
        count=len(scores),
        bin_edges=edges,
        bin_counts=counts,
    )


def flag_outliers(scores: list[ScoreRecord], dist: ScoreDistribution,
                  k: float = DEFAULT_SIGMA_K) -> OutlierReport:
    """Flag scores strictly above mean + k*sigma, sorted descending."""
    if k <= 0:
        raise DataError(f"sigma multiplier must be > 0, got {k}")
    threshold = dist.mean + k * dist.std
    flagged = [s for s in scores if s.rmse > threshold]
    flagged.sort(key=lambda s: (-s.rmse, s.mmsi, s.day))
    return OutlierReport(threshold=threshold, k=k, flagged=flagged)


def offender_frequency(report: OutlierReport,
                       min_appearances: int = DEFAULT_MIN_APPEARANCES) -> OffenderReport:
    """Count flagged days per MMSI; persistent = count >= min_appearances."""
    if min_appearances < 1:
        raise DataError("min_appearances must be >= 1")
    counts: dict[str, int] = {}
    for record in report.flagged:
        counts[record.mmsi] = counts.get(record.mmsi, 0) + 1
    persistent = [(mmsi, n) for mmsi, n in counts.items() if n >= min_appearances]
    persistent.sort(key=lambda item: (-item[1], item[0]))
    return OffenderReport(counts=counts, min_appearances=min_appearances,
                          persistent=persistent)


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def write_scores_csv(path, scores: list[ScoreRecord], mask_sentinel: bool = False,
                     feature_names: tuple[str, ...] | None = None) -> None:
    """`feature_names` adds one column per feature from each record's
    `feature_rmse`."""
    rmse_col = "rmse_masked" if mask_sentinel else "rmse"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["mmsi", "day", rmse_col]
        if feature_names:
            header += [f"{rmse_col}_{name}" for name in feature_names]
        writer.writerow(header)
        for s in scores:
            row = [s.mmsi, s.day.isoformat(), repr(s.rmse)]
            if feature_names:
                row += [repr(v) for v in s.feature_rmse]
            writer.writerow(row)


def write_outliers_csv(path, report: OutlierReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "mmsi", "day", "rmse", "threshold", "k"])
        for rank, s in enumerate(report.flagged, start=1):
            writer.writerow([rank, s.mmsi, s.day.isoformat(), repr(s.rmse),
                             repr(report.threshold), repr(report.k)])


def write_histogram_csv(path, dist: ScoreDistribution) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_low", "bin_high", "count"])
        for i, count in enumerate(dist.bin_counts):
            writer.writerow([repr(float(dist.bin_edges[i])),
                             repr(float(dist.bin_edges[i + 1])), int(count)])


def write_offenders_csv(path, offenders: OffenderReport) -> None:
    persistent = dict(offenders.persistent)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mmsi", "flag_count", "persistent"])
        ordered = sorted(offenders.counts.items(), key=lambda item: (-item[1], item[0]))
        for mmsi, count in ordered:
            writer.writerow([mmsi, count, int(mmsi in persistent)])
