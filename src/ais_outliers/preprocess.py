"""Vessel tracks -> normalized per-day feature grids.

Each vessel-day becomes a 48-slot x 4-feature matrix on a 30-minute grid
anchored at 00:00 UTC. Sparse days are dropped, interior gaps are linearly
interpolated up to a cap, days with too many missing slots are excluded,
and the surviving days are min-max normalized into one (N, 48, 4) tensor
with missing slots set to -1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .atomic import atomic_write
from .errors import ConfigError, DataError, utf8_text
from .ingest import VesselTrack

# Canonical feature order of every matrix artifact in this package.
FEATURES = ("lat", "lon", "sog", "cog")
N_FEATURES = len(FEATURES)
N_SLOTS = 48
SLOT_SECONDS = 1800  # 30-minute grid
DAY_SECONDS = N_SLOTS * SLOT_SECONDS
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

DEFAULT_TOLERANCE_S = 60.0
DEFAULT_MIN_ENTRIES = 20
DEFAULT_MAX_FILL = 20
DEFAULT_MAX_MISSING_FRACTION = 0.30
SENTINEL = -1.0


@dataclass
class DailyGrid:
    """One vessel's day on the half-hour grid: slot i is 00:00 + i*30min.

    `values[i]` holds the feature row for slot i (NaN when missing);
    `mask[i]` is True iff slot i holds observed-or-interpolated data.
    """

    mmsi: str
    day: date
    values: np.ndarray  # (48, 4) float64, NaN rows where missing
    mask: np.ndarray  # (48,) bool

    def __post_init__(self):
        if self.values.shape != (N_SLOTS, N_FEATURES):
            raise DataError(f"daily grid must be {N_SLOTS}x{N_FEATURES}, got {self.values.shape}")
        if self.mask.shape != (N_SLOTS,):
            raise DataError(f"daily mask must have {N_SLOTS} entries")

    @property
    def present_count(self) -> int:
        return int(self.mask.sum())

    @property
    def missing_fraction(self) -> float:
        return 1.0 - self.present_count / N_SLOTS

    def copy(self) -> "DailyGrid":
        return DailyGrid(self.mmsi, self.day, self.values.copy(), self.mask.copy())


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature global extrema driving min-max normalization."""

    minimum: np.ndarray  # (4,)
    maximum: np.ndarray  # (4,)

    def __post_init__(self):
        if self.minimum.shape != (N_FEATURES,) or self.maximum.shape != (N_FEATURES,):
            raise DataError("normalization stats need one (min, max) pair per feature")
        for j, name in enumerate(FEATURES):
            if not self.maximum[j] > self.minimum[j]:
                raise DataError(
                    f"degenerate feature '{name}': min == max == {self.minimum[j]!r}"
                )

    def to_text(self) -> str:
        lines = []
        for j, name in enumerate(FEATURES):
            lines.append(f"{name}_min={float(self.minimum[j])!r}")
            lines.append(f"{name}_max={float(self.maximum[j])!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "NormalizationStats":
        entries = {}
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            try:
                entries[key.strip()] = float(value)
            except ValueError:
                raise DataError(f"stats file: {key.strip()} is not a number: "
                                f"{value.strip()!r}") from None
        minimum = np.empty(N_FEATURES)
        maximum = np.empty(N_FEATURES)
        for j, name in enumerate(FEATURES):
            try:
                minimum[j] = entries[f"{name}_min"]
                maximum[j] = entries[f"{name}_max"]
            except KeyError as exc:
                raise DataError(f"stats file is missing {exc.args[0]}") from None
        return cls(minimum=minimum, maximum=maximum)

    def save(self, path) -> None:
        with atomic_write(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "NormalizationStats":
        path = Path(path)
        if not path.exists():
            raise DataError(f"normalization stats not found: {path}")
        with utf8_text(path):
            return cls.from_text(path.read_text(encoding="utf-8"))


def vessel_days(track: VesselTrack) -> list[date]:
    """UTC days touched by the track, judged by each record's nearest slot."""
    slots = (track.records["t"] + SLOT_SECONDS // 2) // SLOT_SECONDS
    return [date.fromordinal(_EPOCH_ORDINAL + int(d)) for d in np.unique(slots // N_SLOTS)]


def resample_daily(
    track: VesselTrack, day: date, tolerance_s: float = DEFAULT_TOLERANCE_S
) -> DailyGrid:
    """Snap records onto the day's 48-slot grid.

    Slot i takes the record closest to its grid instant within +/-
    tolerance; ties prefer the earlier record. Each record can fill at
    most one slot (its nearest one). Only the records whose nearest slot
    lies in the day are read; the track must be sorted by time.
    """
    if tolerance_s < 0:
        raise ConfigError("tolerance must be >= 0 seconds")
    start = (day.toordinal() - _EPOCH_ORDINAL) * DAY_SECONDS
    half = SLOT_SECONDS // 2
    lo, hi = np.searchsorted(track.records["t"], [start - half, start + DAY_SECONDS - half])
    window = track.records[lo:hi]
    offset = window["t"] - start
    slot = (offset + half) // SLOT_SECONDS  # nearest slot, half rounds up
    distance = np.abs(offset - slot * SLOT_SECONDS)
    near = np.flatnonzero(distance <= tolerance_s)
    # Per slot, the nearest record; the stable sort keeps the earlier on ties.
    near = near[np.lexsort((distance[near], slot[near]))]
    best = near[np.unique(slot[near], return_index=True)[1]]

    values = np.full((N_SLOTS, N_FEATURES), np.nan)
    mask = np.zeros(N_SLOTS, dtype=bool)
    for j, name in enumerate(FEATURES):
        values[slot[best], j] = window[name][best]
    mask[slot[best]] = True
    return DailyGrid(mmsi=track.mmsi, day=day, values=values, mask=mask)


def interpolate_gaps(grid: DailyGrid, max_fill: int = DEFAULT_MAX_FILL) -> DailyGrid:
    """Fill interior missing runs of length <= max_fill by per-feature
    linear interpolation over slot index.

    Leading/trailing runs are never filled (no extrapolation) and longer
    runs stay missing. Present cells are never modified.
    """
    if max_fill < 0:
        raise ConfigError("max_fill must be >= 0")
    out = grid.copy()
    i = 0
    while i < N_SLOTS:
        if out.mask[i]:
            i += 1
            continue
        run_start = i
        while i < N_SLOTS and not out.mask[i]:
            i += 1
        run_end = i - 1  # inclusive
        interior = run_start > 0 and run_end < N_SLOTS - 1
        if not interior or (run_end - run_start + 1) > max_fill:
            continue
        left, right = run_start - 1, run_end + 1
        span = right - left
        for slot in range(run_start, run_end + 1):
            frac = (slot - left) / span
            out.values[slot] = out.values[left] + frac * (out.values[right] - out.values[left])
            out.mask[slot] = True
    return out


def denormalize(value: float, feature: int | str, stats: NormalizationStats) -> float:
    """Invert min-max normalization; the -1 sentinel passes through."""
    if value == SENTINEL:
        return SENTINEL
    j = FEATURES.index(feature) if isinstance(feature, str) else feature
    return float(stats.minimum[j] + value * (stats.maximum[j] - stats.minimum[j]))


# ---------------------------------------------------------------------------
# Pipeline driver: tracks -> grids -> normalized corpus, with accounting.
# ---------------------------------------------------------------------------

@dataclass
class PreprocessSummary:
    days_total: int = 0
    days_sparse_dropped: int = 0
    days_missing_dropped: int = 0
    days_kept: int = 0
    # Missing-fraction histogram over post-interpolation grids, 10 bins on [0, 1].
    missing_histogram: list[int] | None = None

    def to_text(self) -> str:
        lines = [
            f"days_total={self.days_total}",
            f"days_sparse_dropped={self.days_sparse_dropped}",
            f"days_missing_dropped={self.days_missing_dropped}",
            f"days_kept={self.days_kept}",
        ]
        if self.missing_histogram is not None:
            for i, count in enumerate(self.missing_histogram):
                lines.append(f"missing_fraction_bin.{i/10:.1f}_{(i+1)/10:.1f}={count}")
        return "\n".join(lines) + "\n"


def build_daily_grids(
    tracks: Iterable[VesselTrack],
    tolerance_s: float = DEFAULT_TOLERANCE_S,
    min_entries: int = DEFAULT_MIN_ENTRIES,
    max_fill: int = DEFAULT_MAX_FILL,
) -> tuple[list[DailyGrid], PreprocessSummary]:
    """Resample every vessel-day, drop days with fewer than `min_entries`
    present slots, interpolate gaps. The tracks are consumed one at a time,
    so they may be streamed."""
    if not 0 <= min_entries <= N_SLOTS:
        raise ConfigError(f"min_entries must be in [0, {N_SLOTS}]")
    grids: list[DailyGrid] = []
    summary = PreprocessSummary(missing_histogram=[0] * 10)
    for track in tracks:
        for day in vessel_days(track):
            summary.days_total += 1
            grid = resample_daily(track, day, tolerance_s)
            if grid.present_count < min_entries:
                summary.days_sparse_dropped += 1
                continue
            grid = interpolate_gaps(grid, max_fill)
            bin_index = min(int(grid.missing_fraction * 10), 9)
            summary.missing_histogram[bin_index] += 1
            grids.append(grid)
    return grids, summary


def normalize_corpus(
    grids: Sequence[DailyGrid],
    max_missing_fraction: float = DEFAULT_MAX_MISSING_FRACTION,
    summary: PreprocessSummary | None = None,
) -> tuple[np.ndarray, list[tuple[str, date]], NormalizationStats]:
    """Apply the 30%-missing rule, then min-max normalize the surviving days.

    The stats are each feature's extrema over every present cell of the
    surviving (post-interpolation) grids, so present cells land in [0, 1];
    missing slots become -1. Returns the (N, 48, 4) tensor, the
    (mmsi, day) id of each row, and the stats.
    """
    survivors = [g for g in grids if g.missing_fraction <= max_missing_fraction]
    if summary is not None:
        summary.days_missing_dropped += len(grids) - len(survivors)
        summary.days_kept += len(survivors)
    values = np.array([g.values for g in survivors]).reshape(-1, N_SLOTS, N_FEATURES)
    mask = np.array([g.mask for g in survivors], dtype=bool).reshape(-1, N_SLOTS)
    present = values[mask]
    if present.size == 0:
        raise DataError("cannot compute normalization stats: no present values")
    stats = NormalizationStats(minimum=present.min(axis=0), maximum=present.max(axis=0))
    tensor = np.full(values.shape, SENTINEL)
    tensor[mask] = (present - stats.minimum) / (stats.maximum - stats.minimum)
    return tensor, [(g.mmsi, g.day) for g in survivors], stats


# ---------------------------------------------------------------------------
# Corpus persistence: flat little-endian float64 binary + CSV sidecar.
# ---------------------------------------------------------------------------

def save_corpus(tensor: np.ndarray, ids: Sequence[tuple[str, date]],
                tensor_path, index_path) -> None:
    """Write (N, 48, 4) days as raw row-major '<f8' cells plus an id sidecar."""
    with atomic_write(tensor_path) as fh:
        fh.write(np.asarray(tensor, dtype="<f8").tobytes(order="C"))
    with atomic_write(index_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_index", "mmsi", "day"])
        for i, (mmsi, day) in enumerate(ids):
            writer.writerow([i, mmsi, day.isoformat()])


def load_corpus(tensor_path, index_path) -> tuple[np.ndarray, list[tuple[str, date]]]:
    """Read a persisted corpus back into (tensor, ids)."""
    tensor_path, index_path = Path(tensor_path), Path(index_path)
    if not tensor_path.exists() or not index_path.exists():
        raise DataError(f"corpus not found: {tensor_path} / {index_path}")
    raw = np.frombuffer(tensor_path.read_bytes(), dtype="<f8")
    if raw.size % (N_SLOTS * N_FEATURES) != 0:
        raise DataError(f"corpus file {tensor_path} is not a whole number of days")
    tensor = raw.reshape(-1, N_SLOTS, N_FEATURES).astype(np.float64)
    ids: list[tuple[str, date]] = []
    with utf8_text(index_path), open(index_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["record_index", "mmsi", "day"]:
            raise DataError(f"unexpected sidecar header in {index_path}: {header}")
        for row in reader:
            try:
                index, mmsi, day = row
                ids.append((mmsi, date.fromisoformat(day)))
            except ValueError:
                raise DataError(f"{index_path} line {reader.line_num}: expected "
                                f"record_index,mmsi,day, got {row}") from None
            if index != str(len(ids) - 1):  # a moved row would mislabel a tensor row
                raise DataError(f"{index_path} line {reader.line_num}: record_index "
                                f"{index!r} out of order, expected {len(ids) - 1}")
    if len(ids) != tensor.shape[0]:
        raise DataError(f"{index_path} lists {len(ids)} days but {tensor_path} "
                        f"holds {tensor.shape[0]}")
    return tensor, ids
