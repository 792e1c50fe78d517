"""Vessel tracks -> normalized per-day feature grids.

Each vessel-day becomes a 48-slot x 4-feature matrix on a 30-minute grid
anchored at 00:00 UTC. Every day of a run of whole vessels (one chunk of
the track store) is gridded in one array pass, as a DayGrids block: every
record is snapped to its nearest slot since the epoch, a new day row starts
wherever the vessel or the slot's day changes, and each slot keeps its
nearest record. Sparse days are dropped, interior gaps are linearly
interpolated up to a cap, days with too many missing slots are excluded,
and the surviving days are min-max normalized into one (N, 48, 4) tensor
with missing slots set to -1.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .atomic import atomic_write
from .config import N_SLOTS
from .errors import ConfigError, DataError, utf8_text

if TYPE_CHECKING:  # for annotations only: split, train and score never load the store
    from .tracks import Tracks

# Canonical feature order of every matrix artifact in this package.
FEATURES = ("lat", "lon", "sog", "cog")
N_FEATURES = len(FEATURES)
SLOT_SECONDS = 1800  # 30-minute grid

DEFAULT_TOLERANCE_S = 60.0
DEFAULT_MIN_ENTRIES = 20
DEFAULT_MAX_FILL = 20
DEFAULT_MAX_MISSING_FRACTION = 0.30
SENTINEL = -1.0

# The (MMSI, UTC day) identity of a vessel-day; an id array has one per tensor row.
IDS_DTYPE = np.dtype([("mmsi", "<i8"), ("day", "<M8[D]")])
_EPOCH = date(1970, 1, 1)


def mmsi_text(mmsi: int) -> str:
    """An MMSI as every artifact spells it: nine zero-padded ASCII digits."""
    return f"{mmsi:09d}"


def id_text(ids: np.ndarray) -> Iterator[tuple[str, str]]:
    """The (mmsi, day) text of each IDS_DTYPE id, made one at a time: the
    MMSI as `mmsi_text` spells it, the day as an ISO date."""
    return ((mmsi_text(mmsi), str(day)) for mmsi, day in zip(ids["mmsi"], ids["day"]))


def parse_id(mmsi: str, day: str) -> tuple[int, int]:
    """The IDS_DTYPE record, (MMSI, days since 1970-01-01), that `id_text`
    spells as `mmsi` and `day`; any other text is a ValueError whose
    message starts with the field's name."""
    if not (len(mmsi) == 9 and mmsi.isascii() and mmsi.isdigit()):
        raise ValueError(f"mmsi must be nine ASCII digits, got {mmsi!r}")
    try:
        parsed = date.fromisoformat(day)
        if parsed.isoformat() != day:  # Python 3.11 also reads 20190306 and 2019-W10-3
            raise ValueError
    except ValueError:
        raise ValueError(f"day must be a date as YYYY-MM-DD, got {day!r}") from None
    return int(mmsi), (parsed - _EPOCH).days


@dataclass(frozen=True)
class DayGrids:
    """Vessel-days on the half-hour grid, one row per day.

    Row n is the IDS_DTYPE vessel-day `ids[n]`; slot i is 00:00 + i*30min.
    `values` (N, 48, 4) is NaN where `mask` (N, 48) is False; `mask` is
    True where a slot holds observed or interpolated data.
    """

    ids: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> "DayGrids":
        """The days where the boolean `rows` is True."""
        return DayGrids(self.ids[rows], self.values[rows], self.mask[rows])


def _missing_fraction(mask: np.ndarray) -> np.ndarray:
    return 1.0 - mask.sum(axis=1) / N_SLOTS


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature global extrema driving min-max normalization."""

    minimum: np.ndarray  # (4,)
    maximum: np.ndarray  # (4,)

    def __post_init__(self):
        if self.minimum.shape != (N_FEATURES,) or self.maximum.shape != (N_FEATURES,):
            raise DataError("normalization stats need one (min, max) pair per feature")
        for j, name in enumerate(FEATURES):
            for key, value in ((f"{name}_min", self.minimum[j]), (f"{name}_max", self.maximum[j])):
                if not np.isfinite(value):
                    raise DataError(f"normalization stats: {key} is not finite: {float(value)!r}")
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


def resample_daily(tracks: Tracks, tolerance_s: float = DEFAULT_TOLERANCE_S) -> DayGrids:
    """Snap each vessel's records onto the grid of every UTC day it touches.

    A record belongs to the day of its nearest slot (half a slot rounds
    up), and every vessel-day that holds a record gets a row, in vessel then
    day order, even one with no record within tolerance. Slot i takes the
    record closest to its grid instant within +/- tolerance; ties prefer the
    earlier record. Each record can fill at most one slot (its nearest one).
    Each vessel's records must be whole and sorted by time.
    """
    if tolerance_s < 0:
        raise ConfigError("tolerance must be >= 0 seconds")
    t = tracks.records["t"]
    slot = (t + SLOT_SECONDS // 2) // SLOT_SECONDS  # nearest slot since the epoch
    distance = np.abs(t - slot * SLOT_SECONDS)
    mmsi = np.repeat(tracks.index["mmsi"], tracks.index["rows"])
    day = slot // N_SLOTS
    # (vessel, day) never decreases from row to row: a new day row starts
    # wherever either changes, so each slot's cell never decreases either.
    new = (np.diff(mmsi, prepend=mmsi[:1] - 1) != 0) | (np.diff(day, prepend=day[:1]) != 0)
    starts = np.flatnonzero(new)
    cell = (np.cumsum(new) - 1) * N_SLOTS + slot % N_SLOTS
    near = np.flatnonzero(distance <= tolerance_s)
    # Per cell, the nearest record; the stable sort keeps the earlier on ties.
    near = near[np.lexsort((distance[near], cell[near]))]
    best = near[np.flatnonzero(np.diff(cell[near], prepend=-1))]

    values = np.full((len(starts) * N_SLOTS, N_FEATURES), np.nan)
    mask = np.zeros(len(starts) * N_SLOTS, dtype=bool)
    for j, name in enumerate(FEATURES):
        values[cell[best], j] = tracks.records[name][best]
    mask[cell[best]] = True
    ids = np.empty(len(starts), IDS_DTYPE)
    ids["mmsi"], ids["day"] = mmsi[starts], day[starts].astype("datetime64[D]")
    return DayGrids(ids, values.reshape(-1, N_SLOTS, N_FEATURES), mask.reshape(-1, N_SLOTS))


def interpolate_gaps(values: np.ndarray, mask: np.ndarray,
                     max_fill: int = DEFAULT_MAX_FILL) -> None:
    """Fill interior missing runs of length <= max_fill in place, by
    per-feature linear interpolation over slot index.

    `values` is (N, 48, 4) and `mask` (N, 48); a filled slot is set in
    both. Leading/trailing runs are never filled (no extrapolation) and
    longer runs stay missing. Present cells are never modified.
    """
    if max_fill < 0:
        raise ConfigError("max_fill must be >= 0")
    slots = np.arange(N_SLOTS)
    # Each slot's nearest present slot at or before it (-1 if none) and at
    # or after it (N_SLOTS if none).
    left = np.maximum.accumulate(np.where(mask, slots, -1), axis=1)
    right = np.minimum.accumulate(np.where(mask, slots, N_SLOTS)[:, ::-1], axis=1)[:, ::-1]
    fill = ~mask & (left >= 0) & (right < N_SLOTS) & (right - left - 1 <= max_fill)
    day, slot = np.nonzero(fill)
    lo, hi = left[fill], right[fill]
    frac = (slot - lo) / (hi - lo)
    values[day, slot] = values[day, lo] + frac[:, None] * (values[day, hi] - values[day, lo])
    mask |= fill


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
    tracks: Iterable[Tracks],
    tolerance_s: float = DEFAULT_TOLERANCE_S,
    min_entries: int = DEFAULT_MIN_ENTRIES,
    max_fill: int = DEFAULT_MAX_FILL,
) -> tuple[DayGrids, PreprocessSummary]:
    """Resample every vessel-day, drop days with fewer than `min_entries`
    present slots, interpolate gaps. The runs of tracks (the track store's
    chunks, say) are gridded one at a time, so they may be streamed."""
    if not 0 <= min_entries <= N_SLOTS:
        raise ConfigError(f"min_entries must be in [0, {N_SLOTS}]")
    summary = PreprocessSummary()
    kept = [(np.empty(0, IDS_DTYPE), np.empty((0, N_SLOTS, N_FEATURES)),
             np.empty((0, N_SLOTS), bool))]
    for run in tracks:
        grids = resample_daily(run, tolerance_s)
        summary.days_total += len(grids)
        grids = grids.take(grids.mask.sum(axis=1) >= min_entries)
        interpolate_gaps(grids.values, grids.mask, max_fill)
        kept.append((grids.ids, grids.values, grids.mask))
    grids = DayGrids(*map(np.concatenate, zip(*kept)))
    summary.days_sparse_dropped = summary.days_total - len(grids)
    bins = np.minimum((_missing_fraction(grids.mask) * 10).astype(np.int64), 9)
    summary.missing_histogram = np.bincount(bins, minlength=10).tolist()
    return grids, summary


def normalize_corpus(
    grids: DayGrids,
    max_missing_fraction: float = DEFAULT_MAX_MISSING_FRACTION,
    summary: PreprocessSummary | None = None,
) -> tuple[np.ndarray, np.ndarray, NormalizationStats]:
    """Apply the 30%-missing rule, then min-max normalize the surviving days.

    The stats are each feature's extrema over every present cell of the
    surviving (post-interpolation) days, so present cells land in [0, 1];
    missing slots become -1. Returns the (N, 48, 4) tensor, the
    IDS_DTYPE id of each row, and the stats.
    """
    survivors = grids.take(_missing_fraction(grids.mask) <= max_missing_fraction)
    if summary is not None:
        summary.days_missing_dropped += len(grids) - len(survivors)
        summary.days_kept += len(survivors)
    present = survivors.values[survivors.mask]
    if present.size == 0:
        raise DataError("cannot compute normalization stats: no present values")
    stats = NormalizationStats(minimum=present.min(axis=0), maximum=present.max(axis=0))
    tensor = np.full(survivors.values.shape, SENTINEL)
    tensor[survivors.mask] = (present - stats.minimum) / (stats.maximum - stats.minimum)
    return tensor, survivors.ids, stats


# ---------------------------------------------------------------------------
# Corpus persistence: flat little-endian float64 binary + CSV sidecar.
# ---------------------------------------------------------------------------

def save_corpus(tensor: np.ndarray, ids: np.ndarray, tensor_path, index_path) -> None:
    """Write (N, 48, 4) days as raw row-major '<f8' cells plus an id sidecar.

    The cells are written from the tensor's own buffer when it is already
    C-ordered '<f8', as the corpora this pipeline makes are.
    """
    with atomic_write(tensor_path) as fh:
        fh.write(np.ascontiguousarray(tensor, dtype="<f8").data)
    with atomic_write(index_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_index", "mmsi", "day"])
        writer.writerows((i, mmsi, day) for i, (mmsi, day) in enumerate(id_text(ids)))


def load_corpus(tensor_path, index_path) -> tuple[np.ndarray, np.ndarray]:
    """Read a persisted corpus back into (tensor, IDS_DTYPE ids).

    The cells are read straight into the returned '<f8' tensor and the ids
    into an array sized from it, so loading holds the tensor once, plus
    16 bytes of id per day.
    """
    tensor_path, index_path = Path(tensor_path), Path(index_path)
    if not tensor_path.exists() or not index_path.exists():
        raise DataError(f"corpus not found: {tensor_path} / {index_path}")
    day_bytes = N_SLOTS * N_FEATURES * 8
    with open(tensor_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % day_bytes != 0:
            raise DataError(f"corpus file {tensor_path} is not a whole number of days")
        tensor = np.empty((size // day_bytes, N_SLOTS, N_FEATURES), dtype="<f8")
        if fh.readinto(tensor) != size:
            raise DataError(f"corpus file {tensor_path} changed while it was read")
    ids = np.empty(len(tensor), IDS_DTYPE)
    listed = -1
    with utf8_text(index_path), open(index_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["record_index", "mmsi", "day"]:
            raise DataError(f"unexpected sidecar header in {index_path}: {header}")
        for listed, row in enumerate(reader):
            try:
                index, mmsi, day = row
                ident = parse_id(mmsi, day)
            except ValueError:
                raise DataError(f"{index_path} line {reader.line_num}: expected "
                                f"record_index,mmsi,day, got {row}") from None
            if index != str(listed):  # a moved row would mislabel a tensor row
                raise DataError(f"{index_path} line {reader.line_num}: record_index "
                                f"{index!r} out of order, expected {listed}")
            if listed < len(ids):
                ids[listed] = ident
    if listed + 1 != len(ids):
        raise DataError(f"{index_path} lists {listed + 1} days but {tensor_path} "
                        f"holds {len(ids)}")
    return tensor, ids
