"""AIS CSV ingestion.

Parses MarineCadastre-style AIS exports into a table of validated records,
filters vessels by length, and groups the table into time-sorted per-vessel
tracks. Malformed rows are tallied per reason, never silently dropped.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import IO

import numpy as np

from .errors import ConfigError, DataError

# Logical field -> column header as shipped by MarineCadastre.gov exports.
# Extra columns and arbitrary column order are tolerated.
DEFAULT_SCHEMA = {
    "mmsi": "MMSI",
    "timestamp": "BaseDateTime",
    "lat": "LAT",
    "lon": "LON",
    "sog": "SOG",
    "cog": "COG",
    "length": "Length",
}

# MarineCadastre uses the "T" separator; older exports use a space.
_TIMESTAMP_FORMATS = ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S")

DEFAULT_MIN_LENGTH_M = 20.0


# One accepted AIS row, in memory and in the `tracks.npy` store: MMSI as an
# integer (rebuilt as a zero-padded 9-digit string), time as UTC epoch
# seconds, and `length` NaN when not reported.
TRACK_DTYPE = np.dtype([
    ("mmsi", "<i8"), ("t", "<i8"), ("lat", "<f8"), ("lon", "<f8"),
    ("sog", "<f8"), ("cog", "<f8"), ("length", "<f8"),
])
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


@dataclass(frozen=True)
class VesselTrack:
    """All accepted records of one MMSI, ascending in time, deduplicated.

    `records` is a TRACK_DTYPE view into the table the track came from.
    """

    mmsi: str
    records: np.ndarray

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class IngestReport:
    """Row-level accounting for one ingest pass.

    Invariant: rows_read == rows_accepted + rows_rejected, where rejected
    covers parse failures plus duplicate rows removed during grouping.
    """

    rows_read: int = 0
    rows_rejected: int = 0
    reject_reasons: dict[str, int] = field(default_factory=dict)
    vessels_kept: int = 0
    vessels_dropped_by_length: int = 0

    @property
    def rows_accepted(self) -> int:
        return self.rows_read - self.rows_rejected

    def reject(self, reason: str, n: int = 1) -> None:
        self.rows_rejected += n
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + n

    def merge(self, other: "IngestReport") -> None:
        self.rows_read += other.rows_read
        self.rows_rejected += other.rows_rejected
        for reason, n in other.reject_reasons.items():
            self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + n

    def to_text(self) -> str:
        lines = [
            f"rows_read={self.rows_read}",
            f"rows_accepted={self.rows_accepted}",
            f"rows_rejected={self.rows_rejected}",
        ]
        for reason in sorted(self.reject_reasons):
            lines.append(f"reject.{reason}={self.reject_reasons[reason]}")
        lines.append(f"vessels_kept={self.vessels_kept}")
        lines.append(f"vessels_dropped_by_length={self.vessels_dropped_by_length}")
        return "\n".join(lines) + "\n"


def _parse_timestamp(text: str) -> int | None:
    """UTC epoch seconds of a timestamp in one of the accepted formats."""
    for fmt in _TIMESTAMP_FORMATS:
        try:
            return (datetime.strptime(text, fmt) - _EPOCH) // _SECOND
        except ValueError:
            continue
    return None


def _parse_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _open_text(source) -> tuple[IO[str], bool]:
    """Accept a path, text stream, or byte stream. Returns (stream, owned)."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    if hasattr(source, "read"):  # binary stream
        return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
    raise ConfigError(f"unsupported AIS source: {type(source).__name__}")


def parse_ais_csv(
    source, schema: dict[str, str] | None = None
) -> tuple[np.ndarray, IngestReport]:
    """Parse one AIS CSV into a TRACK_DTYPE table plus a rejection report.

    `source` may be a path, an open text stream, or an open byte stream.
    `schema` maps logical fields (mmsi, timestamp, lat, lon, sog, cog,
    length) to column names; defaults match MarineCadastre headers.
    Accepted rows keep their input order. A missing required column raises
    ConfigError; an unreadable stream raises DataError. Bad rows never
    raise: they are tallied by reason.
    """
    columns = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown schema fields: {sorted(unknown)}")
        columns.update(schema)

    stream, owned = _open_text(source)
    rows: list[tuple] = []
    report = IngestReport()
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            return np.array(rows, dtype=TRACK_DTYPE), report

        index: dict[str, int] = {}
        for logical, column in columns.items():
            try:
                index[logical] = header.index(column)
            except ValueError:
                raise ConfigError(
                    f"missing required column '{column}' (field '{logical}')"
                ) from None
        max_index = max(index.values())

        for row in reader:
            if not row:
                continue
            report.rows_read += 1
            if len(row) <= max_index:
                report.reject("short_row")
                continue
            record, reason = _parse_row(row, index)
            if record is None:
                report.reject(reason)
            else:
                rows.append(record)
    except (UnicodeDecodeError, csv.Error, OSError) as exc:
        raise DataError(f"unreadable AIS stream: {exc}") from exc
    finally:
        if owned:
            stream.close()
    return np.array(rows, dtype=TRACK_DTYPE), report


def _parse_row(row: list[str], index: dict[str, int]) -> tuple[tuple | None, str]:
    mmsi = row[index["mmsi"]].strip()
    if len(mmsi) != 9 or not (mmsi.isascii() and mmsi.isdigit()):
        return None, "bad_mmsi"

    t = _parse_timestamp(row[index["timestamp"]].strip())
    if t is None:
        return None, "bad_timestamp"

    lat = _parse_float(row[index["lat"]])
    if lat is None:
        return None, "bad_lat"
    if not -90.0 <= lat <= 90.0:
        return None, "lat_out_of_range"

    lon = _parse_float(row[index["lon"]])
    if lon is None:
        return None, "bad_lon"
    if not -180.0 <= lon <= 180.0:
        return None, "lon_out_of_range"

    sog = _parse_float(row[index["sog"]])
    if sog is None:
        return None, "bad_sog"
    if sog < 0.0:
        return None, "sog_out_of_range"

    cog = _parse_float(row[index["cog"]])
    if cog is None:
        return None, "bad_cog"
    if not 0.0 <= cog <= 360.0:
        return None, "cog_out_of_range"
    if cog == 360.0:  # alias of due north
        cog = 0.0

    # Length is optional in the data; unknown/unparsable/negative values are
    # recorded as NaN and removed later by the length filter.
    raw_length = row[index["length"]].strip()
    length = _parse_float(raw_length) if raw_length else None
    if length is None or length < 0.0:
        length = math.nan

    return (int(mmsi), t, lat, lon, sog, cog, length), ""


def filter_by_length(
    records: np.ndarray, min_length: float = DEFAULT_MIN_LENGTH_M
) -> np.ndarray:
    """Keep records of vessels strictly longer than `min_length` meters.

    Records with unknown (NaN) length are dropped: the filter is defined on
    length and cannot be evaluated without it.
    """
    if min_length < 0:
        raise ConfigError("min_length must be >= 0")
    return records[records["length"] > min_length]


def group_and_sort(
    records: np.ndarray, report: IngestReport | None = None
) -> list[VesselTrack]:
    """Group records per MMSI and sort each track ascending in time.

    Rows sharing (MMSI, timestamp) are collapsed to the first one in input
    order: rows equal to it in every value field tally as "duplicate_row",
    differing rows as "duplicate_timestamp" when a report is supplied.
    Tracks are returned ordered by MMSI so output is stable across runs.
    """
    # lexsort is stable, so input order survives among equal (mmsi, t).
    table = records[np.lexsort((records["t"], records["mmsi"]))]
    first = np.ones(len(table), dtype=bool)
    first[1:] = ((table["mmsi"][1:] != table["mmsi"][:-1])
                 | (table["t"][1:] != table["t"][:-1]))
    if report is not None:
        head = table[np.maximum.accumulate(np.where(first, np.arange(len(table)), 0))]
        same = ~first
        for name in ("lat", "lon", "sog", "cog", "length"):
            a, b = table[name], head[name]
            same &= (a == b) | (np.isnan(a) & np.isnan(b))
        exact, conflicting = int(same.sum()), int((~first).sum() - same.sum())
        if exact:
            report.reject("duplicate_row", exact)
        if conflicting:
            report.reject("duplicate_timestamp", conflicting)
    return _split_tracks(table[first])


def _split_tracks(table: np.ndarray) -> list[VesselTrack]:
    """Cut a table sorted by (mmsi, t) into one track per MMSI (views)."""
    if not len(table):
        return []
    cuts = np.flatnonzero(np.diff(table["mmsi"])) + 1
    return [VesselTrack(mmsi=f"{chunk['mmsi'][0]:09d}", records=chunk)
            for chunk in np.split(table, cuts)]


def save_tracks(path, tracks: list[VesselTrack]) -> None:
    """Write every track's rows, in order, as one TRACK_DTYPE `.npy` file."""
    table = np.concatenate([t.records for t in tracks] or [np.empty(0, TRACK_DTYPE)])
    with open(path, "wb") as fh:
        np.save(fh, table)


def load_tracks(path) -> list[VesselTrack]:
    """Read a track store written by save_tracks; damage is a DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"track store not found: {path} (run `ingest` first)")
    try:
        table = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataError(f"track store {path} is damaged: {exc}") from None
    if table.dtype != TRACK_DTYPE or table.ndim != 1:
        raise DataError(f"track store {path} holds {table.dtype} {table.shape}, "
                        f"not a table of {TRACK_DTYPE}")
    mmsi_step, t_step = np.diff(table["mmsi"]), np.diff(table["t"])
    if ((mmsi_step < 0) | ((mmsi_step == 0) & (t_step <= 0))).any():
        raise DataError(f"track store {path} is not sorted by MMSI then time")
    return _split_tracks(table)
