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
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import IO

import numpy as np

from .atomic import atomic_write
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

# Reject reasons of the per-row checks, in check order: a row is tallied
# under the first check it fails.
_CHECKS = ("bad_mmsi", "bad_timestamp", "bad_lat", "lat_out_of_range", "bad_lon",
           "lon_out_of_range", "bad_sog", "sog_out_of_range", "bad_cog",
           "cog_out_of_range")
# Rows parsed per block: parse memory beyond the returned table grows with
# this, not with the file.
_BLOCK_ROWS = 1024

_ZERO = ord("0")
_MMSI_WEIGHTS = 10 ** np.arange(8, -1, -1, dtype=np.int64)
# Fixed-width stamps, YYYY-MM-DD[T ]hh:mm:ss: digit and punctuation columns.
_STAMP_WIDTH = 19
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_PUNCT = [4, 7, 13, 16]
_STAMP_PUNCT_CODES = np.array([ord(c) for c in "--::"])
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


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


def _parse_length(text: str) -> float | None:
    return _parse_float(text.strip())


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

    Rows are read and validated in blocks of _BLOCK_ROWS, one column at a
    time, so memory beyond the returned table is bounded by the block.
    """
    columns = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown schema fields: {sorted(unknown)}")
        columns.update(schema)

    stream, owned = _open_text(source)
    tables = [np.empty(0, TRACK_DTYPE)]
    tally = np.zeros(len(_CHECKS) + 1, dtype=np.int64)  # last: accepted
    report = IngestReport()
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            return tables[0], report

        index: dict[str, int] = {}
        for logical, column in columns.items():
            try:
                index[logical] = header.index(column)
            except ValueError:
                raise ConfigError(
                    f"missing required column '{column}' (field '{logical}')"
                ) from None
        max_index = max(index.values())
        fields = itemgetter(*(index[name] for name in DEFAULT_SCHEMA))

        for block in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            rows = [row for row in block if len(row) > max_index]
            read = len(block) - block.count([])  # blank lines are not rows
            report.rows_read += read
            if read > len(rows):
                report.reject("short_row", read - len(rows))
            if rows:
                table, block_tally = _parse_block(*zip(*map(fields, rows)))
                tables.append(table)
                tally += block_tally
    except (UnicodeDecodeError, csv.Error, OSError) as exc:
        raise DataError(f"unreadable AIS stream: {exc}") from exc
    finally:
        if owned:
            stream.close()
    for reason, n in zip(_CHECKS, tally.tolist()):
        if n:
            report.reject(reason, n)
    return np.concatenate(tables), report


def _parse_block(mmsi, stamp, lat, lon, sog, cog, length) -> tuple[np.ndarray, np.ndarray]:
    """Validate one block of rows given as string columns.

    Returns the accepted rows and, per entry of _CHECKS plus one for
    accepted rows, how many rows the block has whose first failing check it is.
    """
    mmsi, mmsi_ok = _mmsi_column(mmsi)
    t, t_ok = _timestamp_column(stamp)
    lat, lon, sog, cog = (_float_column(c, _parse_float) for c in (lat, lon, sog, cog))
    length = _float_column(length, _parse_length)
    # One row per entry of _CHECKS, in order, then one all-true row that
    # rows passing every check stop at. NaN marks an unparsable float.
    fails = np.stack([
        ~mmsi_ok, ~t_ok,
        np.isnan(lat), ~((-90.0 <= lat) & (lat <= 90.0)),
        np.isnan(lon), ~((-180.0 <= lon) & (lon <= 180.0)),
        np.isnan(sog), sog < 0.0,
        np.isnan(cog), ~((0.0 <= cog) & (cog <= 360.0)),
        np.ones(len(t), dtype=bool),
    ])
    first_failed = fails.argmax(axis=0)
    keep = first_failed == len(_CHECKS)

    table = np.empty(int(keep.sum()), TRACK_DTYPE)
    table["mmsi"], table["t"] = mmsi[keep], t[keep]
    table["lat"], table["lon"], table["sog"] = lat[keep], lon[keep], sog[keep]
    cog = cog[keep]
    table["cog"] = np.where(cog == 360.0, 0.0, cog)  # alias of due north
    # Length is optional in the data; unknown/unparsable/negative values are
    # recorded as NaN and removed later by the length filter.
    length = length[keep]
    table["length"] = np.where(length >= 0.0, length, np.nan)
    return table, np.bincount(first_failed, minlength=len(fails))


def _codepoints(values, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, width) code points of each value, and which values are exactly
    `width` long. A numpy str array drops trailing NULs and truncates
    longer values, so the length comes from Python."""
    n = len(values)
    chars = np.array(values, dtype=f"U{width}").view(np.uint32).reshape(n, width)
    return chars, np.fromiter(map(len, values), np.int64, n) == width


def _mmsi_column(values) -> tuple[np.ndarray, np.ndarray]:
    """MMSIs as integers, and which values are nine ASCII digits once
    stripped. Values that are not exactly nine ASCII digits as given are
    checked one by one."""
    chars, ok = _codepoints(values, 9)
    digits = chars - _ZERO  # unsigned: code points below "0" wrap to large values
    ok &= (digits <= 9).all(axis=1)
    mmsi = digits @ _MMSI_WEIGHTS
    for i in np.flatnonzero(~ok).tolist():
        text = values[i].strip()
        if len(text) == 9 and text.isascii() and text.isdigit():
            mmsi[i], ok[i] = int(text), True
    return mmsi, ok


def _timestamp_column(values) -> tuple[np.ndarray, np.ndarray]:
    """UTC epoch seconds, and which values parse.

    Values of the form YYYY-MM-DD[T ]hh:mm:ss in ASCII digits that name a
    real date and time are converted in one array pass (days-from-civil);
    every other value goes through _parse_timestamp, which also accepts
    e.g. unpadded fields and rejects impossible dates.
    """
    chars, ok = _codepoints(values, _STAMP_WIDTH)
    digits = chars[:, _STAMP_DIGITS].astype(np.int64) - _ZERO
    ok &= ((digits >= 0) & (digits <= 9)).all(axis=1)
    ok &= (chars[:, _STAMP_PUNCT] == _STAMP_PUNCT_CODES).all(axis=1)
    ok &= (chars[:, 10] == ord("T")) | (chars[:, 10] == ord(" "))
    pairs = digits[:, 0::2] * 10 + digits[:, 1::2]
    year, (month, day, hour, minute, second) = pairs[:, 0] * 100 + pairs[:, 1], pairs[:, 2:].T

    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + ((month == 2) & leap)
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
           & (hour < 24) & (minute < 60) & (second < 60))

    # Days from 1970-01-01 in the proleptic Gregorian calendar, with years
    # starting in March so the leap day falls last.
    y = year - (month <= 2)
    era = y // 400
    year_of_era = y - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = era * 146097 + day_of_era - 719468
    t = days * 86400 + hour * 3600 + minute * 60 + second

    for i in np.flatnonzero(~ok).tolist():
        parsed = _parse_timestamp(values[i].strip())
        if parsed is not None:
            t[i], ok[i] = parsed, True
    return t, ok


def _float_column(values, parse) -> np.ndarray:
    """Finite floats, NaN where `parse` (the per-value rule) gives None.

    The whole column is converted with `float` first; only a column with a
    value `float` rejects is converted value by value.
    """
    try:
        column = np.fromiter(map(float, values), np.float64, len(values))
    except ValueError:
        return np.array([parse(v) for v in values], dtype=np.float64)
    column[~np.isfinite(column)] = np.nan
    return column


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
        # Index of each row's group head; compared one field at a time.
        head = np.maximum.accumulate(np.where(first, np.arange(len(table)), 0))
        same = ~first
        for name in ("lat", "lon", "sog", "cog", "length"):
            a = table[name]
            b = a[head]
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
    with atomic_write(path) as fh:
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
