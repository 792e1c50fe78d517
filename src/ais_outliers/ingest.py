"""AIS CSV ingestion.

Parses MarineCadastre-style AIS exports into a table of validated records,
filters vessels by length, and groups the table into time-sorted per-vessel
tracks. Malformed rows are tallied per reason, never silently dropped.
The tracks go to one track store, `tracks.npy`, of 40-byte rows (time,
lat, lon, sog, cog) followed by a per-vessel (MMSI, rows) index.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from tokenize import TokenError
from typing import Iterable, Iterator, NamedTuple

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
# Source bytes read per chunk: parse memory beyond the returned table grows
# with this, not with the file.
_BLOCK_BYTES = 1 << 16
# Rows per block where csv.reader splits the lines: about a chunk's worth.
_CSV_BLOCK_ROWS = _BLOCK_BYTES // 64
_COMMA, _LF, _CR = b",\n\r"

_ZERO = ord("0")
_MMSI_WEIGHTS = 10 ** np.arange(8, -1, -1, dtype=np.int64)
# Fixed-width stamps, YYYY-MM-DD[T ]hh:mm:ss: digit and punctuation columns.
_STAMP_WIDTH = 19
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_PUNCT = [4, 7, 13, 16]
_STAMP_PUNCT_CODES = np.array([ord(c) for c in "--::"])
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# Float values are gathered this many bytes wide; wider ones take the
# per-value rule. Per width 0.._FLOAT_WIDTH, the words that keep a value's
# bytes and clear the rest of its gather.
_FLOAT_WIDTH = 24
_FLOAT_MASKS = np.where(np.arange(_FLOAT_WIDTH) < np.arange(_FLOAT_WIDTH + 1)[:, None],
                        np.uint8(255), np.uint8(0)).view(np.uint64)
# First bytes of the float values converted from their bytes.
_NUMBER_START = np.zeros(256, dtype=bool)
_NUMBER_START[list(b"0123456789+-.")] = True
# Zero bytes after a block's bytes, so that every gather stays inside them.
_PAD = bytes(_FLOAT_WIDTH)


# One accepted AIS row as parsed, filtered and merged: MMSI as an integer
# (rebuilt as a zero-padded 9-digit string), time as UTC epoch seconds, and
# `length` NaN when not reported. Spill runs hold these rows too, since the
# merge needs MMSI and length to classify duplicates.
TRACK_DTYPE = np.dtype([
    ("mmsi", "<i8"), ("t", "<i8"), ("lat", "<f8"), ("lon", "<f8"),
    ("sog", "<f8"), ("cog", "<f8"), ("length", "<f8"),
])
# One row of the `tracks.npy` store: the fields preprocessing reads. The
# MMSI is kept once per vessel in the store's index, and the length is
# dropped once the length filter has run.
STORE_DTYPE = np.dtype([(name, TRACK_DTYPE[name]) for name in ("t", "lat", "lon", "sog", "cog")])
# One entry of the store's index: a vessel's MMSI and its number of rows.
INDEX_DTYPE = np.dtype([("mmsi", "<i8"), ("rows", "<i8")])
# The bytes of a TRACK_DTYPE row that make its STORE_DTYPE row.
_STORE_BYTES = slice(TRACK_DTYPE.fields["t"][1], TRACK_DTYPE.fields["length"][1])
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


@dataclass(frozen=True)
class VesselTrack:
    """All accepted records of one MMSI, ascending in time, deduplicated.

    `records` is a view into the table the track came from: TRACK_DTYPE
    rows in ingest, STORE_DTYPE rows when read back by TrackReader.
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


def _read_chunks(source) -> Iterator[bytes]:
    """The bytes of `source` in chunks of about _BLOCK_BYTES, each cut after
    its last line end (`\\n` or `\\r`), so every chunk starts a line; only
    the last may end without a line end.

    A path is opened as bytes and closed when done. A byte stream is read
    as it is, and a text stream is encoded read by read with
    `surrogatepass`; neither is closed. Chunks of a path or byte stream are
    checked to be UTF-8 (UnicodeDecodeError) before they are handed on.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _line_chunks(fh.read, check=True)
    elif isinstance(source, io.TextIOBase):
        yield from _line_chunks(
            lambda n: source.read(n).encode("utf-8", "surrogatepass"), check=False)
    elif hasattr(source, "read"):
        yield from _line_chunks(source.read, check=True)
    else:
        raise ConfigError(f"unsupported AIS source: {type(source).__name__}")


def _line_chunks(read, check: bool) -> Iterator[bytes]:
    pending = []  # what was read since the last line end
    while block := read(_BLOCK_BYTES):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            yield _utf8(b"".join([*pending, block[:cut]]), check)
            pending, block = [], block[cut:]
        pending.append(block)
    if tail := b"".join(pending):
        yield _utf8(tail, check)


def _utf8(chunk: bytes, check: bool) -> bytes:
    if check and not chunk.isascii():
        chunk.decode("utf-8")  # raises UnicodeDecodeError
    return chunk


def parse_ais_csv(
    source, schema: dict[str, str] | None = None
) -> tuple[np.ndarray, IngestReport]:
    """Parse one AIS CSV into a TRACK_DTYPE table plus a rejection report.

    `source` may be a path, an open text stream, or an open byte stream; a
    stream is read from where it stands and left open. `schema` maps
    logical fields (mmsi, timestamp, lat, lon, sog, cog, length) to column
    names; defaults match MarineCadastre headers. Accepted rows keep their
    input order. A missing required column raises ConfigError; an
    unreadable stream (bytes that are not UTF-8, say) raises DataError.
    Bad rows never raise: they are tallied by reason.

    The source is read as bytes in chunks of about _BLOCK_BYTES that end at
    a line end. Each chunk is split into fields in one array pass over its
    bytes: `,` ends a field and `\\n` or `\\r` a line, so `\\r\\n` leaves a
    blank line behind, and blank lines are not rows. The fields the schema
    names are validated one column at a time as byte spans of the chunk,
    so memory beyond the returned table is bounded by the chunk. From the
    first chunk that holds a `"` (or a field longer than
    csv.field_size_limit()) to the end of the file, csv.reader splits the
    lines instead; its rows are turned into byte spans for the same
    column checks. That chunk starts a line with no quote before it, so
    both ways give the rows csv.reader gives on the whole file.
    """
    columns = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown schema fields: {sorted(unknown)}")
        columns.update(schema)

    # Accepted rows as bytes, appended block by block: the blocks' tables
    # are freed as they go instead of all being held until a concatenation.
    data = bytearray()
    tally = np.zeros(len(_CHECKS) + 1, dtype=np.int64)  # last: accepted
    report = IngestReport()
    try:
        with closing(_blocks(source, columns)) as blocks:
            for raw, starts, ends, read, short in blocks:
                report.rows_read += read
                if short:
                    report.reject("short_row", short)
                if starts.shape[1]:
                    table, block_tally = _parse_block(raw, starts, ends)
                    data += table.data
                    tally += block_tally
    except (UnicodeDecodeError, csv.Error, OSError) as exc:
        raise DataError(f"unreadable AIS stream: {exc}") from exc
    for reason, n in zip(_CHECKS, tally.tolist()):
        if n:
            report.reject(reason, n)
    return np.frombuffer(data, TRACK_DTYPE), report


def _blocks(source, columns: dict[str, str]) -> Iterator[tuple]:
    """The rows of `source` after its header, in blocks of
    (bytes, starts, ends, lines read, short rows): `starts` and `ends` are
    (7, rows) offsets into the bytes of each row's DEFAULT_SCHEMA fields,
    for the rows with enough fields; blank lines are not read."""
    with closing(_read_chunks(source)) as chunks:
        first = next(chunks, b"")
        if not first:
            return
        end = min((i for i in (first.find(b"\n"), first.find(b"\r")) if i >= 0),
                  default=len(first))
        if b'"' in first or end > csv.field_size_limit():
            yield from _csv_blocks(chain([first], chunks), columns)
            return
        header = first[:end].decode("utf-8", "surrogatepass").split(",") if end else []
        fields = _field_indexes(header, columns)
        for chunk in chain([first[end + 1:]], chunks):
            block = None if b'"' in chunk else _tokenize(chunk, fields)
            if block is None:
                yield from _csv_blocks(chain([chunk], chunks), columns, fields)
                return
            yield block


def _field_indexes(header: list[str], columns: dict[str, str]) -> np.ndarray:
    """Column index of each logical field, in DEFAULT_SCHEMA order."""
    index = []
    for logical, column in columns.items():
        try:
            index.append(header.index(column))
        except ValueError:
            raise ConfigError(f"missing required column '{column}' (field '{logical}')") from None
    return np.array(index)


def _tokenize(chunk: bytes, fields: np.ndarray) -> tuple | None:
    """The block of a chunk of whole lines without a quote, or None when
    one of its fields is longer than csv.field_size_limit()."""
    buf = np.frombuffer(chunk, np.uint8)
    near = np.flatnonzero(buf <= _COMMA)  # the separators and a few other bytes
    kind = buf[near]
    is_separator = (kind == _COMMA) | (kind == _LF) | (kind == _CR)
    ends, kind = near[is_separator], kind[is_separator]
    if chunk[-1:] not in (b"\n", b"\r"):  # the last line of a file without a line end
        ends, kind = np.append(ends, len(chunk)), np.append(kind, _LF)
    # A field ends at a separator and starts after the one before it.
    starts = np.concatenate(([0], ends[:-1] + 1))
    limit = csv.field_size_limit()
    if len(chunk) > limit and (ends - starts).max() > limit:
        return None
    line_end = np.flatnonzero(kind != _COMMA)  # each line's last field
    line_first = np.concatenate(([0], line_end[:-1] + 1))
    n_fields = line_end - line_first + 1
    blank = (n_fields == 1) & (ends[line_end] == starts[line_end])
    read = len(line_end) - int(blank.sum())
    at = line_first[n_fields > fields.max()] + fields[:, None]
    return chunk, starts[at], ends[at], read, read - at.shape[1]


def _csv_blocks(chunks: Iterable[bytes], columns: dict[str, str],
                fields: np.ndarray | None = None) -> Iterator[tuple]:
    """_blocks of the rows csv.reader makes of the lines in `chunks`, split
    as a file opened with newline="" splits them, in blocks of
    _CSV_BLOCK_ROWS rows. The first row is the header unless `fields` is
    given."""
    reader = csv.reader(chain.from_iterable(
        io.StringIO(chunk.decode("utf-8", "surrogatepass"), newline="") for chunk in chunks))
    if fields is None:
        header = next(reader, None)
        if header is None:
            return
        fields = _field_indexes(header, columns)
    take, max_index = itemgetter(*fields.tolist()), int(fields.max())
    for rows in iter(lambda: list(islice(reader, _CSV_BLOCK_ROWS)), []):
        read = len(rows) - rows.count([])
        values = list(chain.from_iterable(map(take, [row for row in rows if len(row) > max_index])))
        # One encoding of all values, each followed by "\n": where no value
        # holds a "\n", those bytes are where the values end.
        raw = "\n".join([*values, ""]).encode("utf-8", "surrogatepass")
        ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == _LF)
        if len(ends) != len(values):
            lengths = np.fromiter((len(v.encode("utf-8", "surrogatepass")) for v in values),
                                  np.int64, len(values))
            ends = np.cumsum(lengths + 1) - 1
        starts = np.concatenate(([-1], ends))[:-1] + 1
        yield (raw, starts.reshape(-1, len(fields)).T, ends.reshape(-1, len(fields)).T,
               read, read - len(values) // len(fields))


class _Bytes(NamedTuple):
    """The bytes a block's field spans point into."""

    raw: bytes
    chars: np.ndarray  # `raw` then _PAD, as uint8
    odd: np.ndarray | None  # NUL and non-ASCII bytes before each offset; None if none

    @classmethod
    def of(cls, raw: bytes) -> "_Bytes":
        chars = np.frombuffer(raw + _PAD, np.uint8)
        odd = None
        if not raw.isascii() or b"\0" in raw:
            odd = np.concatenate(([0], np.cumsum((chars == 0) | (chars >= 0x80))))
        return cls(raw, chars, odd)

    def text(self, start: int, end: int) -> str:
        return self.raw[start:end].decode("utf-8", "surrogatepass")

    def gather(self, start: np.ndarray, width: int) -> np.ndarray:
        """(n, width) bytes from each offset in `start`, through a view of
        every `width` bytes in a row (sliding_window_view, without its
        checks)."""
        windows = np.ndarray((len(self.chars) - width + 1, width), np.uint8, self.chars,
                             strides=(1, 1))
        return windows[start]


def _parse_block(raw: bytes, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate one block of rows given as (7, rows) spans of `raw`, one
    row of spans per DEFAULT_SCHEMA field.

    Returns the accepted rows and, per entry of _CHECKS plus one for
    accepted rows, how many rows the block has whose first failing check it is.
    """
    block = _Bytes.of(raw)
    mmsi, mmsi_ok = _mmsi_column(block, starts[0], ends[0])
    t, t_ok = _timestamp_column(block, starts[1], ends[1])
    lat, lon, sog, cog = (_float_column(block, starts[i], ends[i], _parse_float)
                          for i in range(2, 6))
    length = _float_column(block, starts[6], ends[6], _parse_length)
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


def _mmsi_column(block: _Bytes, start: np.ndarray,
                 end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MMSIs as integers, and which values are nine ASCII digits once
    stripped. Values that are not exactly nine ASCII digits as given are
    checked one by one."""
    digits = block.gather(start, 9) - _ZERO  # unsigned: bytes below "0" wrap to large values
    ok = (end - start == 9) & (digits <= 9).all(axis=1)
    mmsi = digits @ _MMSI_WEIGHTS
    for i in np.flatnonzero(~ok).tolist():
        text = block.text(start[i], end[i]).strip()
        if len(text) == 9 and text.isascii() and text.isdigit():
            mmsi[i], ok[i] = int(text), True
    return mmsi, ok


def _timestamp_column(block: _Bytes, start: np.ndarray,
                      end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """UTC epoch seconds, and which values parse.

    Values of the form YYYY-MM-DD[T ]hh:mm:ss in ASCII digits that name a
    real date and time are converted in one array pass (days-from-civil);
    every other value goes through _parse_timestamp, which also accepts
    e.g. unpadded fields and rejects impossible dates.
    """
    chars = block.gather(start, _STAMP_WIDTH)
    ok = end - start == _STAMP_WIDTH
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
        parsed = _parse_timestamp(block.text(start[i], end[i]).strip())
        if parsed is not None:
            t[i], ok[i] = parsed, True
    return t, ok


def _float_column(block: _Bytes, start: np.ndarray, end: np.ndarray, parse) -> np.ndarray:
    """Finite floats, NaN where `parse` (the per-value rule, on the decoded
    value) gives None.

    Values that start like a number (a digit, sign or point), fit in
    _FLOAT_WIDTH bytes and hold no NUL and no byte of 0x80 or above go
    through _float_values. Blank values are NaN, as `parse` makes them, and
    every other value goes through `parse`.
    """
    width = end - start
    fast = (width > 0) & (width <= _FLOAT_WIDTH) & _NUMBER_START[block.chars[start]]
    if block.odd is not None:
        fast &= block.odd[end] == block.odd[start]
    if fast.all():
        column = _float_values(block, start, width, parse)
    else:
        column = np.full(len(start), np.nan)
        column[fast] = _float_values(block, start[fast], width[fast], parse)
        for i in np.flatnonzero(~fast & (width > 0)).tolist():
            value = parse(block.text(start[i], end[i]))
            if value is not None:
                column[i] = value
    column[~np.isfinite(column)] = np.nan
    return column


def _float_values(block: _Bytes, start: np.ndarray, width: np.ndarray, parse) -> np.ndarray:
    """`float` of each value's bytes, gathered NUL-padded into one
    fixed-width bytes array: one `float` call per value. For the values
    _float_column sends here, `float` on the bytes accepts only what
    `parse` accepts, and gives the same value. If `float` rejects one,
    each value is converted on its own and the rejected ones go through
    `parse` (None becomes NaN)."""
    chars = block.gather(start, _FLOAT_WIDTH)
    chars.view(np.uint64)[...] &= _FLOAT_MASKS[width]  # NULs after each value
    values = chars.view(f"S{_FLOAT_WIDTH}").ravel().tolist()  # numpy drops trailing NULs
    try:
        return np.fromiter(map(float, values), np.float64, len(values))
    except ValueError:
        return np.array([_float_or_parse(v, parse) for v in values], dtype=np.float64)


def _float_or_parse(value: bytes, parse) -> float | None:
    try:
        return float(value)
    except ValueError:
        return parse(value.decode("ascii"))


def filter_by_length(
    records: np.ndarray, min_length: float = DEFAULT_MIN_LENGTH_M
) -> np.ndarray:
    """Keep records of vessels strictly longer than `min_length` meters.

    Records with unknown (NaN) length are dropped: the filter is defined on
    length and cannot be evaluated without it.
    """
    if not min_length >= 0:
        raise ConfigError("min_length must be >= 0")
    return _take_rows(records, records["length"] > min_length)


def _take_rows(table: np.ndarray, index) -> np.ndarray:
    """`table[index]` for a 1-D structured table, copied as uint8 rows of
    its bytes: structured-row copies run several times slower."""
    return table[:, None].view(np.uint8)[index].view(table.dtype).reshape(-1)


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
    order = np.lexsort((records["t"], records["mmsi"]))
    mmsi, t = records["mmsi"][order], records["t"][order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (mmsi[1:] != mmsi[:-1]) | (t[1:] != t[:-1])
    del mmsi, t
    heads = np.flatnonzero(first)  # where each (mmsi, t) group starts in `order`
    if report is not None and len(heads) < len(order):
        dups = np.flatnonzero(~first)
        # Each duplicate row against its group's first row, one field at a time.
        row, head = order[dups], order[heads[np.searchsorted(heads, dups) - 1]]
        same = np.ones(len(dups), dtype=bool)
        for name in ("lat", "lon", "sog", "cog", "length"):
            a, b = records[name][row], records[name][head]
            same &= (a == b) | (np.isnan(a) & np.isnan(b))
        exact = int(same.sum())
        if exact:
            report.reject("duplicate_row", exact)
        if exact < len(dups):
            report.reject("duplicate_timestamp", len(dups) - exact)
    kept = order[heads]
    del order, first, heads  # before the kept rows are copied
    return _split_tracks(_take_rows(records, kept))


def _split_tracks(table: np.ndarray) -> list[VesselTrack]:
    """Cut a table sorted by (mmsi, t) into one track per MMSI (views)."""
    if not len(table):
        return []
    cuts = np.flatnonzero(np.diff(table["mmsi"])) + 1
    return [VesselTrack(mmsi=f"{chunk['mmsi'][0]:09d}", records=chunk)
            for chunk in np.split(table, cuts)]


def save_tracks(path, tracks: Iterable[VesselTrack]) -> int:
    """Write TRACK_DTYPE tracks, ascending by MMSI, as the track store: the
    rows as one STORE_DTYPE `.npy` array (so `np.load` reads them), then
    the index as one INDEX_DTYPE `.npy` array of (MMSI, rows) per vessel.

    Consecutive tracks of one MMSI (the time slabs of a merge) make one
    index entry. The rows are written as they arrive, so only the track in
    hand is held, plus the index. numpy pads the header so that its length
    does not depend on the row count: a placeholder header goes first and
    the real one over it once the count is known. Returns the number of
    rows written.
    """
    mmsis, counts = [], []
    with atomic_write(path) as fh:
        fh.write(_npy_header(STORE_DTYPE, 0))
        for track in tracks:
            fh.write(np.ascontiguousarray(
                track.records[:, None].view(np.uint8)[:, _STORE_BYTES]).data)
            mmsi = int(track.mmsi)
            if mmsis and mmsis[-1] == mmsi:
                counts[-1] += len(track)
            else:
                mmsis.append(mmsi)
                counts.append(len(track))
            del track  # before the next one is made
        index = np.empty(len(mmsis), INDEX_DTYPE)
        index["mmsi"], index["rows"] = mmsis, counts
        np.lib.format.write_array(fh, index)
        rows = sum(counts)
        fh.seek(0)
        fh.write(_npy_header(STORE_DTYPE, rows))
    return rows


def _npy_header(dtype: np.dtype, rows: int) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False, "shape": (rows,)})
    return out.getvalue()


def ingest_files(paths, tracks_path, spill_dir, schema: dict[str, str] | None = None,
                 min_length: float = DEFAULT_MIN_LENGTH_M) -> tuple[IngestReport, dict]:
    """Parse, length-filter and group AIS CSVs into the track store at
    `tracks_path`, with memory set by the largest file rather than by the
    corpus or its largest vessel.

    Each file is parsed, filtered and sorted by (MMSI, time) on its own and
    spilled as a sorted run into `spill_dir`. The runs are then merged in
    ascending MMSI order, in batches of at most the largest run's rows:
    whole vessels, or time slabs of a vessel with more rows than that. Each
    batch goes through group_and_sort with its rows in file order, and rows
    sharing (MMSI, time) always fall in one batch, so among them the first
    in input order wins, as if every file had been grouped at once.
    `spill_dir` is replaced on entry and removed on exit, on error too.

    Returns the report and the rows, vessels and merge batches written.
    """
    spill_dir = Path(spill_dir)
    shutil.rmtree(spill_dir, ignore_errors=True)
    spill_dir.mkdir(parents=True)
    try:
        report = IngestReport()
        runs, kept = _spill_runs(paths, spill_dir, schema, min_length, report)
        report.vessels_kept = len(kept)  # grouping keeps one row of every vessel at least
        takes = _plan_batches(runs, kept)
        with closing(_merge_runs(runs, takes, report)) as tracks:  # closes the runs
            rows = save_tracks(tracks_path, tracks)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return report, {"rows_kept": rows, "vessels_kept": report.vessels_kept,
                    "merge_batches": takes.shape[1]}


def _spill_runs(paths, spill_dir: Path, schema, min_length: float, report: IngestReport):
    """Parse, filter and sort each file into a run file in `spill_dir`.

    Returns, per run with rows, (file, its MMSIs, their row offsets plus
    the end), and every kept MMSI in ascending order. Tallies the files'
    rows and the vessels dropped by length into `report`.
    """
    runs = []
    seen = kept = np.empty(0, np.int64)
    for i, path in enumerate(paths):
        table, file_report = parse_ais_csv(path, schema)
        report.merge(file_report)
        seen = _union(seen, table["mmsi"])
        table = filter_by_length(table, min_length)
        if len(table):
            table = _take_rows(table, np.lexsort((table["t"], table["mmsi"])))
            run = spill_dir / f"{i:06d}.run"
            table.tofile(run)
            mmsi, starts = np.unique(table["mmsi"], return_index=True)
            runs.append((run, mmsi, np.append(starts, len(table))))
            kept = _union(kept, mmsi)
        del table  # before the next file is parsed
    report.vessels_dropped_by_length = len(seen) - len(kept)
    return runs, kept


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.union1d(a, b)`, which on numpy 2.4 imports `numpy.ma` through a
    flagless `np.unique`; with a flag, `np.unique` just sorts."""
    return np.unique(np.concatenate([a, b]), return_index=True)[0]


def _plan_batches(runs, kept: np.ndarray) -> np.ndarray:
    """Rows of each run (axis 0) in each merge batch (axis 1).

    A batch holds at most as many rows as the largest run (the cap): whole
    vessels, in MMSI order, or one time slab of a vessel with more rows
    than the cap (see _slab_ends). Each run's rows in a batch follow its
    rows in the previous batch, so every run is read once, front to back.
    """
    rows = np.zeros(len(kept), np.int64)  # per vessel, over all runs
    for _, mmsi, offsets in runs:
        rows[np.searchsorted(kept, mmsi)] += np.diff(offsets)
    before = np.concatenate([[0], np.cumsum(rows)])  # rows before each vessel
    cap = max((offsets[-1] for _, _, offsets in runs), default=0)
    stops = [0]
    while stops[-1] < len(kept):
        stop = int(np.searchsorted(before, before[stops[-1]] + cap, side="right")) - 1
        stops.append(max(stop, stops[-1] + 1))
    last = kept[np.array(stops[1:], dtype=np.int64) - 1]  # each batch's last MMSI
    # Rows of each run up to the end of each batch.
    ends = np.array([offsets[np.searchsorted(mmsi, last, side="right")]
                     for _, mmsi, offsets in runs], dtype=np.int64).reshape(len(runs), len(last))
    # A batch above the cap is one vessel: cut it into slabs.
    large = np.flatnonzero(np.diff(before[stops]) > cap).tolist()
    if large:
        with ExitStack() as stack:
            handles = [stack.enter_context(open(run, "rb")) for run, _, _ in runs]
            pieces, done = [], 0
            for batch in large:
                starts = ends[:, batch - 1] if batch else np.zeros(len(runs), np.int64)
                pieces += [ends[:, done:batch], _slab_ends(handles, starts, ends[:, batch], cap)]
                done = batch
            ends = np.concatenate(pieces + [ends[:, done:]], axis=1)
    return np.diff(ends, axis=1, prepend=0)


def _slab_ends(handles, starts: np.ndarray, stops: np.ndarray, cap: int) -> np.ndarray:
    """Per run (axis 0), the row at which each time slab of one vessel but
    the last ends (axis 1).

    The vessel's rows are rows `starts`..`stops` of the runs open as
    `handles`. A slab takes, from every run, the rows whose time lies
    between the previous slab's last time (exclusive) and its own
    (inclusive): at most `cap` rows, unless one time alone has more. So
    rows sharing a time are never cut apart. Memory is one int64 per row
    of the vessel: its times are read once and sorted to find each slab's
    last time, then read again one run at a time to count each run's rows
    up to it.
    """
    t = np.empty(int((stops - starts).sum()), np.int64)
    pos = 0
    for fh, start, stop in zip(handles, starts.tolist(), stops.tolist()):
        _read_times(fh, start, t[pos:pos + stop - start])
        pos += stop - start
    t.sort()
    last_times, start = [], 0
    while start + cap < len(t):
        end = int(np.searchsorted(t, t[start + cap]))  # the times whose rows all fit
        if end == start:  # one time has more rows than the cap: a slab of its own
            end = int(np.searchsorted(t, t[start], side="right"))
            if end == len(t):
                break
        last_times.append(t[end - 1])
        start = end
    last_times = np.array(last_times, dtype=np.int64)
    ends = np.empty((len(handles), len(last_times)), np.int64)
    for i, (fh, start, stop) in enumerate(zip(handles, starts.tolist(), stops.tolist())):
        times = t[:stop - start]
        _read_times(fh, start, times)
        ends[i] = start + np.searchsorted(times, last_times, side="right")
    return ends


def _read_times(fh, start: int, out: np.ndarray) -> None:
    """Fill `out` with the times of the run rows from row `start` on, read
    _CHUNK_ROWS rows at a time."""
    fh.seek(start * TRACK_DTYPE.itemsize)
    chunk = np.empty(min(_CHUNK_ROWS, len(out)), TRACK_DTYPE)
    for i in range(0, len(out), _CHUNK_ROWS):
        rows = chunk[:len(out) - i]
        _read_rows(fh, rows.view(np.uint8))
        out[i:i + len(rows)] = rows["t"]


def _read_rows(fh, raw: np.ndarray) -> None:
    """Fill the bytes `raw` from the run open as `fh`."""
    if fh.readinto(raw) != len(raw):
        raise DataError(f"ingest spill file {fh.name} is short")


def _merge_runs(runs, takes: np.ndarray, report: IngestReport) -> Iterator[VesselTrack]:
    """Read each batch's rows from the runs, in file order, and group them.

    A vessel cut into time slabs comes out as one track per slab."""
    with ExitStack() as stack:
        handles = [stack.enter_context(open(run, "rb")) for run, _, _ in runs]
        for take in takes.T:
            batch = np.empty(int(take.sum()), TRACK_DTYPE)
            raw, pos = batch.view(np.uint8), 0
            for fh, n in zip(handles, take.tolist()):
                _read_rows(fh, raw[pos:pos + n * TRACK_DTYPE.itemsize])
                pos += n * TRACK_DTYPE.itemsize
            tracks = group_and_sort(batch, report)
            del batch, raw
            yield from tracks
            del tracks  # before the next batch is read


# Rows read per chunk when streaming a track store back (the reader's
# memory is set by this plus the largest vessel's track and the index, not
# by the store), and when reading a vessel's times from the runs.
_CHUNK_ROWS = 1 << 12


class TrackReader:
    """Streams a store written by save_tracks as VesselTracks of STORE_DTYPE
    records.

    The index is read and checked first; then the rows, in chunks of whole
    vessels of at most _CHUNK_ROWS rows (a larger vessel is a chunk of its
    own). Damage is a one-line DataError naming `ingest`: a missing file, a
    foreign header or dtype, a size other than the headers give, MMSIs not
    strictly ascending, a vessel count below 1 or counts not adding up to
    the rows (raised before any track), and times not strictly ascending
    within a vessel (raised when the reader reaches them). `rows`,
    `vessels` and `chunks` count what has been read.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.rows = self.vessels = self.chunks = 0

    def __iter__(self) -> Iterator[VesselTrack]:
        if not self.path.exists():
            raise DataError(f"track store not found: {self.path} (run `ingest` first)")
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            n = self._read_header(fh, STORE_DTYPE)
            rows_at = fh.tell()
            if rows_at + n * STORE_DTYPE.itemsize > size:
                raise self._damaged(f"its header gives {n} rows, more than it holds")
            fh.seek(rows_at + n * STORE_DTYPE.itemsize)
            vessels = self._read_header(fh, INDEX_DTYPE)
            if size != fh.tell() + vessels * INDEX_DTYPE.itemsize:
                raise self._damaged(f"its index header gives {vessels} vessels, but "
                                    f"{size - fh.tell()} bytes follow it")
            index = np.empty(vessels, INDEX_DTYPE)
            fh.readinto(index.view(np.uint8))  # the size was checked
            mmsi, counts = index["mmsi"], index["rows"]
            if (np.diff(mmsi) <= 0).any():
                raise self._damaged("its index is not sorted by MMSI")
            # Counts of at most n cannot overflow their sum.
            if ((counts < 1) | (counts > n)).any() or counts.sum() != n:
                raise self._damaged(f"its index does not count its {n} rows")
            ends = np.cumsum(counts)
            fh.seek(rows_at)
            first = start = 0
            while first < len(ends):
                stop = max(int(np.searchsorted(ends, start + _CHUNK_ROWS, side="right")),
                           first + 1)
                table = np.empty(int(ends[stop - 1]) - start, STORE_DTYPE)
                fh.readinto(table.view(np.uint8))
                cuts = ends[first:stop - 1] - start
                ascending = np.diff(table["t"]) > 0
                ascending[cuts - 1] = True  # each vessel's times start afresh
                if not ascending.all():
                    raise self._damaged("its times do not ascend within a vessel")
                self.chunks += 1
                self.rows += len(table)
                self.vessels += stop - first
                names = [f"{m:09d}" for m in mmsi[first:stop].tolist()]
                yield from map(VesselTrack, names, np.split(table, cuts))
                first, start = stop, int(ends[stop - 1])

    def _read_header(self, fh, dtype: np.dtype) -> int:
        """The length of the 1-D `dtype` array whose `.npy` header comes
        next in `fh`, after checking the header."""
        try:
            version = np.lib.format.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy version {version}")
            read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                    else np.lib.format.read_array_header_2_0)
            shape, _, found = read(fh)
        except (ValueError, EOFError, TokenError) as exc:  # numpy tokenizes a bad header
            raise self._damaged(str(exc)) from None
        if found != dtype or len(shape) != 1 or shape[0] < 0:
            raise self._damaged(f"it holds {found} {shape} where a table of {dtype} belongs")
        return shape[0]

    def _damaged(self, what: str) -> DataError:
        return DataError(f"track store {self.path} is damaged: {what} (run `ingest` again)")
