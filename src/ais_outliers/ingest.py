"""AIS CSV ingestion.

Parses MarineCadastre-style AIS exports into a table of validated records,
filters vessels by length, and groups the table into time-sorted per-vessel
tracks. Malformed rows are tallied per reason, never silently dropped.
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
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator

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
    return np.concatenate([table.view(np.uint8) for table in tables]).view(TRACK_DTYPE), report


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
    """Write every track's rows, in order, as one TRACK_DTYPE `.npy` file.

    The tracks are written as they arrive, so only the one in hand is held.
    numpy pads the header so that its length does not depend on the row
    count: a placeholder header goes first and the real one over it once
    the count is known. Returns the number of rows written.
    """
    rows = 0
    with atomic_write(path) as fh:
        fh.write(_npy_header(0))
        for track in tracks:
            fh.write(np.ascontiguousarray(track.records).data)
            rows += len(track)
            del track  # before the next one is made
        fh.seek(0)
        fh.write(_npy_header(rows))
    return rows


def _npy_header(rows: int) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(TRACK_DTYPE),
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
        seen = np.union1d(seen, table["mmsi"])
        table = filter_by_length(table, min_length)
        if len(table):
            table = _take_rows(table, np.lexsort((table["t"], table["mmsi"])))
            run = spill_dir / f"{i:06d}.run"
            table.tofile(run)
            mmsi, starts = np.unique(table["mmsi"], return_index=True)
            runs.append((run, mmsi, np.append(starts, len(table))))
            kept = np.union1d(kept, mmsi)
        del table  # before the next file is parsed
    report.vessels_dropped_by_length = len(seen) - len(kept)
    return runs, kept


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
# memory is set by this plus the largest vessel's track, not by the store),
# and when reading a vessel's times from the runs.
_CHUNK_ROWS = 1 << 12


class TrackReader:
    """Streams a store written by save_tracks as VesselTracks.

    The store is read _CHUNK_ROWS rows at a time and cut at vessel
    boundaries; the last, possibly partial, vessel of a chunk is carried
    into the next. Damage (missing file, foreign header, other dtype,
    truncation, rows out of (MMSI, time) order, across chunks too) is a
    DataError, raised when the reader reaches it. `rows`, `vessels` and
    `chunks` count what has been read.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.rows = self.vessels = self.chunks = 0

    def __iter__(self) -> Iterator[VesselTrack]:
        path = self.path
        if not path.exists():
            raise DataError(f"track store not found: {path} (run `ingest` first)")
        with open(path, "rb") as fh:
            n = self._read_header(fh)
            carry = np.empty(0, TRACK_DTYPE)
            for start in range(0, n, _CHUNK_ROWS):
                # The carried rows, then the next chunk read in behind them.
                table = np.empty(len(carry) + min(_CHUNK_ROWS, n - start), TRACK_DTYPE)
                raw = table.view(np.uint8)  # byte copies: field-wise ones are slow
                raw[:carry.nbytes] = carry.view(np.uint8)
                fh.readinto(raw[carry.nbytes:])  # the size was checked
                self.chunks += 1
                self.rows += len(table) - len(carry)
                # Rows from the last carried one on are unchecked against
                # their predecessor.
                new = table[max(len(carry) - 1, 0):]
                mmsi_step, t_step = np.diff(new["mmsi"]), np.diff(new["t"])
                if ((mmsi_step < 0) | ((mmsi_step == 0) & (t_step <= 0))).any():
                    raise DataError(f"track store {path} is not sorted by MMSI then time")
                # Everything before the last vessel is whole, unless this is
                # the store's end.
                cut = (len(table) if start + _CHUNK_ROWS >= n
                       else int(np.searchsorted(table["mmsi"], table["mmsi"][-1])))
                carry = table[cut:]
                tracks = _split_tracks(table[:cut])
                self.vessels += len(tracks)
                yield from tracks

    def _read_header(self, fh) -> int:
        """The row count from the `.npy` header, after checking it and the
        file size against TRACK_DTYPE."""
        try:
            version = np.lib.format.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy version {version}")
            read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                    else np.lib.format.read_array_header_2_0)
            shape, _, dtype = read(fh)
        except (ValueError, EOFError) as exc:
            raise DataError(f"track store {self.path} is damaged: {exc}") from None
        if dtype != TRACK_DTYPE or len(shape) != 1:
            raise DataError(f"track store {self.path} holds {dtype} {shape}, "
                            f"not a table of {TRACK_DTYPE}")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != shape[0] * TRACK_DTYPE.itemsize:
            raise DataError(f"track store {self.path} is damaged: its header says "
                            f"{shape[0]} rows but it holds {size} bytes of rows")
        return shape[0]
