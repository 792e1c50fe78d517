"""The track store, `tracks.npy`: the length-filtered AIS records that
preprocessing reads, one row per (MMSI, time) sorted by MMSI then time,
followed by a per-vessel (MMSI, rows) index.

The rows come in one of two layouts, and their `.npy` header names which.
The packed layout (PACKED_DTYPE, 24 bytes a row) holds each value as an
int32 count of its column's unit: 1e-7 for LAT and LON, 1e-3 for SOG and
COG. It is written when every value is exactly such a count, as the 5 and
1 decimals of MarineCadastre exports are. Otherwise the float layout
(STORE_DTYPE, 40 bytes a row) holds the float64 values as parsed. Either
reads back as STORE_DTYPE rows with the parsed values' bits: a count
divided by its scale is correctly rounded, as the parse was.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from pathlib import Path
from tokenize import TokenError
from typing import Iterable, Iterator

import numpy as np

from .atomic import atomic_write
from .errors import DataError

# One row of the store as preprocessing reads it: time as UTC epoch seconds,
# then the values. The MMSI is kept once per vessel in the store's index.
STORE_DTYPE = np.dtype([("t", "<i8"), ("lat", "<f8"), ("lon", "<f8"), ("sog", "<f8"),
                        ("cog", "<f8")])
# Per value column, the scale whose multiple a packed row holds.
_SCALES = {"lat": 1e7, "lon": 1e7, "sog": 1e3, "cog": 1e3}
PACKED_DTYPE = np.dtype([("t", "<i8"), *((name, "<i4") for name in _SCALES)])
# One entry of the store's index: a vessel's MMSI and its number of rows.
INDEX_DTYPE = np.dtype([("mmsi", "<i8"), ("rows", "<i8")])
_INT32 = np.iinfo(np.int32)
# Rows read per chunk when streaming a store back: the reader's memory is
# set by this plus the largest vessel's track and the index, not by the store.
_CHUNK_ROWS = 1 << 12


@dataclass(frozen=True)
class VesselTrack:
    """All accepted records of one MMSI, ascending in time, deduplicated.

    `records` is a view into the table the track came from: TRACK_DTYPE
    rows in ingest, STORE_DTYPE rows when read back by TrackReader.
    """

    mmsi: int
    records: np.ndarray

    def __len__(self) -> int:
        return len(self.records)


def pack(records: np.ndarray) -> np.ndarray | None:
    """The PACKED_DTYPE rows of `records` (any table with STORE_DTYPE's
    fields), or None unless every value is an int32 count of its column's
    unit exactly: the count, rounded from value × scale, divided back by
    the scale must give the value's float64 bits. So -0.0, a value with
    more decimals than its scale keeps and one beyond int32 give None."""
    packed = np.empty(len(records), PACKED_DTYPE)
    packed["t"] = records["t"]
    for name, scale in _SCALES.items():
        values = records[name]
        counts = np.rint(values * scale)
        if not ((counts >= _INT32.min) & (counts <= _INT32.max)).all():
            return None
        packed[name] = counts
        if ((packed[name] / scale).view(np.int64) != values.view(np.int64)).any():
            return None
    return packed


def _unpack(packed: np.ndarray) -> np.ndarray:
    table = np.empty(len(packed), STORE_DTYPE)
    table["t"] = packed["t"]
    for name, scale in _SCALES.items():
        np.divide(packed[name], scale, out=table[name])
    return table


def save_tracks(path, tracks: Iterable[VesselTrack], packed: bool = False) -> int:
    """Write tracks, ascending by MMSI, as the track store: the rows as one
    `.npy` array (so `np.load` reads them), PACKED_DTYPE if `packed` and
    STORE_DTYPE if not, then the index as one INDEX_DTYPE `.npy` array of
    (MMSI, rows) per vessel. A track that does not `pack` exactly is a
    ValueError when `packed` is set.

    The records may be of any dtype that holds STORE_DTYPE's fields as
    STORE_DTYPE lays them out (TRACK_DTYPE rows of ingest, say).
    Consecutive tracks of one MMSI (the time slabs of a merge) make one
    index entry. The rows are written as they arrive, so only the track in
    hand is held, plus the index. numpy pads the header so that its length
    does not depend on the row count: a placeholder header goes first and
    the real one over it once the count is known. Returns the number of
    rows written.
    """
    dtype = PACKED_DTYPE if packed else STORE_DTYPE
    mmsis, counts = [], []
    with atomic_write(path) as fh:
        fh.write(_npy_header(dtype, 0))
        for track in tracks:
            fh.write(_rows(track.records, packed).data)
            if mmsis and mmsis[-1] == track.mmsi:
                counts[-1] += len(track)
            else:
                mmsis.append(track.mmsi)
                counts.append(len(track))
            del track  # before the next one is made
        index = np.empty(len(mmsis), INDEX_DTYPE)
        index["mmsi"], index["rows"] = mmsis, counts
        np.lib.format.write_array(fh, index)
        rows = sum(counts)
        fh.seek(0)
        fh.write(_npy_header(dtype, rows))
    return rows


def _rows(records: np.ndarray, packed: bool) -> np.ndarray:
    """The store rows of `records`. Float rows are copied as the uint8
    bytes of their fields: structured-row copies run several times slower."""
    if packed:
        rows = pack(records)
        if rows is None:
            raise ValueError("a track's values are not exact int32 counts of their units")
        return rows
    start = records.dtype.fields["t"][1]
    return np.ascontiguousarray(
        records[:, None].view(np.uint8)[:, start:start + STORE_DTYPE.itemsize])


def _npy_header(dtype: np.dtype, rows: int) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False, "shape": (rows,)})
    return out.getvalue()


class TrackReader:
    """Streams a store written by save_tracks, of either layout, as
    VesselTracks of STORE_DTYPE records.

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
            dtype, n = self._read_header(fh, PACKED_DTYPE, STORE_DTYPE)
            rows_at = fh.tell()
            if rows_at + n * dtype.itemsize > size:
                raise self._damaged(f"its header gives {n} rows, more than it holds")
            fh.seek(rows_at + n * dtype.itemsize)
            _, vessels = self._read_header(fh, INDEX_DTYPE)
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
                table = np.empty(int(ends[stop - 1]) - start, dtype)
                fh.readinto(table.view(np.uint8))
                cuts = ends[first:stop - 1] - start
                ascending = np.diff(table["t"]) > 0
                ascending[cuts - 1] = True  # each vessel's times start afresh
                if not ascending.all():
                    raise self._damaged("its times do not ascend within a vessel")
                if dtype == PACKED_DTYPE:
                    table = _unpack(table)
                self.chunks += 1
                self.rows += len(table)
                self.vessels += stop - first
                yield from map(VesselTrack, mmsi[first:stop].tolist(), np.split(table, cuts))
                first, start = stop, int(ends[stop - 1])

    def _read_header(self, fh, *dtypes: np.dtype) -> tuple[np.dtype, int]:
        """The dtype, one of `dtypes`, and the length of the 1-D array whose
        `.npy` header comes next in `fh`, after checking the header."""
        try:
            version = np.lib.format.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy version {version}")
            read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                    else np.lib.format.read_array_header_2_0)
            shape, _, found = read(fh)
        except (ValueError, EOFError, TokenError) as exc:  # numpy tokenizes a bad header
            raise self._damaged(str(exc)) from None
        if found not in dtypes or len(shape) != 1 or shape[0] < 0:
            raise self._damaged(f"it holds {found} {shape} where a table of "
                                f"{' or '.join(map(str, dtypes))} belongs")
        return found, shape[0]

    def _damaged(self, what: str) -> DataError:
        return DataError(f"track store {self.path} is damaged: {what} (run `ingest` again)")
