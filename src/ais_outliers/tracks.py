"""The track store, `tracks.bin`: the length-filtered AIS records that
preprocessing reads, one row per (MMSI, time) sorted by MMSI then time,
and a per-vessel (MMSI, rows) index.

Tracks travel from ingest to preprocessing as `Tracks`, rows plus their
slice of that index: one per merge batch into save_tracks, and one per
chunk out of TrackReader.

The file is a fixed header, one zlib deflate stream of the rows, then the
index:

- the header (_HEADER, little-endian): _MAGIC, the layout (the bytes of
  one row: 24 packed, 40 float), the rows, the vessels, the rows per block
  and the bytes of the stream;
- the stream: the rows in blocks of that many rows (the last one may be
  shorter), each block column by column. A column is integers, stored as
  their second difference: the wrapping difference of each value from the
  previous row of the block (the first from 0), taken twice. A vessel at
  steady speed and heading moves by nearly the same step at every report,
  so its first differences repeat and its second ones lie near 0. In the
  packed layout each second difference is then zigzagged (0, -1, 1, -2, ...
  as 0, 1, 2, 3, ..., so a small one of either sign has high bytes of 0)
  and the column is stored as byte planes: every row's byte 0, then every
  row's byte 1, and so on, which puts those zero bytes in long runs. Float
  columns, whose low bytes vary, deflate worse as planes and stay plain;
- the index: one INDEX_DTYPE entry per vessel, in ascending MMSI order.

The packed layout (PACKED_DTYPE) holds each value as an int32 count of its
column's unit: 1e-7 for LAT and LON, 1e-3 for SOG and COG. It is written
when every value is exactly such a count, as the 5 and 1 decimals of
MarineCadastre exports are. Otherwise the float layout (STORE_DTYPE) holds
the float64 values as parsed, each column coded as the int64 bit patterns
of its values. Either reads back as STORE_DTYPE rows with the parsed
values' bits: a count divided by its scale is correctly rounded, as the
parse was.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
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
# The float layout's columns as the integers their values' bits spell.
_FLOAT_BITS = np.dtype([(name, "<i8") for name in STORE_DTYPE.names])
# The integer rows each layout codes, by the layout's header value.
_LAYOUTS = {PACKED_DTYPE.itemsize: PACKED_DTYPE, _FLOAT_BITS.itemsize: _FLOAT_BITS}
# One entry of the store's index: a vessel's MMSI and its number of rows.
INDEX_DTYPE = np.dtype([("mmsi", "<i8"), ("rows", "<i8")])
_INT32 = np.iinfo(np.int32)
# The values ingest keeps, as closed ranges (its COG of 360 is stored as 0),
# with their spelling in a message. A NaN or an infinity is outside each.
# Times are the seconds of the stamps ingest parses, years 0001-9999.
_RANGES = {"t": (-62135596800, 253402300799,
                 "[-62135596800, 253402300799] seconds (years 0001-9999)"),
           "lat": (-90.0, 90.0, "[-90, 90]"), "lon": (-180.0, 180.0, "[-180, 180]"),
           "sog": (0.0, float(np.finfo(np.float64).max), "[0, inf)"),
           "cog": (0.0, float(np.nextafter(360.0, 0.0)), "[0, 360)")}

# Magic (its last byte is the format's version), layout, rows, vessels,
# rows per block, stream bytes.
_MAGIC = b"AISTRK\x00\x03"
# The starts of the stores of older formats: `tracks.npy`, format 1 (first
# differences) and format 2 (packed second differences as plain integers).
_OLDER = (b"\x93NUMPY", b"AISTRK\x00\x01", b"AISTRK\x00\x02")
_HEADER = struct.Struct("<8s5q")
# Rows per block of the stream, and per chunk when streaming a store back:
# the reader's memory is set by one block and one chunk (or the largest
# vessel's track) plus the index, not by the store.
_CHUNK_ROWS = 1 << 12
# Deflate level. Level 6 stores a per-minute feed in 0.81 bytes a row
# instead of 1.15, and 30-minute lanes in 6.47 instead of 6.77, but the
# feed's write takes more than twice as long.
_LEVEL = 1
# Deflate gives at most 1032 bytes per byte of its stream.
_MAX_INFLATE = 1032
# Stream bytes read at a time.
_READ_BYTES = 1 << 16


@dataclass(frozen=True)
class Tracks:
    """Whole vessels' records, ascending by MMSI then time, deduplicated,
    and their index: an INDEX_DTYPE (mmsi, rows) entry per vessel, in order.
    The records are TRACK_DTYPE rows in ingest, where a time slab of the
    merge counts as a vessel, and STORE_DTYPE rows from TrackReader."""

    records: np.ndarray
    index: np.ndarray

    @classmethod
    def of(cls, records: np.ndarray) -> "Tracks":
        """The Tracks of `records`, rows with an `mmsi` field sorted by it."""
        return cls(records, _index(records["mmsi"], np.ones(len(records), np.int64)))


def _index(mmsi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One INDEX_DTYPE entry per run of equal `mmsi`, with the run's `rows` summed."""
    heads = np.flatnonzero(np.diff(mmsi, prepend=mmsi[:1] - 1))
    return np.stack([mmsi[heads], np.add.reduceat(rows, heads)], axis=1).view(INDEX_DTYPE)[:, 0]


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


def save_tracks(path, tracks: Iterable[Tracks], packed: bool = False) -> int:
    """Write runs of tracks, ascending by MMSI, as the track store: the
    packed layout if `packed` and the float layout if not (see the module's
    docstring). Rows that do not `pack` exactly are a ValueError when
    `packed` is set.

    The records may be of any dtype that holds STORE_DTYPE's fields as
    STORE_DTYPE lays them out (TRACK_DTYPE rows of ingest, say). They are
    copied, packed and deflated a block at a time as they arrive, so only
    the run in hand, one block and the index are held. Index entries of one
    MMSI in a row (the time slabs of a merge) are summed at the end. A
    placeholder header goes first and the real one over it once the counts
    are known. Returns the number of rows written.
    """
    block, filled = np.empty(_CHUNK_ROWS, _FLOAT_BITS), 0
    # The block's bytes, a row each: rows are copied as the bytes of
    # STORE_DTYPE's fields, since structured-row copies run several times slower.
    block_bytes = block.view(np.uint8).reshape(_CHUNK_ROWS, STORE_DTYPE.itemsize)
    deflate = zlib.compressobj(_LEVEL)
    indexes, stream = [np.empty(0, INDEX_DTYPE)], 0
    with atomic_write(path) as fh:
        fh.write(bytes(_HEADER.size))
        for run in tracks:
            start = run.records.dtype.fields["t"][1]
            rows = run.records[:, None].view(np.uint8)[:, start:start + STORE_DTYPE.itemsize]
            done = 0
            while done < len(rows):
                take = min(len(rows) - done, len(block) - filled)
                block_bytes[filled:filled + take] = rows[done:done + take]
                filled, done = filled + take, done + take
                if filled == len(block):
                    stream += fh.write(_deflate(block, packed, deflate))
                    filled = 0
            indexes.append(run.index)
            del run, rows  # before the next one is made
        stream += fh.write(_deflate(block[:filled], packed, deflate) + deflate.flush())
        index = np.concatenate(indexes)
        index = _index(index["mmsi"], index["rows"])
        fh.write(index.data)
        total = int(index["rows"].sum())
        fh.seek(0)
        layout = (PACKED_DTYPE if packed else _FLOAT_BITS).itemsize
        fh.write(_HEADER.pack(_MAGIC, layout, total, len(index), _CHUNK_ROWS, stream))
    return total


def _deflate(block: np.ndarray, packed: bool, deflate) -> bytes:
    """A float-layout block in the layout `packed` names, its columns each
    as the second difference of its values (zigzagged byte planes in the
    packed layout), through `deflate`."""
    if packed:
        block = pack(block.view(STORE_DTYPE))
        if block is None:
            raise ValueError("a track's values are not exact int32 counts of their units")
    deltas = (_difference(_difference(block[name])) for name in block.dtype.names)
    if packed:
        deltas = map(_planes, deltas)
    return b"".join(map(deflate.compress, deltas))


def _planes(delta: np.ndarray) -> np.ndarray:
    """The byte planes of `delta`'s values zigzagged, wrapping."""
    unsigned = f"<u{delta.itemsize}"
    zigzag = (delta.view(unsigned) << 1) ^ (delta >> delta.itemsize * 8 - 1).view(unsigned)
    return zigzag.view(np.uint8).reshape(len(delta), delta.itemsize).T.copy()


def _difference(column: np.ndarray) -> np.ndarray:
    """The wrapping differences of `column`'s values, the first from 0."""
    delta = np.empty(len(column), column.dtype)
    delta[:1] = column[:1]
    np.subtract(column[1:], column[:-1], out=delta[1:])
    return delta


def _undelta(data: bytes, dtype: np.dtype, rows: int) -> np.ndarray:
    """The block of `rows` integer rows of `dtype` whose column-by-column
    second differences `data` holds (as zigzagged byte planes in the packed
    layout). Two cumulative sums in the column's own dtype wrap back exactly
    where the differences wrapped."""
    block = np.empty(rows, dtype)
    offset = 0
    for name in dtype.names:
        delta = np.frombuffer(data, dtype[name], rows, offset)
        if dtype == PACKED_DTYPE:  # plane by plane: a faster copy than a transpose
            zigzag = np.empty((rows, delta.itemsize), np.uint8)
            for byte, plane in enumerate(delta.view(np.uint8).reshape(delta.itemsize, rows)):
                zigzag[:, byte] = plane
            zigzag = zigzag.view(f"<u{delta.itemsize}")[:, 0]
            delta = ((zigzag >> 1) ^ -(zigzag & 1)).view(delta.dtype)
        np.cumsum(np.cumsum(delta, dtype=delta.dtype), dtype=delta.dtype, out=block[name])
        offset += delta.nbytes
    return block


class TrackReader:
    """Streams a store written by save_tracks, of either layout, as Tracks
    of STORE_DTYPE records, one per chunk.

    The header and the index are read and checked first; then the rows,
    inflated block by block, in chunks of whole vessels of at most
    _CHUNK_ROWS rows (a larger vessel is a chunk of its own). Damage is a
    one-line DataError naming `ingest`: a missing file, a store of an older
    format, a foreign header or layout, a size other than the header gives,
    MMSIs not strictly ascending, a vessel count below 1 or counts not
    adding up to the rows (raised before any chunk); a stream that does not
    inflate to exactly the header's rows, times not strictly ascending
    within a vessel and times or values outside ingest's ranges (raised
    when the reader reaches them). `rows`, `vessels` and `chunks` count
    what has been read.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.rows = self.vessels = self.chunks = 0

    def __iter__(self) -> Iterator[Tracks]:
        if not self.path.exists():
            raise DataError(f"track store not found: {self.path} (run `ingest` first)")
        with open(self.path, "rb") as fh:
            dtype, n, vessels, block_rows, stream = self._read_header(fh)
            fh.seek(_HEADER.size + stream)
            index = np.empty(vessels, INDEX_DTYPE)
            fh.readinto(index.view(np.uint8))  # the size was checked
            counts = index["rows"]
            if (np.diff(index["mmsi"]) <= 0).any():
                raise self._damaged("its index is not sorted by MMSI")
            # Counts of at most n cannot overflow their sum.
            if ((counts < 1) | (counts > n)).any() or counts.sum() != n:
                raise self._damaged(f"its index does not count its {n} rows")
            ends = np.cumsum(counts)
            fh.seek(_HEADER.size)
            inflate = _Inflate(fh, stream, self._damaged)
            block, done = np.empty(0, dtype), 0  # rows decoded, not yet taken
            first = start = 0
            while first < len(ends):
                stop = max(int(np.searchsorted(ends, start + _CHUNK_ROWS, side="right")),
                           first + 1)
                table = np.empty(int(ends[stop - 1]) - start, dtype)
                filled = 0
                while filled < len(table):
                    if not len(block):
                        rows = min(block_rows, n - done)
                        block = _undelta(inflate.read(rows * dtype.itemsize), dtype, rows)
                        done += rows
                        if done == n:
                            inflate.finish()
                    take = min(len(table) - filled, len(block))
                    table[filled:filled + take], block = block[:take], block[take:]
                    filled += take
                cuts = ends[first:stop - 1] - start
                ascending = np.diff(table["t"]) > 0
                ascending[cuts - 1] = True  # each vessel's times start afresh
                if not ascending.all():
                    raise self._damaged("its times do not ascend within a vessel")
                table = _unpack(table) if dtype == PACKED_DTYPE else table.view(STORE_DTYPE)
                self._check_values(table)
                self.chunks += 1
                self.rows += len(table)
                self.vessels += stop - first
                yield Tracks(table, index[first:stop])
                first, start = stop, int(ends[stop - 1])
            if not n:  # no block was read: the empty stream is checked all the same
                inflate.finish()

    def _read_header(self, fh) -> tuple[np.dtype, int, int, int, int]:
        """The integer row dtype, rows, vessels, rows per block and stream
        bytes of the header at the start of `fh`, after checking them
        against each other and against the file's size."""
        head = fh.read(_HEADER.size)
        if head.startswith(_OLDER):
            raise DataError(f"track store {self.path} is in an older format "
                            f"(run `ingest` again)")
        if len(head) < _HEADER.size or head[:len(_MAGIC)] != _MAGIC:
            raise self._damaged("it does not start with a track store header")
        _, layout, rows, vessels, block_rows, stream = _HEADER.unpack(head)
        if layout not in _LAYOUTS:
            raise self._damaged(f"its header gives a layout of {layout} bytes a row, "
                                f"not one of {sorted(_LAYOUTS)}")
        if min(rows, vessels, stream) < 0 or block_rows < 1:
            raise self._damaged("its header gives a count below 0, or blocks of no rows")
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != stream + vessels * INDEX_DTYPE.itemsize:
            raise self._damaged(f"its header gives {stream} stream bytes and {vessels} "
                                f"vessels, but {body} bytes follow it")
        if rows * layout > _MAX_INFLATE * stream:
            raise self._damaged(f"its header gives {rows} rows, more than its "
                                f"{stream} stream bytes can hold")
        return _LAYOUTS[layout], rows, vessels, block_rows, stream

    def _check_values(self, table: np.ndarray) -> None:
        for name, (low, high, text) in _RANGES.items():
            values = table[name]
            outside = ~((values >= low) & (values <= high))
            if outside.any():
                value = values[outside.argmax()].item()
                raise self._damaged(f"a {name.upper()} of {value!r} lies outside ingest's {text}")

    def _damaged(self, what: str) -> DataError:
        return DataError(f"track store {self.path} is damaged: {what} (run `ingest` again)")


class _Inflate:
    """The bytes that `stream` bytes of one deflate stream from `fh` give,
    read on demand. Damage is `damaged(reason)`, raised."""

    def __init__(self, fh, stream: int, damaged):
        self.fh, self.left, self.damaged = fh, stream, damaged
        self.inflate = zlib.decompressobj()
        self.tail = b""  # input read but not yet inflated

    def read(self, size: int) -> bytes:
        """The next `size` bytes of the rows."""
        data = self._inflate(size)
        if len(data) < size:
            raise self.damaged("its stream ends before the rows its header gives")
        return data

    def finish(self) -> None:
        """Check that the stream ends, with its checksum, after the rows read."""
        if self._inflate(1):
            raise self.damaged("its stream holds more rows than its header gives")
        if self.left or self.inflate.unused_data:
            raise self.damaged("bytes follow the end of its stream")

    def _inflate(self, size: int) -> bytes:
        """Up to `size` more bytes: fewer only where the stream ends."""
        pieces, got = [], 0
        try:
            while got < size and not self.inflate.eof:
                if not self.tail:
                    if not self.left:
                        raise self.damaged("its stream is cut short")
                    self.tail = self.fh.read(min(self.left, _READ_BYTES))
                    self.left = self.left - len(self.tail) if self.tail else 0  # a file cut since
                pieces.append(self.inflate.decompress(self.tail, size - got))
                self.tail = self.inflate.unconsumed_tail
                got += len(pieces[-1])
        except zlib.error as exc:
            raise self.damaged(f"its stream does not inflate ({exc})") from None
        return b"".join(pieces)
