"""Out-of-core ingest and the streamed track store.

`ingest_files` spills one sorted run per input file and merges the runs in
batches of whole vessels, or time slabs of a vessel larger than a batch;
`save_tracks` stores the rows, packed as int32 counts when every value is
an exact one and as float64 otherwise, coded as second differences and
deflated in blocks, and a per-vessel index after them; `TrackReader` reads
either layout back in chunks cut at vessel boundaries, as the parsed
values' bits. Both are checked against the whole-corpus path
(`oracles.reference_ingest`) and against a decoder of the tests' own
(`oracles.read_track_store`).
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ais_outliers import tracks as track_store
from ais_outliers.errors import DataError
from ais_outliers.ingest import TRACK_DTYPE, IngestReport, group_and_sort, ingest_files
from ais_outliers.tracks import (INDEX_DTYPE, PACKED_DTYPE, STORE_DTYPE, TrackReader, Tracks,
                                 pack, save_tracks)

from conftest import make_record, make_table, make_track, utc, vessels
from oracles import (STORE_HEADER, read_track_store, reference_group_and_sort, reference_ingest,
                     rewrite_track_store)

HEADER = "MMSI,BaseDateTime,LAT,LON,SOG,COG,Length\n"


def csv_row(mmsi, hour, minute=0, lat=30.0, length="100.0", day=6):
    return (f"{mmsi},2019-03-{day:02d}T{hour:02d}:{minute:02d}:00,"
            f"{lat!r},-80.0,10.0,90.0,{length}\n")


def write(path, rows, header=HEADER):
    path.write_text(header + "".join(rows))
    return path


def assert_same_ingest(tmp_path, paths, **kwargs):
    """The streamed ingest stores the reference's rows, in its layout, and
    index, with an equal report, and the store reads back as the
    reference's vessels with the same bits; returns the report and the
    counts but the store's bytes per row, checked as its size over its
    rows."""
    store = tmp_path / "tracks.bin"
    report, counts = ingest_files(paths, store, tmp_path / "spill", **kwargs)
    expected, tracks, rows = reference_ingest(paths, **kwargs)
    stored, index = read_track_store(store)
    assert stored.dtype == rows.dtype and stored.tobytes() == rows.tobytes()
    assert index == [(mmsi, len(records)) for mmsi, records in tracks]
    assert report == expected
    assert not (tmp_path / "spill").exists()
    _assert_reads_back(store, tracks)
    assert counts.pop("store_bytes_per_row") == (
        round(store.stat().st_size / len(rows), 2) if len(rows) else None)
    return report, counts


# -- ingest_files against the whole-corpus reference -----------------------

def test_duplicates_across_files_keep_the_earlier_file(tmp_path):
    a = write(tmp_path / "a.csv", [csv_row(367000001, 3, lat=30.0), csv_row(367000001, 1)])
    b = write(tmp_path / "b.csv", [csv_row(367000001, 3, lat=31.0),  # conflicting
                                   csv_row(367000001, 3, lat=30.0),  # exact
                                   csv_row(367000001, 2)])
    c = write(tmp_path / "c.csv", [csv_row(367000001, 3, lat=30.0),
                                   csv_row(367000001, 1, lat=32.0)])
    report, counts = assert_same_ingest(tmp_path, [a, b, c])
    assert report.reject_reasons == {"duplicate_row": 2, "duplicate_timestamp": 2}
    table = np.concatenate([t.records for t in TrackReader(tmp_path / "tracks.bin")])
    assert table["lat"].tolist() == [30.0, 30.0, 30.0]  # hours 1, 2, 3: a, b, a
    # 7 rows against a cap of 3 (file b): slabs of hours 1-2 and of hour 3,
    # whose four rows stay together although they exceed the cap.
    assert counts == {"rows_kept": 3, "vessels_kept": 1, "merge_batches": 2}


def test_vessel_in_every_file_and_larger_than_a_merge_batch(tmp_path):
    paths = []
    for day in range(6, 10):
        rows = [csv_row(367000005, h, m, day=day) for h in range(24) for m in (0, 30)]
        rows += [csv_row(367000000 + v, h, day=day) for v in (1, 2, 9) for h in range(3)]
        paths.append(write(tmp_path / f"day{day}.csv", rows[::-1]))
    report, counts = assert_same_ingest(tmp_path, paths)
    # The big vessel has 4 * 48 rows, more than any one file (57 rows).
    assert counts["merge_batches"] >= 3
    assert counts["rows_kept"] == 4 * (48 + 9) and report.vessels_kept == 4
    big = [r for mmsi, r in vessels(TrackReader(tmp_path / "tracks.bin")) if mmsi == 367000005]
    assert len(big[0]) == 4 * 48


def test_empty_header_only_and_all_rejected_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = write(tmp_path / "header.csv", [])
    rejected = write(tmp_path / "bad.csv", [csv_row("12345678", 1), csv_row(367000001, 25)])
    short = write(tmp_path / "short.csv", [csv_row(367000002, 1, length="5.0")])
    good = write(tmp_path / "good.csv", [csv_row(367000003, h) for h in range(3)])
    report, _ = assert_same_ingest(tmp_path, [empty, header_only, rejected, short, good])
    assert report.vessels_dropped_by_length == 1 and report.vessels_kept == 1
    # Nothing left at all: an empty store, like the reference's.
    report, counts = assert_same_ingest(tmp_path, [empty, header_only, rejected, short])
    assert counts == {"rows_kept": 0, "vessels_kept": 0, "merge_batches": 0}
    assert list(TrackReader(tmp_path / "tracks.bin")) == []


def test_vessel_larger_than_a_batch_merges_in_time_slabs(tmp_path):
    big, small = 367000001, 367000002
    a = write(tmp_path / "a.csv", [csv_row(big, 1, m) for m in range(7)] + [csv_row(small, 1)])
    b = write(tmp_path / "b.csv", [csv_row(big, 1, m, lat=31.0 if m == 2 else 30.0)
                                   for m in range(6, -1, -1)] + [csv_row(big, 1, 6)])
    c = write(tmp_path / "c.csv", [csv_row(big, 1, m, lat=32.0 if m == 4 else 30.0)
                                   for m in range(7)])
    report, counts = assert_same_ingest(tmp_path, [a, b, c])
    # The big vessel has 22 rows, each minute 3 times (minute 6: 4 times),
    # against a cap of 8 (file a). A cut at 8 rows would split minute 2,
    # and one at 14 minute 4, so the slabs are minutes 0-1, 2-3, 4-5 and 6;
    # the small vessel is the fifth batch.
    assert counts == {"rows_kept": 8, "vessels_kept": 2, "merge_batches": 5}
    assert report.reject_reasons == {"duplicate_row": 13, "duplicate_timestamp": 2}
    table = np.concatenate([t.records for t in TrackReader(tmp_path / "tracks.bin")])
    assert table["lat"].tolist() == [30.0] * 8


def test_one_time_with_more_rows_than_a_batch_is_one_slab(tmp_path):
    paths = [write(tmp_path / f"{day}.csv",
                   [csv_row(367000001, 1, 0, lat=30.0 + day)] * 3 + [csv_row(367000001, 1, 1)])
             for day in range(3)]
    report, counts = assert_same_ingest(tmp_path, paths)
    # Minute 0 has 9 rows against a cap of 4: it is a slab on its own. Its
    # first row (file 0) wins; the other files' 6 rows conflict with it.
    assert counts == {"rows_kept": 2, "vessels_kept": 1, "merge_batches": 2}
    assert report.reject_reasons == {"duplicate_row": 4, "duplicate_timestamp": 6}


@pytest.mark.parametrize("kind, params", [
    ("lanes", ["days=120"]), ("dense", ["vessels=3", "days=6"])])
def test_benchmark_generator_corpora_ingest_like_reference(tmp_path, kind, params):
    root = Path(__file__).resolve().parent.parent
    inputs = tmp_path / "inputs"
    subprocess.run([sys.executable, str(root / "bench" / "gen.py"), kind, "--seed", "3",
                    "--out", str(inputs)] + [a for p in params for a in ("--param", p)],
                   check=True, capture_output=True)
    paths = sorted(inputs.glob("*.csv"))
    assert len(paths) > 1
    report, counts = assert_same_ingest(tmp_path, paths)
    assert report.rows_rejected > 0 and counts["merge_batches"] > 1
    # MarineCadastre's decimals (dense) and finer ones (lanes) both pack,
    # and the second differences (zigzagged, in byte planes) of a per-minute
    # feed deflate to under 1.2 bytes a row (1.06 at seed 3), of 30-minute
    # lanes to under 7.5 (6.96), of 24.
    assert read_track_store(tmp_path / "tracks.bin")[0].dtype == PACKED_DTYPE
    bytes_per_row = (tmp_path / "tracks.bin").stat().st_size / counts["rows_kept"]
    assert bytes_per_row < {"dense": 1.2, "lanes": 7.5}[kind], bytes_per_row


@pytest.mark.parametrize("row, row_bytes", [
    ("367000002,2019-03-07T01:00:00,30.12345678,-80.0,10.0,90.0,100.0", 40),
    ("367000002,2019-03-07T01:00:00,30.0,-0.0,10.0,90.0,100.0", 40),
    ("367000002,2019-03-07T01:00:00,30.0,-80.0,2147483.648,90.0,100.0", 40),
    ("367000002,2019-03-07T01:00:00,30.0,-80.0,2147483.647,90.0,100.0", 24),
    # A vessel the length filter drops is not stored, so it cannot unpack.
    ("367000002,2019-03-07T01:00:00,30.12345678,-80.0,10.0,90.0,5.0", 24),
], ids=["8-decimal-lat", "negative-zero-lon", "sog-beyond-int32", "sog-at-int32",
        "short-vessel-8-decimal-lat"])
def test_one_value_that_does_not_pack_makes_the_whole_store_float(tmp_path, row, row_bytes):
    a = write(tmp_path / "a.csv", [csv_row(367000001, h, lat=30.12345) for h in range(3)])
    b = write(tmp_path / "b.csv", [csv_row(367000003, 1), row + "\n"])
    assert_same_ingest(tmp_path, [a, b])
    assert read_track_store(tmp_path / "tracks.bin")[0].dtype == (
        PACKED_DTYPE if row_bytes == 24 else STORE_DTYPE)


# -- memory ----------------------------------------------------------------

def _daily_files(tmp_path, n):
    """n equal daily files of the same 40 vessels, 100 rows each a day."""
    tmp_path.mkdir()
    paths = []
    for day in range(1, n + 1):
        rows = [csv_row(367000100 + v, h % 24, (7 * h) % 60, lat=30.0 + 0.01 * v, day=day)
                for h in range(100) for v in range(40)]
        paths.append(write(tmp_path / f"day{day:02d}.csv", rows))
    return paths


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_memory_does_not_grow_with_the_number_of_files(tmp_path):
    file_bytes = 4000 * TRACK_DTYPE.itemsize  # one file's parsed rows
    corpora = {n: _daily_files(tmp_path / f"n{n}", n) for n in (2, 8)}
    out = tmp_path / "out"
    out.mkdir()
    ingest_files(corpora[2], out / "tracks.bin", out / "spill")  # first-call allocations
    peaks = {n: _traced_peak(lambda: ingest_files(paths, out / "tracks.bin", out / "spill"))
             for n, paths in corpora.items()}
    reference_peaks = {n: _traced_peak(lambda: reference_ingest(paths))
                       for n, paths in corpora.items()}
    # Slack: a quarter of one file's rows, for the per-run vessel indexes
    # and the longer vessel tracks of the longer corpus.
    assert peaks[8] < peaks[2] + file_bytes // 4, (peaks, file_bytes)
    # The measure sees growth where there is some: the whole-corpus path
    # grows by several files' worth.
    assert reference_peaks[8] > reference_peaks[2] + 6 * file_bytes, reference_peaks


def _one_vessel_files(tmp_path, n, rows):
    """n daily files of one vessel, `rows` reports 30 s apart each."""
    tmp_path.mkdir()
    paths = []
    for day in range(1, n + 1):
        stamps = (f"2019-03-{day:02d}T{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}"
                  for s in range(0, 30 * rows, 30))
        paths.append(write(tmp_path / f"day{day:02d}.csv",
                           [f"367000001,{stamp},30.0,-80.0,10.0,90.0,100.0\n"
                            for stamp in stamps]))
    return paths


def test_ingest_memory_does_not_grow_with_one_vessel_over_more_files(tmp_path):
    rows = 2000
    file_bytes = rows * TRACK_DTYPE.itemsize
    corpora = {n: _one_vessel_files(tmp_path / f"n{n}", n, rows) for n in (2, 8)}
    out = tmp_path / "out"
    out.mkdir()
    ingest_files(corpora[2], out / "tracks.bin", out / "spill")  # first-call allocations
    peaks = {n: _traced_peak(lambda: ingest_files(paths, out / "tracks.bin", out / "spill"))
             for n, paths in corpora.items()}
    reference_peaks = {n: _traced_peak(lambda: reference_ingest(paths))
                       for n, paths in corpora.items()}
    # The vessel is merged in slabs of one file's rows; what grows is its
    # time index, one int64 a row, read to cut the slabs. Slack: a quarter
    # of one file's rows, for the per-run indexes and the batch plan.
    time_index = 8 * rows * 8
    assert peaks[8] < peaks[2] + time_index + file_bytes // 4, (peaks, file_bytes)
    assert reference_peaks[8] > reference_peaks[2] + 6 * file_bytes, reference_peaks


def test_group_and_sort_adds_at_most_1_7_times_its_input():
    rng = np.random.default_rng(7)
    n = 100_000
    table = np.zeros(n, TRACK_DTYPE)
    table["mmsi"] = 367000000 + rng.integers(0, 200, n)
    table["t"] = rng.integers(0, 10**6, n)  # a few thousand duplicates
    table["lat"] = rng.random(n)
    table["length"] = np.where(rng.random(n) < 0.1, np.nan, 50.0)
    group_and_sort(table[:10], IngestReport())  # first-call allocations
    peak = _traced_peak(lambda: group_and_sort(table, IngestReport()))
    reference_peak = _traced_peak(lambda: reference_group_and_sort(table, IngestReport()))
    # The peak counts the returned tracks, which alone are about the input.
    assert peak <= 1.7 * table.nbytes, peak / table.nbytes
    # The measure sees the reference's sorted structured copy on top.
    assert reference_peak > 2.2 * table.nbytes, reference_peak / table.nbytes


# -- TrackReader -----------------------------------------------------------

def _store(tmp_path, lengths, packed=True):
    """A store of vessels with the given row counts, and their (mmsi,
    records) pairs."""
    tracks = [make_track(f"36700000{i}", [make_record(mmsi=f"36700000{i}",
                                                      ts=utc(2019, 3, 6, h))
                                          for h in range(n)])
              for i, n in enumerate(lengths)]
    path = tmp_path / "tracks.bin"
    save_tracks(path, tracks, packed)
    return path, list(vessels(tracks))


def _stored(records):
    """The STORE_DTYPE rows of TRACK_DTYPE `records`, field by field."""
    return records[list(STORE_DTYPE.names)].astype(STORE_DTYPE)


def _one_vessel(mmsi, records):
    """One vessel's Tracks of `records`, of any dtype save_tracks takes."""
    return Tracks(records, np.array([(mmsi, len(records))], INDEX_DTYPE))


def _assert_reads_back(path, expected):
    """The store reads back as the (mmsi, records) pairs `expected`, with
    their values' bits, and the reader counts their rows and vessels."""
    expected = list(expected)
    reader = TrackReader(path)
    read = list(reader)
    assert all(run.records.dtype == STORE_DTYPE for run in read)
    assert [(mmsi, records.tobytes()) for mmsi, records in vessels(read)] == \
        [(mmsi, _stored(records).tobytes()) for mmsi, records in expected]
    assert (reader.rows, reader.vessels) == (sum(len(r) for _, r in expected), len(expected))
    return reader


def test_store_is_the_rows_then_one_index_entry_per_vessel(tmp_path):
    a = make_table(make_record(mmsi="367000001", ts=utc(2019, 3, 6, h)) for h in range(5))
    b = make_table([make_record(mmsi="367000002", length=None)])
    path = tmp_path / "tracks.bin"
    # Consecutive tracks of one vessel, as time slabs of a merge, make one entry.
    assert save_tracks(path, [make_track("367000001", a[:2]), make_track("367000001", a[2:]),
                              make_track("367000002", b)]) == 6
    rows, index = read_track_store(path)
    assert rows.tobytes() == _stored(np.concatenate([a, b])).tobytes()
    assert index == [(367000001, 5), (367000002, 1)]
    assert STORE_DTYPE.itemsize == 40 and INDEX_DTYPE.itemsize == 16


def test_packed_store_holds_int32_counts_of_each_unit(tmp_path):
    table = make_table([make_record(lat=-89.9999999, lon=179.1234567, sog=2147483.647,
                                    cog=359.999),
                        make_record(ts=utc(2019, 3, 6, 1), lat=0.0, lon=-0.5, sog=0.001,
                                    cog=0.0)])
    path = tmp_path / "tracks.bin"
    assert save_tracks(path, [make_track("367000001", table)], packed=True) == 2
    rows, _ = read_track_store(path)
    assert rows.dtype == PACKED_DTYPE and PACKED_DTYPE.itemsize == 24
    assert rows[["lat", "lon", "sog", "cog"]].tolist() == [
        (-899999999, 1791234567, 2147483647, 359999), (0, -5000000, 1, 0)]
    assert rows["t"].tolist() == table["t"].tolist()
    _assert_reads_back(path, vessels([make_track("367000001", table)]))


@pytest.mark.parametrize("field, value", [
    ("lat", 30.12345678), ("lon", -0.0), ("sog", 2147483.648), ("sog", 1e300),
    ("sog", 0.1 + 0.2)])
def test_a_value_that_is_not_an_exact_count_does_not_pack(tmp_path, field, value):
    table = make_table([make_record(), make_record(ts=utc(2019, 3, 6, 1), **{field: value})])
    assert pack(table[:1]) is not None and pack(table) is None
    path = tmp_path / "tracks.bin"
    with pytest.raises(ValueError, match="not exact int32 counts"):
        save_tracks(path, [make_track("367000001", table)], packed=True)
    assert list(tmp_path.iterdir()) == []  # nothing half written
    save_tracks(path, [make_track("367000001", table)])
    _assert_reads_back(path, vessels([make_track("367000001", table)]))


# Per seeded store: rows per block (0: the module's own), the vessels' row
# counts and whether the store is packed.
_ROUND_TRIPS = {
    "vessels-span-block-boundaries": (8, [5, 7, 13, 2], True),
    "vessels-of-exactly-one-block": (8, [8, 3, 5, 8, 1], True),
    "lon-counts-wrap-int32": (8, [11], True),
    "t-falls-across-vessels": (8, [4, 6, 3], True),
    "float-layout": (8, [5, 7, 13, 2], False),
    "module-block-rows": (0, [3000, 5000, 1, 200], True),
    "lat-lon-alternate-extremes": (8, [11], True),
    "float-extreme-bits": (8, [11], False),
    # One vessel in blocks of 4096 rows: a last block of 1, 2, 3, 4095 or
    # 4096 rows, or a full one and then one of 1 row.
    **{f"rows-{n}": (0, [n], True) for n in (1, 2, 3, 4095, 4096, 4097)},
}
# The unit each packed count is a multiple of.
_UNITS = {"lat": 1e-7, "lon": 1e-7, "sog": 1e-3, "cog": 1e-3}


def _seeded_counts(rng, rows, t0):
    """One vessel's `rows` rows as int32 counts within ingest's ranges, each
    at least one unit below its upper bound, at times ascending from `t0`."""
    counts = np.empty(rows, PACKED_DTYPE)
    counts["t"] = t0 + np.cumsum(rng.integers(1, 120, rows))
    counts["lat"] = rng.integers(-900_000_000, 900_000_000, rows)
    counts["lon"] = rng.integers(-1_800_000_000, 1_800_000_000, rows)
    counts["sog"] = rng.integers(0, 50_000, rows)
    counts["cog"] = rng.integers(0, 360_000, rows)
    return counts


@pytest.mark.parametrize("case", list(_ROUND_TRIPS))
def test_seeded_store_decodes_bit_for_bit_by_both_decoders(tmp_path, monkeypatch, case):
    block_rows, lengths, packed = _ROUND_TRIPS[case]
    if block_rows:
        monkeypatch.setattr(track_store, "_CHUNK_ROWS", block_rows)
    rng = np.random.default_rng(list(_ROUND_TRIPS).index(case))
    # Vessels a week apart, each after the one before it; or each starting
    # a day earlier than the one before it, so that `t` falls between them.
    step = -86_400 if case == "t-falls-across-vessels" else 7 * 86_400
    counts = [_seeded_counts(rng, n, 1_600_000_000 + step * i) for i, n in enumerate(lengths)]
    odd = np.arange(lengths[0]) % 2 == 1
    if case == "lon-counts-wrap-int32":  # -180e7 beside +180e7: each difference wraps
        counts[0]["lon"] = np.where(odd, 1_800_000_000, -1_800_000_000)
    if case == "lat-lon-alternate-extremes":
        # ±90e7 and ±180e7 from row to row: LON's first differences wrap
        # int32, and LAT's second ones (±360e7) do.
        counts[0]["lat"] = np.where(odd, 900_000_000, -900_000_000)
        counts[0]["lon"] = np.where(odd, 1_800_000_000, -1_800_000_000)
    records = [np.zeros(n, STORE_DTYPE) for n in lengths]
    for table, vessel in zip(records, counts):
        table["t"] = vessel["t"]
        for name, unit in _UNITS.items():
            # Packed: the counts' values, as ingest parses them. Float: any
            # float64 in range, between one count and the next.
            table[name] = (vessel[name] / round(1 / unit) if packed
                           else (vessel[name] + rng.random(len(table))) * unit)
    if case == "float-extreme-bits":  # sign bits flip and exponents jump row to row
        records[0]["lat"] = np.where(odd, 90.0, -90.0)
        records[0]["lon"] = np.where(odd, 180.0, -180.0)
        records[0]["sog"] = np.where(odd, 1e308, 0.0)
        records[0]["cog"] = np.where(odd, np.nextafter(360.0, 0.0), 0.0)
    expected = np.concatenate(counts if packed else records)
    tracks = [_one_vessel(367000001 + i, table) for i, table in enumerate(records)]
    path = tmp_path / "tracks.bin"
    assert save_tracks(path, tracks, packed) == sum(lengths)

    stored, index = read_track_store(path)
    assert STORE_HEADER.unpack_from(path.read_bytes())[4] == track_store._CHUNK_ROWS
    assert stored.dtype == expected.dtype and stored.tobytes() == expected.tobytes()
    assert index == [(367000001 + i, n) for i, n in enumerate(lengths)]
    assert [(mmsi, r.tobytes()) for mmsi, r in vessels(TrackReader(path))] == \
        [(367000001 + i, table.tobytes()) for i, table in enumerate(records)]


@pytest.mark.parametrize("packed", [True, False])
def test_reader_cuts_chunks_at_vessel_boundaries(tmp_path, monkeypatch, packed):
    monkeypatch.setattr(track_store, "_CHUNK_ROWS", 5)
    # Vessels 0-2 fill a chunk exactly; vessel 4 would not fit beside vessel 3.
    path, tracks = _store(tmp_path, [2, 2, 1, 4, 3], packed)
    assert _assert_reads_back(path, tracks).chunks == 3


def test_reader_holds_a_vessel_larger_than_a_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(track_store, "_CHUNK_ROWS", 4)
    path, tracks = _store(tmp_path, [2, 11, 1])
    assert _assert_reads_back(path, tracks).chunks == 3


def test_reader_memory_does_not_grow_with_the_number_of_vessels(tmp_path):
    n, rows = 50, 300
    table = np.zeros(rows, STORE_DTYPE)
    table["t"] = 1_600_000_000 + 60 * np.arange(rows)
    table["lat"], table["lon"] = 30.0 + 1e-5 * np.arange(rows), -80.0
    stores = {}
    for count in (n, 4 * n):
        stores[count] = tmp_path / f"{count}.bin"
        save_tracks(stores[count], (_one_vessel(367000000 + v, table) for v in range(count)),
                    packed=True)

    def drain(path):
        for _ in TrackReader(path):
            pass

    drain(stores[n])  # first-call allocations
    peaks = {k: _traced_peak(lambda: drain(path)) for k, path in stores.items()}
    held = {k: _traced_peak(lambda: list(TrackReader(path))) for k, path in stores.items()}
    # Slack: one block of rows plus the largest vessel, against 3n more
    # vessels' rows.
    slack = (track_store._CHUNK_ROWS + rows) * STORE_DTYPE.itemsize
    assert peaks[4 * n] < peaks[n] + slack, (peaks, slack)
    # The measure sees growth where there is some: holding every track.
    assert held[4 * n] > held[n] + 2 * n * rows * STORE_DTYPE.itemsize, held


@pytest.mark.parametrize("hours", [(0, 1, 2, 5, 4, 6, 7, 8), (0, 1, 2, 3, 3, 4, 5, 6)])
def test_reader_rejects_times_not_ascending_within_a_vessel(tmp_path, monkeypatch, hours):
    monkeypatch.setattr(track_store, "_CHUNK_ROWS", 4)
    table = make_table(make_record(ts=utc(2019, 3, 6, h)) for h in hours)
    path = tmp_path / "tracks.bin"
    save_tracks(path, [make_track("367000001", table)])  # which does not check the order
    with pytest.raises(DataError, match="times do not ascend within a vessel"):
        list(TrackReader(path))


def test_reader_rejects_trailing_bytes(tmp_path):
    path, _ = _store(tmp_path, [3])
    path.write_bytes(path.read_bytes() + b"\0" * INDEX_DTYPE.itemsize)
    with pytest.raises(DataError, match=r"and 1 vessels, but \d+ bytes follow it"):
        list(TrackReader(path))


@pytest.mark.parametrize("edit, message", [
    ({"entries": [(367000000, 2)], "rows": 2}, "its stream holds more rows than its header"),
    ({"edit_stream": lambda stream: stream + b"\0\0"}, "bytes follow the end of its stream"),
], ids=["a-row-beyond-the-header", "bytes-after-the-stream-end"])
def test_reader_checks_that_the_stream_ends_after_its_rows(tmp_path, edit, message):
    path, _ = _store(tmp_path, [3])
    rewrite_track_store(path, **edit)
    with pytest.raises(DataError, match=message):
        list(TrackReader(path))
