"""Out-of-core ingest and the streamed track store.

`ingest_files` spills one sorted run per input file and merges the runs in
batches of whole vessels, or time slabs of a vessel larger than a batch;
`save_tracks` stores the rows, packed as int32 counts when every value is
an exact one and as float64 otherwise, and a per-vessel index after them;
`TrackReader` reads either layout back in chunks cut at vessel boundaries,
as the parsed values' bits. Both are checked against the whole-corpus path
(`oracles.reference_ingest`) and against `np.load` of the store.
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
from ais_outliers.tracks import (INDEX_DTYPE, PACKED_DTYPE, STORE_DTYPE, TrackReader, pack,
                                 save_tracks)

from conftest import make_record, make_table, make_track, utc
from oracles import reference_group_and_sort, reference_ingest

HEADER = "MMSI,BaseDateTime,LAT,LON,SOG,COG,Length\n"


def csv_row(mmsi, hour, minute=0, lat=30.0, length="100.0", day=6):
    return (f"{mmsi},2019-03-{day:02d}T{hour:02d}:{minute:02d}:00,"
            f"{lat!r},-80.0,10.0,90.0,{length}\n")


def write(path, rows, header=HEADER):
    path.write_text(header + "".join(rows))
    return path


def assert_same_ingest(tmp_path, paths, **kwargs):
    """The streamed ingest writes the reference's store byte for byte, with
    an equal report, and the store reads back as the reference's tracks
    with the same bits; returns the report and the counts."""
    report, counts = ingest_files(paths, tmp_path / "tracks.npy", tmp_path / "spill",
                                  **kwargs)
    expected, tracks = reference_ingest(paths, tmp_path / "expected.npy", **kwargs)
    assert (tmp_path / "tracks.npy").read_bytes() == (tmp_path / "expected.npy").read_bytes()
    assert report == expected
    assert not (tmp_path / "spill").exists()
    _assert_reads_back(tmp_path / "tracks.npy", tracks)
    assert np.load(tmp_path / "tracks.npy").dtype.itemsize == counts["store_row_bytes"]
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
    table = np.concatenate([t.records for t in TrackReader(tmp_path / "tracks.npy")])
    assert table["lat"].tolist() == [30.0, 30.0, 30.0]  # hours 1, 2, 3: a, b, a
    # 7 rows against a cap of 3 (file b): slabs of hours 1-2 and of hour 3,
    # whose four rows stay together although they exceed the cap.
    assert counts == {"rows_kept": 3, "vessels_kept": 1, "merge_batches": 2,
                      "store_row_bytes": 24}


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
    big = [t for t in TrackReader(tmp_path / "tracks.npy") if t.mmsi == 367000005]
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
    assert counts == {"rows_kept": 0, "vessels_kept": 0, "merge_batches": 0,
                      "store_row_bytes": 24}
    assert list(TrackReader(tmp_path / "tracks.npy")) == []


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
    assert counts == {"rows_kept": 8, "vessels_kept": 2, "merge_batches": 5,
                      "store_row_bytes": 24}
    assert report.reject_reasons == {"duplicate_row": 13, "duplicate_timestamp": 2}
    table = np.concatenate([t.records for t in TrackReader(tmp_path / "tracks.npy")])
    assert table["lat"].tolist() == [30.0] * 8


def test_one_time_with_more_rows_than_a_batch_is_one_slab(tmp_path):
    paths = [write(tmp_path / f"{day}.csv",
                   [csv_row(367000001, 1, 0, lat=30.0 + day)] * 3 + [csv_row(367000001, 1, 1)])
             for day in range(3)]
    report, counts = assert_same_ingest(tmp_path, paths)
    # Minute 0 has 9 rows against a cap of 4: it is a slab on its own. Its
    # first row (file 0) wins; the other files' 6 rows conflict with it.
    assert counts == {"rows_kept": 2, "vessels_kept": 1, "merge_batches": 2,
                      "store_row_bytes": 24}
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
    # MarineCadastre's decimals (dense) and finer ones (lanes) both pack.
    assert counts["store_row_bytes"] == 24
    assert np.load(tmp_path / "tracks.npy").dtype == PACKED_DTYPE


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
    _, counts = assert_same_ingest(tmp_path, [a, b])
    assert counts["store_row_bytes"] == row_bytes
    assert np.load(tmp_path / "tracks.npy").dtype == (PACKED_DTYPE if row_bytes == 24
                                                      else STORE_DTYPE)


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
    ingest_files(corpora[2], out / "tracks.npy", out / "spill")  # first-call allocations
    peaks = {n: _traced_peak(lambda: ingest_files(paths, out / "tracks.npy", out / "spill"))
             for n, paths in corpora.items()}
    reference_peaks = {n: _traced_peak(lambda: reference_ingest(paths, out / "ref.npy"))
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
    ingest_files(corpora[2], out / "tracks.npy", out / "spill")  # first-call allocations
    peaks = {n: _traced_peak(lambda: ingest_files(paths, out / "tracks.npy", out / "spill"))
             for n, paths in corpora.items()}
    reference_peaks = {n: _traced_peak(lambda: reference_ingest(paths, out / "ref.npy"))
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
    """A store of vessels with the given row counts, and its tracks."""
    tracks = [make_track(f"36700000{i}", [make_record(mmsi=f"36700000{i}",
                                                      ts=utc(2019, 3, 6, h))
                                          for h in range(n)])
              for i, n in enumerate(lengths)]
    path = tmp_path / "tracks.npy"
    save_tracks(path, tracks, packed)
    return path, tracks


def _stored(records):
    """The STORE_DTYPE rows of TRACK_DTYPE `records`, field by field."""
    return records[list(STORE_DTYPE.names)].astype(STORE_DTYPE)


def _assert_reads_back(path, tracks):
    reader = TrackReader(path)
    read = list(reader)
    assert [t.mmsi for t in read] == [t.mmsi for t in tracks]
    assert all(t.records.dtype == STORE_DTYPE for t in read)
    assert [t.records.tobytes() for t in read] == [_stored(t.records).tobytes() for t in tracks]
    assert (reader.rows, reader.vessels) == (sum(map(len, tracks)), len(tracks))
    return reader


def test_store_is_the_rows_then_one_index_entry_per_vessel(tmp_path):
    a = make_table(make_record(mmsi="367000001", ts=utc(2019, 3, 6, h)) for h in range(5))
    b = make_table([make_record(mmsi="367000002", length=None)])
    path = tmp_path / "tracks.npy"
    # Consecutive tracks of one vessel, as time slabs of a merge, make one entry.
    assert save_tracks(path, [make_track("367000001", a[:2]), make_track("367000001", a[2:]),
                              make_track("367000002", b)]) == 6
    with open(path, "rb") as fh:
        rows, index = np.load(fh), np.load(fh)
        assert fh.read() == b""
    assert rows.tobytes() == _stored(np.concatenate([a, b])).tobytes()
    assert index.dtype == INDEX_DTYPE
    assert index.tolist() == [(367000001, 5), (367000002, 1)]
    assert STORE_DTYPE.itemsize == 40 and INDEX_DTYPE.itemsize == 16


def test_packed_store_holds_int32_counts_of_each_unit(tmp_path):
    table = make_table([make_record(lat=-89.9999999, lon=179.1234567, sog=2147483.647,
                                    cog=359.999),
                        make_record(ts=utc(2019, 3, 6, 1), lat=0.0, lon=-0.5, sog=0.001,
                                    cog=0.0)])
    path = tmp_path / "tracks.npy"
    assert save_tracks(path, [make_track("367000001", table)], packed=True) == 2
    rows = np.load(path)
    assert rows.dtype == PACKED_DTYPE and PACKED_DTYPE.itemsize == 24
    assert rows[["lat", "lon", "sog", "cog"]].tolist() == [
        (-899999999, 1791234567, 2147483647, 359999), (0, -5000000, 1, 0)]
    assert rows["t"].tolist() == table["t"].tolist()
    _assert_reads_back(path, [make_track("367000001", table)])


@pytest.mark.parametrize("field, value", [
    ("lat", 30.12345678), ("lon", -0.0), ("sog", 2147483.648), ("cog", 1e300),
    ("sog", 0.1 + 0.2)])
def test_a_value_that_is_not_an_exact_count_does_not_pack(tmp_path, field, value):
    table = make_table([make_record(), make_record(ts=utc(2019, 3, 6, 1), **{field: value})])
    assert pack(table[:1]) is not None and pack(table) is None
    path = tmp_path / "tracks.npy"
    with pytest.raises(ValueError, match="not exact int32 counts"):
        save_tracks(path, [make_track("367000001", table)], packed=True)
    assert list(tmp_path.iterdir()) == []  # nothing half written
    save_tracks(path, [make_track("367000001", table)])
    _assert_reads_back(path, [make_track("367000001", table)])


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


@pytest.mark.parametrize("hours", [(0, 1, 2, 5, 4, 6, 7, 8), (0, 1, 2, 3, 3, 4, 5, 6)])
def test_reader_rejects_times_not_ascending_within_a_vessel(tmp_path, monkeypatch, hours):
    monkeypatch.setattr(track_store, "_CHUNK_ROWS", 4)
    table = make_table(make_record(ts=utc(2019, 3, 6, h)) for h in hours)
    path = tmp_path / "tracks.npy"
    with open(path, "wb") as fh:  # two `np.save` calls, as the oracle writes a store
        np.save(fh, _stored(table))
        np.save(fh, np.array([(367000001, len(table))], INDEX_DTYPE))
    with pytest.raises(DataError, match="times do not ascend within a vessel"):
        list(TrackReader(path))


def test_reader_rejects_trailing_bytes(tmp_path):
    path, _ = _store(tmp_path, [3])
    path.write_bytes(path.read_bytes() + b"\0" * INDEX_DTYPE.itemsize)
    with pytest.raises(DataError, match="gives 1 vessels, but 32 bytes follow it"):
        list(TrackReader(path))
