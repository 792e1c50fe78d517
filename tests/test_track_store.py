"""Out-of-core ingest and the streamed track store.

`ingest_files` spills one sorted run per input file and merges the runs in
batches of whole vessels, or time slabs of a vessel larger than a batch;
`TrackReader` reads the store back in chunks cut at vessel boundaries. Both are checked against the whole-corpus path
(`oracles.reference_ingest`) and against `np.load` of the store.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ais_outliers import ingest
from ais_outliers.errors import DataError
from ais_outliers.ingest import (TRACK_DTYPE, IngestReport, TrackReader, group_and_sort,
                                 ingest_files, save_tracks)

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
    an equal report; returns the report and the counts."""
    report, counts = ingest_files(paths, tmp_path / "tracks.npy", tmp_path / "spill",
                                  **kwargs)
    expected = reference_ingest(paths, tmp_path / "expected.npy", **kwargs)
    assert (tmp_path / "tracks.npy").read_bytes() == (tmp_path / "expected.npy").read_bytes()
    assert report == expected
    assert not (tmp_path / "spill").exists()
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
    table = np.load(tmp_path / "tracks.npy")
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
    big = [t for t in TrackReader(tmp_path / "tracks.npy") if t.mmsi == "367000005"]
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
    assert counts == {"rows_kept": 8, "vessels_kept": 2, "merge_batches": 5}
    assert report.reject_reasons == {"duplicate_row": 13, "duplicate_timestamp": 2}
    table = np.load(tmp_path / "tracks.npy")
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
    file_bytes = 4000 * TRACK_DTYPE.itemsize  # one file's rows in the store
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

def _store(tmp_path, lengths):
    """A store of vessels with the given row counts, and its tracks."""
    tracks = [make_track(f"36700000{i}", [make_record(mmsi=f"36700000{i}",
                                                      ts=utc(2019, 3, 6, h))
                                          for h in range(n)])
              for i, n in enumerate(lengths)]
    path = tmp_path / "tracks.npy"
    save_tracks(path, tracks)
    return path, tracks


def _assert_reads_back(path, tracks):
    reader = TrackReader(path)
    read = list(reader)
    assert [t.mmsi for t in read] == [t.mmsi for t in tracks]
    assert [t.records.tobytes() for t in read] == [t.records.tobytes() for t in tracks]
    assert (reader.rows, reader.vessels) == (sum(map(len, tracks)), len(tracks))
    return reader


def test_reader_carries_a_vessel_cut_by_a_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 5)
    path, tracks = _store(tmp_path, [3, 4, 4, 2])  # chunks end inside vessels 1 and 2
    assert _assert_reads_back(path, tracks).chunks == 3


def test_reader_holds_a_vessel_larger_than_a_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
    path, tracks = _store(tmp_path, [2, 11, 1])
    assert _assert_reads_back(path, tracks).chunks == 4


def test_reader_rejects_a_store_unsorted_across_a_chunk_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
    rows = [make_record(ts=utc(2019, 3, 6, h)) for h in (0, 1, 2, 5, 4, 6, 7, 8)]
    table = make_table(rows)
    path = tmp_path / "tracks.npy"
    np.save(path, table)
    for chunk in (table[:4], table[4:]):  # each chunk on its own is sorted
        assert (np.diff(chunk["t"]) > 0).all()
    with pytest.raises(DataError, match="not sorted by MMSI then time"):
        list(TrackReader(path))


def test_reader_rejects_trailing_bytes(tmp_path):
    path, _ = _store(tmp_path, [3])
    path.write_bytes(path.read_bytes() + b"\0" * TRACK_DTYPE.itemsize)
    with pytest.raises(DataError, match="header says 3 rows"):
        list(TrackReader(path))
