import csv
import io
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ConfigError, DataError
from ais_outliers import ingest
from ais_outliers.ingest import (
    TRACK_DTYPE,
    IngestReport,
    filter_by_length,
    group_and_sort,
    parse_ais_csv,
)

from conftest import make_record, make_table, utc
from oracles import reference_group_and_sort, reference_parse_ais_csv

HEADER = "MMSI,BaseDateTime,LAT,LON,SOG,COG,Length\n"


def parse_text(text, schema=None):
    return parse_ais_csv(io.StringIO(text), schema)


def test_header_only_file_yields_empty():
    records, report = parse_text(HEADER)
    assert len(records) == 0 and records.dtype == TRACK_DTYPE
    assert report.rows_read == 0
    assert report.rows_rejected == 0


def test_good_row_parses_all_fields():
    records, report = parse_text(
        HEADER + "367000001,2019-03-06T12:30:00,29.5,-88.25,11.4,182.0,123.0\n")
    assert report.rows_read == 1 and report.rows_rejected == 0
    assert records.dtype == TRACK_DTYPE
    (r,) = records
    assert r["mmsi"] == 367000001
    assert r["t"] == utc(2019, 3, 6, 12, 30).timestamp()
    assert tuple(r)[2:] == (29.5, -88.25, 11.4, 182.0, 123.0)


def test_space_separated_timestamp_parses_to_same_epoch():
    records, report = parse_text(
        HEADER + "367000001,2019-03-06 12:30:00,29.5,-88.25,11.4,182.0,123.0\n")
    assert report.rows_rejected == 0
    assert records[0]["t"] == utc(2019, 3, 6, 12, 30).timestamp()


def test_lat_out_of_range_rejected_not_clamped():
    records, report = parse_text(
        HEADER + "367000001,2019-03-06T00:00:00,91.0,-80.0,1.0,10.0,50.0\n")
    assert len(records) == 0
    assert report.reject_reasons == {"lat_out_of_range": 1}


def test_five_row_fixture_with_one_bad_timestamp():
    rows = [
        "367000001,2019-03-06T00:00:00,30.0,-80.0,1.0,10.0,50.0",
        "367000001,2019-03-06T00:30:00,30.1,-80.1,1.0,10.0,50.0",
        "367000001,not-a-time,30.2,-80.2,1.0,10.0,50.0",
        "367000002,2019-03-06T01:00:00,31.0,-81.0,2.0,20.0,60.0",
        "367000002,2019-03-06T01:30:00,31.1,-81.1,2.0,20.0,60.0",
    ]
    records, report = parse_text(HEADER + "\n".join(rows) + "\n")
    assert len(records) == 4
    assert report.rows_read == 5
    assert report.rows_rejected == 1
    assert report.reject_reasons == {"bad_timestamp": 1}
    assert report.rows_accepted == 4


@pytest.mark.parametrize("row,reason", [
    ("36700001,2019-03-06T00:00:00,30.0,-80.0,1.0,10.0,50.0", "bad_mmsi"),  # 8 digits
    ("3670000\u00b2\u00b9,2019-03-06T00:00:00,30.0,-80.0,1.0,10.0,50.0", "bad_mmsi"),  # not ASCII
    ("367000001,2019-03-06T00:00:00,30.0,-200.0,1.0,10.0,50.0", "lon_out_of_range"),
    ("367000001,2019-03-06T00:00:00,30.0,-80.0,-0.1,10.0,50.0", "sog_out_of_range"),
    ("367000001,2019-03-06T00:00:00,30.0,-80.0,1.0,400.0,50.0", "cog_out_of_range"),
    ("367000001,2019-03-06T00:00:00,30.0,-80.0,1.0,-1.0,50.0", "cog_out_of_range"),
    ("367000001,2019-03-06T00:00:00,oops,-80.0,1.0,10.0,50.0", "bad_lat"),
    ("367000001,2019-03-06T00:00:00,NaN,-80.0,1.0,10.0,50.0", "bad_lat"),
    ("367000001,2019-03-06T00:00:00,30.0,-80.0,1.0,10.0", "short_row"),
])
def test_bad_rows_tallied_by_reason(row, reason):
    records, report = parse_text(HEADER + row + "\n")
    assert len(records) == 0
    assert report.reject_reasons == {reason: 1}


def test_cog_360_normalized_to_zero():
    records, _ = parse_text(
        HEADER + "367000001,2019-03-06T00:00:00,30.0,-80.0,1.0,360.0,50.0\n")
    assert records[0]["cog"] == 0.0


def test_blank_length_kept_as_unknown():
    records, report = parse_text(
        HEADER + "367000001,2019-03-06T00:00:00,30.0,-80.0,1.0,10.0,\n")
    assert report.rows_rejected == 0
    assert np.isnan(records[0]["length"])


def test_missing_required_column_is_config_error():
    with pytest.raises(ConfigError, match="Length"):
        parse_text("MMSI,BaseDateTime,LAT,LON,SOG,COG\n")


def test_schema_remap_and_extra_columns():
    text = ("id,when,unused,latitude,longitude,speed,course,loa\n"
            "367000001,2019-03-06T00:00:00,x,30.0,-80.0,1.0,10.0,50.0\n")
    records, _ = parse_ais_csv(io.StringIO(text), schema={
        "mmsi": "id", "timestamp": "when", "lat": "latitude", "lon": "longitude",
        "sog": "speed", "cog": "course", "length": "loa"})
    assert len(records) == 1


def test_undecodable_bytes_raise_data_error():
    stream = io.BytesIO(HEADER.encode() + b"\xff\xfe\x00garbage\xff\n")
    with pytest.raises(DataError):
        parse_ais_csv(stream)


def test_parse_is_total_over_malformed_rows():
    # Structurally odd but decodable rows must tally, never raise.
    random.seed(7)
    junk = "\n".join(
        ",".join(random.choice(["", "x", "1,2", "9" * 9, "2019-03-06T00:00:00", "1e309"])
                 for _ in range(7))
        for _ in range(50))
    records, report = parse_text(HEADER + junk + "\n")
    assert report.rows_read == report.rows_accepted + report.rows_rejected
    assert len(records) == report.rows_accepted


# -- columnar parse against the row-by-row reference ----------------------

# Per field, malformed and odd values: NUL and Unicode whitespace, non-ASCII
# digits, unpadded and impossible stamps, and every float spelling `float`
# and `str.strip` treat differently.
_FLOATS = ["nan", "-nan", "inf", "-inf", "1_0", " 2.5 ", "+3", "0x10", "", " ", "50\x00",
           "\x0050", "5\x000", "\x1c2.5", "\x852.5", "\xa02.5", "\u30002.5", "\uff11\uff12",
           "\u00b9", "1e309", "-0.0", "0", "360", "360.0", "360.5", "-1", "90", "90.5", "-91",
           "180", "-181", "abc", "NaN", "1,5"]
ODD_FIELDS = {
    "mmsi": ["123456789\x00", "\x00123456789", "1234\x0056789", " 367000002 ", "\x1c367000003",
             "367000004\x85", "\xa0367000005", "\u3000367000006",
             "\uff13\uff16\uff17\uff10\uff10\uff10\uff10\uff10\uff18",
             "3670000\u00b2\u00b9", "36700001", "3670000010", "", "abcdefghi", "+36700001"],
    "stamp": ["2019-03-06T00:00:01\x00", "\x002019-03-06T00:00:01", "2019-03-06T00:\x000:01",
              "2019-03-06 00:00:01", "2019-3-6T1:2:3", "2019-3-6 1:2:3", "2019-03-06t00:00:01",
              "\uff12\uff10\uff11\uff19-03-06T00:00:00", "2019-03-06T00:00:0\u00b2",
              "2020-02-29T00:00:00", "2019-02-29T00:00:00", "1900-02-29T00:00:00",
              "2000-02-29T12:00:00", "2019-02-30T00:00:00", "2019-04-31T00:00:00",
              "2019-03-06T24:00:00", "2019-03-06T23:60:00", "2019-03-06T23:59:60",
              "0000-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59",
              "1969-12-31T23:59:59", "1600-02-29T06:00:00", " 2019-03-06T00:00:00 ",
              "\x1c2019-03-06T00:00:00", "\xa02019-03-06 00:00:00", "2019-03-06  00:00:00",
              "2019-03-06\t00:00:00", "2019-03-06X00:00:00", "2019-03- 6T00:00:00",
              "2019-03-06T00:00", "2019/03/06 00:00:00", "2019-13-01T00:00:00",
              "2019-00-10T00:00:00", "2019-01-00T00:00:00", "", "x" * 19],
    "lat": _FLOATS, "lon": _FLOATS, "sog": _FLOATS, "cog": _FLOATS,
    "length": _FLOATS + ["-5", "-0.0", " 50 ", "\x1c50", "50\x1c", "\x85"],
}
FIELDS = list(ODD_FIELDS)


def _valid_row(rng: random.Random) -> list[str]:
    stamp = (f"{rng.choice([1999, 2019, 2020])}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
             f"{rng.choice('T ')}{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"
             f":{rng.randint(0, 59):02d}")
    return [f"3670000{rng.randint(10, 30)}", stamp, f"{rng.uniform(-90, 90):.5f}",
            f"{rng.uniform(-180, 180):.5f}", f"{rng.uniform(0, 30):.1f}",
            f"{rng.uniform(0, 360):.1f}", rng.choice(["", f"{rng.uniform(5, 300):.1f}"])]


def _mixed_rows(rng: random.Random, n: int) -> list[list[str]]:
    """Mostly valid rows; the rest carry odd values, are short, have extra
    columns, or are blank."""
    rows = []
    for _ in range(n):
        row = _valid_row(rng)
        kind = rng.random()
        if kind < 0.3:
            for field in rng.sample(FIELDS, rng.choice([1, 1, 2])):
                row[FIELDS.index(field)] = rng.choice(ODD_FIELDS[field])
        elif kind < 0.33:
            row = row[:rng.randint(1, 6)]
        elif kind < 0.36:
            row += ["extra", "2.5"]
        elif kind < 0.37:
            row = []
        rows.append(row)
    return rows


def _write_csv(path: Path, rows, header=("MMSI", "BaseDateTime", "LAT", "LON", "SOG", "COG",
                                         "Length")) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def assert_same_parse(path, schema=None):
    table, report = parse_ais_csv(path, schema)
    expected, expected_report = reference_parse_ais_csv(path, schema)
    assert table.tobytes() == expected.tobytes()
    assert report.to_text() == expected_report.to_text()


def test_every_odd_field_value_parses_like_reference(tmp_path):
    rng = random.Random(11)
    rows = []
    for i, field in enumerate(FIELDS):
        for value in ODD_FIELDS[field]:
            row = _valid_row(rng)
            row[i] = value
            rows.append(row)
    assert_same_parse(_write_csv(tmp_path / "odd.csv", rows))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_mixed_files_parse_like_reference(tmp_path, seed):
    rng = random.Random(seed)
    rows = _mixed_rows(rng, rng.randint(2 * ingest._BLOCK_ROWS, 3 * ingest._BLOCK_ROWS))
    assert_same_parse(_write_csv(tmp_path / "mixed.csv", rows))


def test_all_short_and_all_rejected_blocks_parse_like_reference(tmp_path):
    rng = random.Random(5)
    n = ingest._BLOCK_ROWS
    rows = ([_valid_row(rng) for _ in range(n)]
            + [_valid_row(rng)[:3] for _ in range(n)]
            + [["bad"] + _valid_row(rng)[1:] for _ in range(n)]
            + [[] for _ in range(n)]
            + [_valid_row(rng) for _ in range(10)])
    path = _write_csv(tmp_path / "blocks.csv", rows)
    assert_same_parse(path)
    table, report = parse_ais_csv(path)
    assert len(table) == n + 10
    assert report.reject_reasons == {"short_row": n, "bad_mmsi": n}


def test_remapped_schema_parses_like_reference(tmp_path):
    names = ["loa", "course", "speed", "when", "longitude", "latitude", "id"]
    schema = dict(zip(["length", "cog", "sog", "timestamp", "lon", "lat", "mmsi"], names))
    rows = [["pad", *row[::-1]] for row in _mixed_rows(random.Random(9), 500)]
    assert_same_parse(_write_csv(tmp_path / "remap.csv", rows, ["unused", *names]), schema)


@pytest.mark.parametrize("kind, params", [
    ("lanes", ["days=120"]), ("dense", ["vessels=3", "days=6"])])
def test_benchmark_generator_files_parse_like_reference(tmp_path, kind, params):
    root = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, str(root / "bench" / "gen.py"), kind, "--seed", "3",
                    "--out", str(tmp_path)] + [a for p in params for a in ("--param", p)],
                   check=True)
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        assert_same_parse(path)


def test_parse_memory_is_bounded_by_the_block(tmp_path):
    rng = random.Random(4)
    path = _write_csv(tmp_path / "big.csv", (_valid_row(rng) for _ in range(64_000)))
    tracemalloc.start()
    try:
        table, report = parse_ais_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.rows_rejected == 0 and len(table) == 64_000
    assert peak < 3 * table.nbytes, (peak, table.nbytes)


# -- filter_by_length ------------------------------------------------------

def test_length_filter_is_strict():
    kept = filter_by_length(make_table([make_record(length=20.0)]), min_length=20.0)
    assert len(kept) == 0


def test_length_filter_keeps_long_vessels():
    table = make_table([make_record(length=250.0)])
    npt.assert_array_equal(filter_by_length(table, min_length=20.0), table)


def test_length_filter_drops_unknown_length():
    assert len(filter_by_length(make_table([make_record(length=None)]))) == 0


def test_length_filter_fixture_counts():
    records = [make_record(mmsi=f"36700000{i+1}", length=length) for i, length in
               enumerate([5.0, 20.0, 19.9, 21.0, 50.0, 100.0, 250.0, 30.0, 22.5, 80.0])]
    kept = filter_by_length(make_table(records), 20.0)
    assert len(kept) == 7


def test_length_filter_idempotent(rng):
    records = make_table(
        make_record(mmsi="367%06d" % i,
                    length=None if rng.random() < 0.2 else float(rng.uniform(0, 300)))
        for i in range(200))
    once = filter_by_length(records, 20.0)
    npt.assert_array_equal(filter_by_length(once, 20.0), once)


# -- group_and_sort --------------------------------------------------------

def test_tracks_sorted_by_time():
    ts = [utc(2019, 3, 6, h) for h in (3, 1, 2)]
    records = make_table(make_record(ts=t) for t in ts)
    (track,) = group_and_sort(records)
    assert track.records["t"].tolist() == [utc(2019, 3, 6, h).timestamp() for h in (1, 2, 3)]


def test_identical_duplicate_rows_collapse():
    report = IngestReport()
    a = make_record()
    tracks = group_and_sort(make_table([a, a]), report)
    assert len(tracks[0]) == 1
    assert report.reject_reasons == {"duplicate_row": 1}


def test_unknown_length_duplicates_count_as_identical():
    report = IngestReport()
    a = make_record(length=None)
    tracks = group_and_sort(make_table([a, a, make_record(length=None, lat=31.0)]), report)
    assert len(tracks[0]) == 1
    assert report.reject_reasons == {"duplicate_row": 1, "duplicate_timestamp": 1}


def test_conflicting_duplicate_timestamp_keeps_first():
    report = IngestReport()
    first = make_record(lat=30.0)
    second = make_record(lat=31.0)
    (track,) = group_and_sort(make_table([first, second]), report)
    assert track.records.tolist() == [first.tolist()]
    assert report.reject_reasons == {"duplicate_timestamp": 1}


def test_interleaved_vessels_grouped_and_sorted():
    records = []
    for hour in (4, 2, 6):
        for mmsi in ("367000003", "367000001", "367000002"):
            records.append(make_record(mmsi=mmsi, ts=utc(2019, 3, 6, hour)))
    tracks = group_and_sort(make_table(records))
    assert [t.mmsi for t in tracks] == ["367000001", "367000002", "367000003"]
    for track in tracks:
        assert track.records["t"].tolist() == [utc(2019, 3, 6, h).timestamp() for h in (2, 4, 6)]


def test_regrouping_preserves_accepted_multiset(rng):
    records = []
    for i in range(300):
        records.append(make_record(
            mmsi=f"3670000{rng.integers(10, 20)}",
            ts=utc(2019, 3, 6, int(rng.integers(0, 24)), int(rng.integers(0, 60))),
            lat=float(rng.uniform(-80, 80))))
    report = IngestReport()
    tracks = group_and_sort(make_table(records), report)
    regrouped = [(t.mmsi, int(r["t"])) for t in tracks for r in t.records]
    # Deduplicate the input the declarative way, keeping the first row of
    # each (mmsi, t) in input order, and compare keys and kept latitudes.
    first = {}
    for r in records:
        first.setdefault((f"{r['mmsi']:09d}", int(r["t"])), float(r["lat"]))
    assert regrouped == sorted(first)
    assert [float(r["lat"]) for t in tracks for r in t.records] == \
        [first[key] for key in sorted(first)]
    kept = sum(len(t) for t in tracks)
    assert kept + report.rows_rejected == len(records)


def _duplicate_heavy_table(rng, n):
    """n unsorted rows of 6 vessels on 40 times each: many exact and
    conflicting duplicates, NaN lengths and signed zeros."""
    table = np.zeros(n, TRACK_DTYPE)
    table["mmsi"] = 367000000 + rng.integers(0, 6, n)
    table["t"] = 1551830400 + 60 * rng.integers(0, 40, n)
    for name in ("lat", "lon", "sog", "cog", "length"):
        table[name] = rng.choice([30.0, 31.0, 0.0, -0.0, np.nan], n)
    return table


@pytest.mark.parametrize("case", ["unsorted", "filtered", "empty", "one_row", "no_report"])
def test_group_and_sort_matches_reference(rng, case):
    table = _duplicate_heavy_table(rng, {"empty": 0, "one_row": 1}.get(case, 3000))
    if case == "filtered":
        table = table[::3]  # a strided view, not a contiguous table
        assert not table.flags.c_contiguous
    report, expected_report = ((None, None) if case == "no_report"
                               else (IngestReport(), IngestReport()))
    tracks = group_and_sort(table, report)
    expected = reference_group_and_sort(table, expected_report)
    assert [t.mmsi for t in tracks] == [t.mmsi for t in expected]
    assert (b"".join(np.ascontiguousarray(t.records).tobytes() for t in tracks)
            == b"".join(np.ascontiguousarray(t.records).tobytes() for t in expected))
    assert report == expected_report
    if case in ("unsorted", "filtered"):
        assert set(report.reject_reasons) == {"duplicate_row", "duplicate_timestamp"}


def test_report_text_and_csv_roundtrip():
    report = IngestReport(rows_read=10, rows_rejected=2,
                          reject_reasons={"bad_lat": 2}, vessels_kept=3,
                          vessels_dropped_by_length=1)
    text = report.to_text()
    assert "rows_read=10" in text
    assert "reject.bad_lat=2" in text
    assert "rows_accepted=8" in text
