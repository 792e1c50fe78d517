import io
import random

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ConfigError, DataError
from ais_outliers.ingest import (
    TRACK_DTYPE,
    IngestReport,
    filter_by_length,
    group_and_sort,
    parse_ais_csv,
)

from conftest import make_record, make_table, utc

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


def test_report_text_and_csv_roundtrip():
    report = IngestReport(rows_read=10, rows_rejected=2,
                          reject_reasons={"bad_lat": 2}, vessels_kept=3,
                          vessels_dropped_by_length=1)
    text = report.to_text()
    assert "rows_read=10" in text
    assert "reject.bad_lat=2" in text
    assert "rows_accepted=8" in text
