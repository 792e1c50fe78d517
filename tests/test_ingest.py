import csv
import gc
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

from conftest import make_record, make_table, utc, vessels
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
           "180", "-181", "abc", "NaN", "1,5",
           # 23, 24, 25 and 31 bytes: about as wide as the gather a float is read from.
           "1" * 23, "0." + "0" * 20 + "15", "3" * 25, "-0." + "0" * 20 + "25", "-" + "4" * 30]
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


COLUMNS = ("MMSI", "BaseDateTime", "LAT", "LON", "SOG", "COG", "Length")
# Line ends csv.writer may write: "\r\n" is its default.
LINE_ENDS = pytest.mark.parametrize("lineterminator", ["\n", "\r\n"], ids=["lf", "crlf"])


def _write_csv(path: Path, rows, header=COLUMNS, lineterminator="\r\n") -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# Lines of _write_chunked_csv files other than the header: a chunk holds
# SEAM_ROWS of them.
ROW_BYTES = 128
SEAM_ROWS = ingest._BLOCK_BYTES // ROW_BYTES


def _write_chunked_csv(path: Path, rows, lineterminator: str) -> Path:
    """_write_csv with one more column, of spaces, that makes the header
    line a whole chunk and every row that is not blank ROW_BYTES long, so
    that each chunk after the first holds SEAM_ROWS lines: a file of rows
    without blank ones has row i in chunk i // SEAM_ROWS + 1."""
    def line(row) -> bytes:
        out = io.StringIO()
        csv.writer(out, lineterminator=lineterminator).writerow(row)
        return out.getvalue().encode()

    def padded(row, size: int) -> bytes:
        pad = size - len(line([*row, ""]))
        assert pad >= 0
        return line([*row, " " * pad])

    with open(path, "wb") as fh:
        fh.write(padded(COLUMNS, ingest._BLOCK_BYTES))
        fh.writelines(padded(row, ROW_BYTES) if row else line(row) for row in rows)
    return path


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader used on a file without quotes")


def assert_same_parse(path, schema=None, guard=None):
    """The parse of `path` equals the reference's. With `guard` (pytest's
    monkeypatch) the file must hold no quote, and csv.reader raises while
    it is parsed."""
    expected, expected_report = reference_parse_ais_csv(path, schema)
    if guard is not None:
        assert b'"' not in Path(path).read_bytes()
        guard.setattr(ingest.csv, "reader", _no_csv_reader)
    try:
        table, report = parse_ais_csv(path, schema)
    finally:
        if guard is not None:
            guard.undo()
    assert table.tobytes() == expected.tobytes()
    assert report.to_text() == expected_report.to_text()


def _quote_free(rows):
    """Rows csv.writer writes without quotes: commas in values become ";"."""
    return [[value.replace(",", ";") for value in row] for row in rows]


def _odd_field_rows():
    rng = random.Random(11)
    rows = []
    for i, field in enumerate(FIELDS):
        for value in ODD_FIELDS[field]:
            row = _valid_row(rng)
            row[i] = value
            rows.append(row)
    return rows


@LINE_ENDS
def test_every_odd_field_value_parses_like_reference(tmp_path, lineterminator):
    assert_same_parse(_write_csv(tmp_path / "odd.csv", _odd_field_rows(),
                                 lineterminator=lineterminator))


@LINE_ENDS
def test_every_odd_field_value_without_quotes_parses_like_reference(
        tmp_path, lineterminator, monkeypatch):
    path = _write_csv(tmp_path / "odd.csv", _quote_free(_odd_field_rows()),
                      lineterminator=lineterminator)
    assert_same_parse(path, guard=monkeypatch)


def _mixed_file(path: Path, seed: int, lineterminator: str, quotes: bool = True) -> Path:
    rng = random.Random(seed)
    # Two to three chunks of 64-byte rows.
    rows = _mixed_rows(rng, rng.randint(2 * ingest._BLOCK_BYTES // 64,
                                        3 * ingest._BLOCK_BYTES // 64))
    return _write_csv(path, rows if quotes else _quote_free(rows), lineterminator=lineterminator)


@LINE_ENDS
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_mixed_files_parse_like_reference(tmp_path, seed, lineterminator):
    assert_same_parse(_mixed_file(tmp_path / "mixed.csv", seed, lineterminator))


@LINE_ENDS
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_mixed_files_without_quotes_parse_like_reference(
        tmp_path, seed, lineterminator, monkeypatch):
    path = _mixed_file(tmp_path / "mixed.csv", seed, lineterminator, quotes=False)
    assert_same_parse(path, guard=monkeypatch)


@LINE_ENDS
def test_all_short_and_all_rejected_blocks_parse_like_reference(
        tmp_path, lineterminator, monkeypatch):
    # One chunk each of valid, short and rejected rows, then blank lines.
    rng = random.Random(5)
    n = SEAM_ROWS
    rows = ([_valid_row(rng) for _ in range(n)]
            + [_valid_row(rng)[:3] for _ in range(n)]
            + [["bad"] + _valid_row(rng)[1:] for _ in range(n)]
            + [[] for _ in range(n)]
            + [_valid_row(rng) for _ in range(10)])
    path = _write_chunked_csv(tmp_path / "blocks.csv", rows, lineterminator)
    assert_same_parse(path, guard=monkeypatch)
    table, report = parse_ais_csv(path)
    assert len(table) == n + 10
    assert report.reject_reasons == {"short_row": n, "bad_mmsi": n}


@LINE_ENDS
def test_bad_floats_at_block_edges_parse_like_reference(tmp_path, lineterminator, monkeypatch):
    # Two chunks of rows. Lengths `float` rejects sit first, last, side by
    # side and at the seam of the chunks; other columns hold rejected values
    # first or last in a chunk, or two side by side.
    rng = random.Random(6)
    n = SEAM_ROWS
    rows = [_valid_row(rng)[:6] + ["50.0"] for _ in range(2 * n)]
    for k, i in enumerate((0, 1, 2, 5, 6, n - 2, n - 1, n, 2 * n - 1)):
        rows[i][6] = ["", " ", "abc", "\x85"][k % 4]
    rows[n + 2][6] = "\x1c50"  # rejected by `float`, a length once stripped
    for column, i in ((2, 0), (3, n - 1), (4, n), (4, n + 1), (5, 2 * n - 1)):
        rows[i][column] = "x"
    path = _write_chunked_csv(tmp_path / "edges.csv", rows, lineterminator)
    assert_same_parse(path, guard=monkeypatch)
    table, report = parse_ais_csv(path)
    assert report.reject_reasons == {"bad_lat": 1, "bad_lon": 1, "bad_sog": 2, "bad_cog": 1}
    # Rows 1, 2, 5, 6 and n - 2, after the rejected row 0.
    assert np.flatnonzero(np.isnan(table["length"])).tolist() == [0, 1, 4, 5, n - 3]
    assert table["length"][n - 2] == 50.0  # row n + 2


@LINE_ENDS
def test_remapped_schema_parses_like_reference(tmp_path, lineterminator):
    names = ["loa", "course", "speed", "when", "longitude", "latitude", "id"]
    schema = dict(zip(["length", "cog", "sog", "timestamp", "lon", "lat", "mmsi"], names))
    rows = [["pad", *row[::-1]] for row in _mixed_rows(random.Random(9), 500)]
    assert_same_parse(_write_csv(tmp_path / "remap.csv", rows, ["unused", *names],
                                 lineterminator=lineterminator), schema)


@pytest.mark.parametrize("kind, params", [
    ("lanes", ["days=120"]), ("dense", ["vessels=3", "days=6"])])
def test_benchmark_generator_files_parse_like_reference(tmp_path, kind, params, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, str(root / "bench" / "gen.py"), kind, "--seed", "3",
                    "--out", str(tmp_path)] + [a for p in params for a in ("--param", p)],
                   check=True)
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        assert_same_parse(path, guard=monkeypatch)


# -- byte-level cases against the reference ---------------------------------

ROW = "367000001,2019-03-06T00:00:00,30.0,-80.0,1.0,10.0,50.0"
B = ingest._BLOCK_BYTES


def _at(offset: int, text: str) -> str:
    """HEADER, then rows (and one short row of filler) up to byte `offset`
    of the file, then `text`."""
    head = HEADER + f"{ROW}\n" * ((offset - len(HEADER)) // (len(ROW) + 1) - 1)
    return head + "x" * (offset - len(head) - 1) + "\n" + text


@pytest.mark.parametrize("data", [
    HEADER.encode() + b"\xff\xfe\x00garbage\xff\n",
    b"MMSI,BaseDateTime\n\xff\n",  # reported before the missing columns
    _at(B + 100, f"{ROW}\n").encode() + b"\xff\n",  # after the first chunk
], ids=["first_row", "before_header_check", "after_first_chunk"])
def test_undecodable_bytes_raise_data_error(data):
    stream = io.BytesIO(data)
    with pytest.raises(DataError, match="unreadable AIS stream"):
        parse_ais_csv(stream)


BYTE_CASES = {
    "lone_cr": HEADER[:-1] + "\r" + f"{ROW}\r{ROW[:-4]}\r\n{ROW}\n\r{ROW}",
    "blank_lines": HEADER + "\r\n\r\n" + f"{ROW}\n\n\r\r\n{ROW}\r\n\r\n\n",
    "no_trailing_line_end": HEADER + f"{ROW}\n{ROW}",
    "no_trailing_line_end_short": HEADER + f"{ROW}\n36700000",
    "header_only": HEADER,
    "header_only_no_line_end": HEADER[:-1],
    "header_only_crlf": HEADER[:-1] + "\r\n",
    "empty": "",
    "nul_values": HEADER + "\x00,\x00,\x00,\x00,\x00,\x00,\x00\n"
                  + "367000001\x00,2019-03-06T00:00:00\x00,3\x00,-80\x00,1\x00,1\x00,5\x00\n"
                  + "367000001,2019-03-06T00:00:00,30\x00.0,-80.0,1.0,10.0,\x00\n" + ROW + "\n",
    "quoted_header": ('"MMSI",BaseDateTime,LAT,LON,SOG,COG,Length,"x\ny"\n'
                      f'"{ROW[:9]}"{ROW[9:]},\n{ROW},\n'),
    # The quote opens 3 bytes before the second read ends and the field's
    # first line end ends that read, so the field spans two chunks.
    "quoted_newline_across_seam": _at(2 * B - 3 - len(ROW[:-4]),
                                      f'{ROW[:-4]}"5\n\n0.0"\n{ROW}\n' * 3),
    "quote_after_seam": _at(2 * B + 3, f'"{ROW[:9]}"{ROW[9:]}\n{ROW}\n'),
    "quote_in_unquoted_field": HEADER + f'{ROW[:-4]}5"0\n{ROW}\n',
    "quoted_short_rows_only": HEADER + '"36700000",1\n\n"x"\n',
    "quoted_empty_values": HEADER + f'"",{ROW[10:]}\n{ROW[:-4]}""\n"{ROW[:9]}",{ROW[10:]}\n',
    # The first read ends inside "５".
    "multibyte_across_read": _at(B - 1 - len(ROW[:-4]), f"{ROW[:-4]}５０,{ROW}\n{ROW}\n"),
    "long_line_across_reads": HEADER + f"{ROW},{'x' * (2 * B)}\n{ROW}\n",
    # The first read ends with "\r" and the second starts with "\n".
    "cr_at_read_end": _at(B - len(ROW) - 1, f"{ROW}\r\n{ROW}\n"),
}


def test_byte_cases_straddle_the_reads():
    def at(case, byte):
        return BYTE_CASES[case].encode().index(byte)

    assert at("quoted_newline_across_seam", b'"') == 2 * B - 3
    assert at("multibyte_across_read", "５".encode()) == B - 1
    assert BYTE_CASES["cr_at_read_end"].encode()[B - 1:B + 1] == b"\r\n"
    assert at("quote_after_seam", b'"') == 2 * B + 3


@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_byte_cases_parse_like_reference(tmp_path, case):
    text = BYTE_CASES[case]
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    expected, expected_report = reference_parse_ais_csv(path)
    for source in (path, io.BytesIO(text.encode("utf-8")), io.StringIO(text, newline="")):
        table, report = parse_ais_csv(source)
        assert table.tobytes() == expected.tobytes()
        assert report.to_text() == expected_report.to_text()


def test_byte_cases_reach_the_reader_they_are_meant_to(monkeypatch):
    # The cases without a quote never reach csv.reader; the others do.
    calls = []
    reader = csv.reader
    monkeypatch.setattr(ingest.csv, "reader", lambda *a: calls.append(1) or reader(*a))
    for case, text in BYTE_CASES.items():
        calls.clear()
        parse_ais_csv(io.BytesIO(text.encode("utf-8")))
        assert bool(calls) == ('"' in text), case


@pytest.mark.parametrize("where", ["header", "row", "row_after_seam"])
def test_field_over_the_csv_limit_is_data_error(tmp_path, where):
    big = "x" * (csv.field_size_limit() + 1)
    text = {"header": HEADER[:-1] + f",{big}\n{ROW}\n",
            "row": HEADER + f"{ROW},{big}\n",
            "row_after_seam": _at(2 * B, f"{ROW},{big}\n")}[where]
    path = tmp_path / "big.csv"
    path.write_bytes(text.encode())
    with pytest.raises(csv.Error):
        reference_parse_ais_csv(path)
    with pytest.raises(DataError, match="field larger than field limit"):
        parse_ais_csv(path)
    # A field at the limit is read.
    path.write_bytes(text.replace(big, big[1:]).encode())
    assert_same_parse(path)


def test_blank_first_line_is_the_header():
    # As csv.reader reads it: a header without columns.
    for text in ("\n" + HEADER, "\r\n" + HEADER, "\r" + HEADER):
        with pytest.raises(ConfigError, match="missing required column 'MMSI'"):
            parse_ais_csv(io.BytesIO(text.encode()))


def test_byte_stream_is_left_open_and_readable():
    stream = io.BytesIO((HEADER + ROW + "\n").encode())
    records, _ = parse_ais_csv(stream)
    gc.collect()
    assert len(records) == 1 and not stream.closed
    stream.seek(0)
    assert stream.read(4) == b"MMSI"


def test_text_stream_with_lone_surrogate_tallies_it():
    # A str stream may hold what UTF-8 cannot: such a value is rejected,
    # not an unreadable stream.
    records, report = parse_text(HEADER + "36700000\ud800," + ROW[10:] + "\n" + ROW + "\n")
    assert len(records) == 1 and report.reject_reasons == {"bad_mmsi": 1}


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


def test_parse_peaks_at_1_6_times_its_table(tmp_path):
    # The blocks' rows are appended to one buffer as they are parsed, not
    # held as tables until the end (2.1 times the table).
    rng = random.Random(4)
    path = _write_csv(tmp_path / "big.csv", (_valid_row(rng) for _ in range(64_000)))
    parse_ais_csv(io.StringIO(HEADER + "367000001,2019-03-06T00:00:00,30,-80,1,2,50\n"))
    tracemalloc.start()
    try:
        table, _ = parse_ais_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 64_000
    assert peak <= 1.6 * table.nbytes, peak / table.nbytes


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
    tracks = group_and_sort(records)
    assert tracks.index.tolist() == [(367000001, 3)]
    assert tracks.records["t"].tolist() == [utc(2019, 3, 6, h).timestamp() for h in (1, 2, 3)]


def test_identical_duplicate_rows_collapse():
    report = IngestReport()
    a = make_record()
    tracks = group_and_sort(make_table([a, a]), report)
    assert tracks.index.tolist() == [(367000001, 1)] and len(tracks.records) == 1
    assert report.reject_reasons == {"duplicate_row": 1}


def test_unknown_length_duplicates_count_as_identical():
    report = IngestReport()
    a = make_record(length=None)
    tracks = group_and_sort(make_table([a, a, make_record(length=None, lat=31.0)]), report)
    assert tracks.index.tolist() == [(367000001, 1)] and len(tracks.records) == 1
    assert report.reject_reasons == {"duplicate_row": 1, "duplicate_timestamp": 1}


def test_conflicting_duplicate_timestamp_keeps_first():
    report = IngestReport()
    first = make_record(lat=30.0)
    second = make_record(lat=31.0)
    tracks = group_and_sort(make_table([first, second]), report)
    assert tracks.index.tolist() == [(367000001, 1)]
    assert tracks.records.tolist() == [first.tolist()]
    assert report.reject_reasons == {"duplicate_timestamp": 1}


def test_interleaved_vessels_grouped_and_sorted():
    records = []
    for hour in (4, 2, 6):
        for mmsi in ("367000003", "367000001", "367000002"):
            records.append(make_record(mmsi=mmsi, ts=utc(2019, 3, 6, hour)))
    tracks = group_and_sort(make_table(records))
    assert tracks.index.tolist() == [(367000001, 3), (367000002, 3), (367000003, 3)]
    for mmsi, track in vessels([tracks]):
        assert (track["mmsi"] == mmsi).all()
        assert track["t"].tolist() == [utc(2019, 3, 6, h).timestamp() for h in (2, 4, 6)]


def test_regrouping_preserves_accepted_multiset(rng):
    records = []
    for i in range(300):
        records.append(make_record(
            mmsi=f"3670000{rng.integers(10, 20)}",
            ts=utc(2019, 3, 6, int(rng.integers(0, 24)), int(rng.integers(0, 60))),
            lat=float(rng.uniform(-80, 80))))
    report = IngestReport()
    tracks = group_and_sort(make_table(records), report)
    regrouped = [(mmsi, int(r["t"])) for mmsi, track in vessels([tracks]) for r in track]
    # Deduplicate the input the declarative way, keeping the first row of
    # each (mmsi, t) in input order, and compare keys and kept latitudes.
    first = {}
    for r in records:
        first.setdefault((int(r["mmsi"]), int(r["t"])), float(r["lat"]))
    assert regrouped == sorted(first)
    assert [float(r["lat"]) for r in tracks.records] == [first[key] for key in sorted(first)]
    assert len(tracks.records) + report.rows_rejected == len(records)


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
    assert tracks.index.tolist() == [(mmsi, len(records)) for mmsi, records in expected]
    assert (tracks.records.tobytes()
            == b"".join(np.ascontiguousarray(records).tobytes() for _, records in expected))
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
