import math
import struct
from datetime import date, datetime, timedelta, timezone

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ConfigError, DataError
from ais_outliers.preprocess import (
    FEATURES,
    N_SLOTS,
    SENTINEL,
    DailyGrid,
    NormalizationStats,
    PreprocessSummary,
    build_daily_grids,
    denormalize,
    interpolate_gaps,
    load_corpus,
    normalize_corpus,
    resample_daily,
    save_corpus,
    vessel_days,
)

from conftest import make_record, make_track, utc
from oracles import reference_normalize_corpus

DAY = date(2019, 3, 6)


def grid_from_mask(mask, base=10.0, mmsi="367000001", day=DAY):
    """Grid whose present rows are linear in slot index (closed form)."""
    values = np.full((N_SLOTS, 4), np.nan)
    mask = np.asarray(mask, dtype=bool)
    for i in np.flatnonzero(mask):
        values[i] = [base + i, -base - i, i * 0.5, i * 2.0]
    return DailyGrid(mmsi=mmsi, day=day, values=values, mask=mask.copy())


# -- resample_daily ---------------------------------------------------------

def test_exact_grid_time_fills_slot():
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 0, 30, 0), lat=42.0)])
    grid = resample_daily(track, DAY)
    assert grid.mask[1]
    assert grid.values[1, 0] == 42.0
    assert grid.present_count == 1


def test_nearest_record_wins_within_tolerance():
    # Both records snap to slot 1 (00:30); 00:30:10 is closer than 00:29:20.
    track = make_track("367000001", [
        make_record(ts=utc(2019, 3, 6, 0, 29, 20), lat=1.0),
        make_record(ts=utc(2019, 3, 6, 0, 30, 10), lat=2.0),
    ])
    grid = resample_daily(track, DAY, tolerance_s=60.0)
    offsets = {1.0: abs(29 * 60 + 20 - 1800), 2.0: abs(30 * 60 + 10 - 1800)}
    assert offsets[2.0] < offsets[1.0]  # oracle: nearest by absolute offset
    assert grid.values[1, 0] == 2.0


def test_empty_track_gives_all_missing():
    grid = resample_daily(make_track("367000001", []), DAY)
    assert grid.present_count == 0
    assert not grid.mask.any()


def test_record_outside_tolerance_leaves_slot_missing():
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 0, 31, 31))])
    grid = resample_daily(track, DAY, tolerance_s=60.0)
    assert grid.present_count == 0


def test_equal_offsets_prefer_earlier_record():
    track = make_track("367000001", [
        make_record(ts=utc(2019, 3, 6, 0, 29, 30), lat=1.0),
        make_record(ts=utc(2019, 3, 6, 0, 30, 30), lat=2.0),
    ])
    grid = resample_daily(track, DAY, tolerance_s=60.0)
    assert grid.values[1, 0] == 1.0


def test_each_record_fills_at_most_one_slot():
    # One record within tolerance of slot 2 only; wide tolerance would let
    # it claim both neighbours if the contract were broken.
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 1, 0, 0), lat=5.0)])
    grid = resample_daily(track, DAY, tolerance_s=3000.0)
    assert grid.present_count == 1
    assert grid.mask[2]


def _resample_by_scan(track, day, tolerance_s):
    """Reference: visit every record of the track, keep the (distance,
    arrival order) minimum per slot."""
    start = (day - date(1970, 1, 1)).days * 86400
    best = {}
    for order, record in enumerate(track.records):
        offset = int(record["t"]) - start
        slot = math.floor(offset / 1800 + 0.5)
        distance = abs(offset - slot * 1800)
        if 0 <= slot < N_SLOTS and distance <= tolerance_s:
            best[slot] = min(best.get(slot, (distance, order)), (distance, order))
    values = np.full((N_SLOTS, 4), np.nan)
    for slot, (_, order) in best.items():
        values[slot] = [track.records[order][f] for f in FEATURES]
    return values


def test_resample_matches_whole_track_scan(rng):
    # Three days of jittered half-hour fixes plus random extras, so slots see
    # near-midnight records and records out of tolerance.
    base = int(utc(2019, 3, 5, 23).timestamp())
    t = np.unique(np.concatenate([base + 1800 * np.arange(150) + rng.integers(-120, 121, 150),
                                  base + rng.integers(0, 4 * 86400, 150)]))
    track = make_track("367000001", [
        make_record(ts=datetime.fromtimestamp(int(s), timezone.utc),
                    lat=float(rng.uniform(-80, 80)), sog=float(i)) for i, s in enumerate(t)])
    days = vessel_days(track)
    assert days == [date(2019, 3, 5) + timedelta(days=i) for i in range(5)]
    for day in days:
        for tolerance in (0.0, 60.0, 900.0):
            grid = resample_daily(track, day, tolerance)
            expected = _resample_by_scan(track, day, tolerance)
            npt.assert_array_equal(grid.values, expected)
            npt.assert_array_equal(grid.mask, ~np.isnan(expected[:, 0]))


def test_day_window_edges():
    # 23:45:00 is half a slot before midnight and rounds up into the next
    # day's slot 0; 23:44:59 is the last instant of a day's slot 47.
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 23, 45, 0), lat=1.0),
                                     make_record(ts=utc(2019, 3, 7, 23, 44, 59), lat=2.0)])
    assert resample_daily(track, DAY, tolerance_s=900.0).present_count == 0
    grid = resample_daily(track, date(2019, 3, 7), tolerance_s=900.0)
    assert np.flatnonzero(grid.mask).tolist() == [0, 47]
    assert grid.values[[0, 47], 0].tolist() == [1.0, 2.0]


def test_vessel_days_enumerates_touched_days():
    track = make_track("367000001", [
        make_record(ts=utc(2019, 3, 6, 23, 59, 40)),  # snaps into 3/7 slot 0
        make_record(ts=utc(2019, 3, 6, 12, 0, 0)),
        make_record(ts=utc(2019, 3, 8, 1, 0, 0)),
    ])
    assert vessel_days(track) == [date(2019, 3, 6), date(2019, 3, 7), date(2019, 3, 8)]


# -- sparse days in build_daily_grids ---------------------------------------

@pytest.mark.parametrize("present,kept", [(19, False), (20, True), (48, True)])
def test_sparse_day_boundary(present, kept):
    # One fix on each of the first `present` slots of the day.
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, i // 2, 30 * (i % 2)))
                                     for i in range(present)])
    grids, summary = build_daily_grids([track], min_entries=20)
    assert (len(grids) == 1) == kept
    assert summary.days_sparse_dropped == (not kept)


@pytest.mark.parametrize("min_entries", [-1, N_SLOTS + 1])
def test_min_entries_outside_slot_range_rejected(min_entries):
    with pytest.raises(ConfigError, match="min_entries"):
        build_daily_grids([], min_entries=min_entries)


# -- interpolate_gaps -------------------------------------------------------

def test_midpoint_interpolation():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[1] = False
    grid = grid_from_mask(mask)
    grid.values[0, 2] = 10.0  # sog endpoints 10 and 20
    grid.values[2, 2] = 20.0
    out = interpolate_gaps(grid)
    assert out.mask[1]
    assert out.values[1, 2] == 15.0


def test_leading_gap_never_extrapolated():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[:3] = False
    out = interpolate_gaps(grid_from_mask(mask))
    assert not out.mask[:3].any()
    assert np.isnan(out.values[:3]).all()


def test_trailing_gap_never_extrapolated():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[-4:] = False
    out = interpolate_gaps(grid_from_mask(mask))
    assert not out.mask[-4:].any()


def test_run_longer_than_cap_untouched():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[5:26] = False  # 21-slot interior run
    assert (~mask).sum() == 21
    out = interpolate_gaps(grid_from_mask(mask), max_fill=20)
    assert not out.mask[5:26].any()
    # and a 20-run on the same layout is filled
    mask2 = np.ones(N_SLOTS, dtype=bool)
    mask2[5:25] = False
    out2 = interpolate_gaps(grid_from_mask(mask2), max_fill=20)
    assert out2.mask.all()


def test_interpolated_values_match_closed_form():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[10:13] = False
    grid = grid_from_mask(mask)
    out = interpolate_gaps(grid)
    left, right = grid.values[9], grid.values[13]
    for slot in (10, 11, 12):
        expected = left + (right - left) * (slot - 9) / 4.0
        npt.assert_allclose(out.values[slot], expected, rtol=0, atol=1e-12)


def test_interpolation_never_touches_present_cells(rng):
    for _ in range(20):
        mask = rng.random(N_SLOTS) < 0.7
        grid = grid_from_mask(mask)
        grid.values[mask] = rng.uniform(-50, 50, size=(mask.sum(), 4))
        out = interpolate_gaps(grid.copy(), max_fill=int(rng.integers(0, 20)))
        npt.assert_array_equal(out.values[mask], grid.values[mask])
        assert out.mask[mask].all()


def test_filled_values_lie_between_endpoints(rng):
    for _ in range(20):
        mask = rng.random(N_SLOTS) < 0.6
        mask[0] = mask[-1] = True
        grid = grid_from_mask(mask)
        grid.values[mask] = rng.uniform(-50, 50, size=(mask.sum(), 4))
        out = interpolate_gaps(grid, max_fill=48)
        runs = np.flatnonzero(~mask)
        for slot in runs:
            left = max(i for i in range(slot) if mask[i])
            right = min(i for i in range(slot + 1, N_SLOTS) if mask[i])
            lo = np.minimum(grid.values[left], grid.values[right])
            hi = np.maximum(grid.values[left], grid.values[right])
            assert (out.values[slot] >= lo - 1e-12).all()
            assert (out.values[slot] <= hi + 1e-12).all()


# -- normalization stats ----------------------------------------------------

def corpus_stats(grids):
    """The stats normalize_corpus derives, with every day kept."""
    return normalize_corpus(grids, max_missing_fraction=1.0)[2]


def test_two_point_extrema():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[[0, 1]] = True
    grid = grid_from_mask(mask)
    grid.values[0] = [10.0, -1.0, 0.0, 5.0]
    grid.values[1] = [20.0, -2.0, 1.0, 6.0]
    stats = corpus_stats([grid])
    assert stats.minimum[0] == 10.0 and stats.maximum[0] == 20.0


def test_missing_cells_excluded_from_extrema():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[[0, 1]] = True
    grid = grid_from_mask(mask)
    grid.values[0] = [10.0, 1.0, 0.0, 5.0]
    grid.values[1] = [20.0, 2.0, 1.0, 6.0]
    grid.values[5] = [99.0, 99.0, 99.0, 99.0]  # present data in a masked slot
    stats = corpus_stats([grid])
    assert stats.maximum[0] == 20.0


def test_stats_match_bruteforce_scan(rng):
    grids = []
    for _ in range(3):
        mask = rng.random(N_SLOTS) < 0.8
        mask[0] = True
        grid = grid_from_mask(mask)
        grid.values[mask] = rng.uniform(-100, 100, size=(mask.sum(), 4))
        grids.append(grid)
    stats = corpus_stats(grids)
    # Independent linear scan, one cell at a time.
    lo = [float("inf")] * 4
    hi = [float("-inf")] * 4
    for g in grids:
        for i in range(N_SLOTS):
            if g.mask[i]:
                for j in range(4):
                    lo[j] = min(lo[j], g.values[i, j])
                    hi[j] = max(hi[j], g.values[i, j])
    npt.assert_array_equal(stats.minimum, lo)
    npt.assert_array_equal(stats.maximum, hi)


def test_degenerate_feature_is_fatal_and_named():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[[0, 1]] = True
    grid = grid_from_mask(mask)
    grid.values[0] = [10.0, 1.0, 7.0, 5.0]
    grid.values[1] = [20.0, 2.0, 7.0, 6.0]  # sog constant
    with pytest.raises(DataError, match="sog"):
        corpus_stats([grid])


# -- normalize / denormalize ------------------------------------------------

def stats_4feat():
    return NormalizationStats(minimum=np.array([10.0, -90.0, 0.0, 0.0]),
                              maximum=np.array([60.0, -60.0, 25.0, 360.0]))


def test_normalize_bounds_and_sentinel():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[5] = False
    grid = grid_from_mask(mask)
    stats = stats_4feat()
    grid.values[:] = (stats.minimum + stats.maximum) / 2
    grid.values[0] = stats.minimum
    grid.values[1] = stats.maximum
    tensor, _, _ = normalize_corpus([grid])
    npt.assert_array_equal(tensor[0, 0], [0.0, 0.0, 0.0, 0.0])
    npt.assert_array_equal(tensor[0, 1], [1.0, 1.0, 1.0, 1.0])
    npt.assert_array_equal(tensor[0, 5], [SENTINEL] * 4)


def test_day_over_missing_budget_rejected():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[:33] = True  # 15 missing of 48 = 31.25% > 30%
    over = grid_from_mask(mask, mmsi="367000001")
    mask[:34] = True  # 14 missing = 29.2% passes
    within = grid_from_mask(mask, mmsi="367000002")
    summary = PreprocessSummary()
    _, ids, _ = normalize_corpus([over, within], summary=summary)
    assert ids == [("367000002", DAY)]
    assert (summary.days_missing_dropped, summary.days_kept) == (1, 1)


def test_every_cell_in_unit_interval_xor_sentinel(rng):
    grids = []
    for _ in range(10):
        mask = rng.random(N_SLOTS) < 0.9
        mask[: int(0.8 * N_SLOTS)] = True
        grid = grid_from_mask(mask)
        grid.values[grid.mask] = rng.uniform(-200, 400, size=(grid.mask.sum(), 4))
        grids.append(grid)
    tensor, _, _ = normalize_corpus(grids)
    assert tensor.shape == (10, N_SLOTS, 4)
    in_unit = (tensor >= 0.0) & (tensor <= 1.0)
    is_sentinel = tensor == SENTINEL
    assert np.logical_xor(in_unit, is_sentinel).all()


def test_normalize_corpus_matches_day_by_day_reference(rng):
    # Random grids with missing slots on both sides of the 30% rule, some
    # with values far outside the others' range.
    grids = []
    for i in range(40):
        mask = rng.random(N_SLOTS) < rng.uniform(0.55, 1.0)
        grid = grid_from_mask(mask, mmsi=f"3670000{i % 7:02d}", day=DAY + timedelta(days=i))
        grid.values[mask] = rng.uniform(-500, 500, size=(mask.sum(), 4)) * rng.uniform(0.01, 3)
        grids.append(grid)
    survivors = sum(g.missing_fraction <= 0.30 for g in grids)
    assert 0 < survivors < len(grids)

    tensor, ids, stats = normalize_corpus(grids, max_missing_fraction=0.30)
    matrices, ref_ids, minimum, maximum = reference_normalize_corpus(grids, 0.30)
    assert tensor.shape == (survivors, N_SLOTS, 4)
    assert tensor.tobytes() == np.stack(matrices).tobytes()
    assert ids == ref_ids
    assert stats.minimum.tobytes() == minimum.tobytes()
    assert stats.maximum.tobytes() == maximum.tobytes()


def test_denormalize_examples():
    stats = stats_4feat()
    assert denormalize(0.0, "lat", stats) == 10.0
    assert denormalize(0.5, "cog", stats) == 180.0
    assert denormalize(SENTINEL, 2, stats) == SENTINEL


def test_normalize_roundtrip_within_1e9(rng):
    stats = stats_4feat()
    for j, name in enumerate(FEATURES):
        values = rng.uniform(stats.minimum[j], stats.maximum[j], size=500)
        span = stats.maximum[j] - stats.minimum[j]
        for x in values:
            norm = (x - stats.minimum[j]) / span
            back = denormalize(norm, name, stats)
            assert abs(back - x) <= 1e-9 * max(1.0, abs(x))


def test_stats_text_roundtrip(tmp_path):
    stats = stats_4feat()
    path = tmp_path / "stats.txt"
    stats.save(path)
    loaded = NormalizationStats.load(path)
    npt.assert_array_equal(loaded.minimum, stats.minimum)
    npt.assert_array_equal(loaded.maximum, stats.maximum)


def test_missing_stats_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        NormalizationStats.load(tmp_path / "absent.txt")


# -- corpus persistence -----------------------------------------------------

def test_corpus_roundtrip_and_layout(tmp_path, rng):
    days = rng.uniform(0, 1, size=(3, N_SLOTS, 4))
    days[:, 4] = SENTINEL
    day_ids = [(f"36700000{i}", DAY + timedelta(days=i)) for i in range(3)]
    tensor_path = tmp_path / "corpus.f64"
    index_path = tmp_path / "corpus_index.csv"
    save_corpus(days, day_ids, tensor_path, index_path)

    tensor, ids = load_corpus(tensor_path, index_path)
    assert tensor.shape == (3, N_SLOTS, 4)
    npt.assert_array_equal(tensor[0], days[0])
    assert ids[1] == ("367000001", DAY + timedelta(days=1))

    # Byte layout: first four cells are row 0's lat, lon, sog, cog as <f8.
    raw = tensor_path.read_bytes()
    first = struct.unpack("<4d", raw[:32])
    npt.assert_array_equal(first, days[0, 0])
    assert len(raw) == 3 * N_SLOTS * 4 * 8


@pytest.mark.parametrize("bad_row", ["1,367000001", "1,367000001,2019-03-06,x",
                                     "1,367000001,not-a-day"])
def test_malformed_sidecar_row_is_data_error(tmp_path, rng, bad_row):
    tensor_path = tmp_path / "corpus.f64"
    index_path = tmp_path / "corpus_index.csv"
    save_corpus(rng.uniform(0, 1, (2, N_SLOTS, 4)), [(f"36700000{i}", DAY) for i in range(2)],
                tensor_path, index_path)
    lines = index_path.read_text().splitlines()
    index_path.write_text("\n".join(lines[:-1] + [bad_row]) + "\n")
    with pytest.raises(DataError, match="line 3"):
        load_corpus(tensor_path, index_path)
