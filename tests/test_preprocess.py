import struct
from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import DataError, DayRejectedError
from ais_outliers.preprocess import (
    FEATURES,
    N_SLOTS,
    SENTINEL,
    DailyGrid,
    NormalizationStats,
    NormalizedDay,
    compute_global_stats,
    count_clamped,
    denormalize,
    drop_sparse_day,
    interpolate_gaps,
    load_corpus,
    normalize_day,
    resample_daily,
    save_corpus,
    vessel_days,
)

from conftest import make_record, make_track, utc

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


def test_vessel_days_enumerates_touched_days():
    track = make_track("367000001", [
        make_record(ts=utc(2019, 3, 6, 23, 59, 40)),  # snaps into 3/7 slot 0
        make_record(ts=utc(2019, 3, 6, 12, 0, 0)),
        make_record(ts=utc(2019, 3, 8, 1, 0, 0)),
    ])
    assert vessel_days(track) == [date(2019, 3, 6), date(2019, 3, 7), date(2019, 3, 8)]


# -- drop_sparse_day --------------------------------------------------------

@pytest.mark.parametrize("present,kept", [(19, False), (20, True), (48, True)])
def test_sparse_day_boundary(present, kept):
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[:present] = True
    grid = grid_from_mask(mask)
    result = drop_sparse_day(grid, min_entries=20)
    assert (result is not None) == kept


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


# -- compute_global_stats ---------------------------------------------------

def test_two_point_extrema():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[[0, 1]] = True
    grid = grid_from_mask(mask)
    grid.values[0] = [10.0, -1.0, 0.0, 5.0]
    grid.values[1] = [20.0, -2.0, 1.0, 6.0]
    stats = compute_global_stats([grid])
    assert stats.minimum[0] == 10.0 and stats.maximum[0] == 20.0


def test_missing_cells_excluded_from_extrema():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[[0, 1]] = True
    grid = grid_from_mask(mask)
    grid.values[0] = [10.0, 1.0, 0.0, 5.0]
    grid.values[1] = [20.0, 2.0, 1.0, 6.0]
    grid.values[5] = [99.0, 99.0, 99.0, 99.0]  # present data in a masked slot
    stats = compute_global_stats([grid])
    assert stats.maximum[0] == 20.0


def test_stats_match_bruteforce_scan(rng):
    grids = []
    for _ in range(3):
        mask = rng.random(N_SLOTS) < 0.8
        mask[0] = True
        grid = grid_from_mask(mask)
        grid.values[mask] = rng.uniform(-100, 100, size=(mask.sum(), 4))
        grids.append(grid)
    stats = compute_global_stats(grids)
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
        compute_global_stats([grid])


# -- normalize / denormalize ------------------------------------------------

def stats_4feat():
    return NormalizationStats(minimum=np.array([10.0, -90.0, 0.0, 0.0]),
                              maximum=np.array([60.0, -60.0, 25.0, 360.0]))


def test_normalize_bounds_and_sentinel():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[5] = False
    grid = grid_from_mask(mask)
    stats = stats_4feat()
    grid.values[0] = stats.minimum
    grid.values[1] = stats.maximum
    day = normalize_day(grid, stats)
    npt.assert_array_equal(day.matrix[0], [0.0, 0.0, 0.0, 0.0])
    npt.assert_array_equal(day.matrix[1], [1.0, 1.0, 1.0, 1.0])
    npt.assert_array_equal(day.matrix[5], [SENTINEL] * 4)


def test_day_over_missing_budget_rejected():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[:33] = True  # 15 missing of 48 = 31.25% > 30%
    grid = grid_from_mask(mask)
    with pytest.raises(DayRejectedError):
        normalize_day(grid, stats_4feat())
    mask[:34] = True  # 14 missing = 29.2% passes
    normalize_day(grid_from_mask(mask), stats_4feat())


def test_out_of_range_values_clamped_and_countable():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[:48] = True
    grid = grid_from_mask(mask)
    stats = stats_4feat()
    grid.values[:] = np.tile((stats.minimum + stats.maximum) / 2, (N_SLOTS, 1))
    grid.values[0, 0] = stats.maximum[0] + 5.0
    grid.values[1, 1] = stats.minimum[1] - 5.0
    assert count_clamped(grid, stats) == 2
    day = normalize_day(grid, stats)
    assert day.matrix[0, 0] == 1.0
    assert day.matrix[1, 1] == 0.0


def test_every_cell_in_unit_interval_xor_sentinel(rng):
    stats = stats_4feat()
    for _ in range(10):
        mask = rng.random(N_SLOTS) < 0.9
        mask[: int(0.8 * N_SLOTS)] = True
        grid = grid_from_mask(mask)
        grid.values[grid.mask] = rng.uniform(-200, 400, size=(grid.mask.sum(), 4))
        day = normalize_day(grid, stats)
        in_unit = (day.matrix >= 0.0) & (day.matrix <= 1.0)
        is_sentinel = day.matrix == SENTINEL
        assert np.logical_xor(in_unit, is_sentinel).all()


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
    days = []
    for i in range(3):
        matrix = rng.uniform(0, 1, size=(N_SLOTS, 4))
        matrix[4] = SENTINEL
        days.append(NormalizedDay(mmsi=f"36700000{i}", day=DAY + timedelta(days=i),
                                  matrix=matrix))
    tensor_path = tmp_path / "corpus.f64"
    index_path = tmp_path / "corpus_index.csv"
    save_corpus(days, tensor_path, index_path)

    tensor, ids = load_corpus(tensor_path, index_path)
    assert tensor.shape == (3, N_SLOTS, 4)
    npt.assert_array_equal(tensor[0], days[0].matrix)
    assert ids[1] == ("367000001", DAY + timedelta(days=1))

    # Byte layout: first four cells are row 0's lat, lon, sog, cog as <f8.
    raw = tensor_path.read_bytes()
    first = struct.unpack("<4d", raw[:32])
    npt.assert_array_equal(first, days[0].matrix[0])
    assert len(raw) == 3 * N_SLOTS * 4 * 8


@pytest.mark.parametrize("bad_row", ["1,367000001", "1,367000001,2019-03-06,x",
                                     "1,367000001,not-a-day"])
def test_malformed_sidecar_row_is_data_error(tmp_path, rng, bad_row):
    days = [NormalizedDay(mmsi=f"36700000{i}", day=DAY, matrix=rng.uniform(0, 1, (N_SLOTS, 4)))
            for i in range(2)]
    tensor_path = tmp_path / "corpus.f64"
    index_path = tmp_path / "corpus_index.csv"
    save_corpus(days, tensor_path, index_path)
    lines = index_path.read_text().splitlines()
    index_path.write_text("\n".join(lines[:-1] + [bad_row]) + "\n")
    with pytest.raises(DataError, match="line 3"):
        load_corpus(tensor_path, index_path)
