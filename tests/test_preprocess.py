import math
import struct
import subprocess
import sys
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers import tracks as track_store
from ais_outliers.errors import ConfigError, DataError
from ais_outliers.ingest import TRACK_DTYPE, ingest_files
from ais_outliers.preprocess import (
    FEATURES,
    IDS_DTYPE,
    N_SLOTS,
    SENTINEL,
    DayGrids,
    NormalizationStats,
    PreprocessSummary,
    build_daily_grids,
    interpolate_gaps,
    load_corpus,
    normalize_corpus,
    resample_daily,
    save_corpus,
)
from ais_outliers.tracks import TrackReader, Tracks, save_tracks

from conftest import make_record, make_track, utc, vessels
from oracles import (ReferenceDay, denormalize, reference_build_daily_grids,
                     reference_normalize_corpus)

DAY = date(2019, 3, 6)
BENCH = Path(__file__).resolve().parent.parent / "bench"


def grid_from_mask(mask, base=10.0):
    """One day's (values, mask) whose present rows are linear in slot index
    (closed form)."""
    values = np.full((N_SLOTS, 4), np.nan)
    mask = np.asarray(mask, dtype=bool)
    for i in np.flatnonzero(mask):
        values[i] = [base + i, -base - i, i * 0.5, i * 2.0]
    return values, mask.copy()


def day_grids(days, mmsis=None):
    """A DayGrids block of one-day (values, mask) pairs, one day apart."""
    mmsis = mmsis or [367000001] * len(days)
    ids = np.array([(mmsi, DAY + timedelta(days=i)) for i, mmsi in enumerate(mmsis)], IDS_DTYPE)
    return DayGrids(ids, np.array([v for v, _ in days]).reshape(-1, N_SLOTS, 4),
                    np.array([m for _, m in days], dtype=bool).reshape(-1, N_SLOTS))


def resample_day(track, day, tolerance_s=60.0):
    """The (values, mask) that resample_daily gives `day`; all missing when
    the track does not touch the day."""
    grids = resample_daily(track, tolerance_s)
    for row, (mmsi, grid_day) in enumerate(grids.ids.tolist()):
        assert mmsi == track.index["mmsi"][0]
        if grid_day == day:
            return grids.values[row], grids.mask[row]
    return np.full((N_SLOTS, 4), np.nan), np.zeros(N_SLOTS, dtype=bool)


def interpolated(values, mask, max_fill=20):
    """interpolate_gaps on copies of one day's arrays."""
    values, mask = values.copy(), mask.copy()
    interpolate_gaps(values[None], mask[None], max_fill)
    return values, mask


# -- resample_daily ---------------------------------------------------------

def test_exact_grid_time_fills_slot():
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 0, 30, 0), lat=42.0)])
    values, mask = resample_day(track, DAY)
    assert mask[1]
    assert values[1, 0] == 42.0
    assert mask.sum() == 1


def test_nearest_record_wins_within_tolerance():
    # Both records snap to slot 1 (00:30); 00:30:10 is closer than 00:29:20.
    track = make_track("367000001", [
        make_record(ts=utc(2019, 3, 6, 0, 29, 20), lat=1.0),
        make_record(ts=utc(2019, 3, 6, 0, 30, 10), lat=2.0),
    ])
    values, _ = resample_day(track, DAY, tolerance_s=60.0)
    offsets = {1.0: abs(29 * 60 + 20 - 1800), 2.0: abs(30 * 60 + 10 - 1800)}
    assert offsets[2.0] < offsets[1.0]  # oracle: nearest by absolute offset
    assert values[1, 0] == 2.0


def test_empty_track_gives_no_days():
    grids = resample_daily(make_track("367000001", []))
    assert len(grids) == 0
    assert grids.values.shape == (0, N_SLOTS, 4) and grids.mask.shape == (0, N_SLOTS)


def test_record_outside_tolerance_leaves_slot_missing():
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 0, 31, 31))])
    grids = resample_daily(track, tolerance_s=60.0)
    assert grids.ids.tolist() == [(367000001, DAY)]  # the day is touched, but empty
    assert grids.mask.sum() == 0


def test_equal_offsets_prefer_earlier_record():
    track = make_track("367000001", [
        make_record(ts=utc(2019, 3, 6, 0, 29, 30), lat=1.0),
        make_record(ts=utc(2019, 3, 6, 0, 30, 30), lat=2.0),
    ])
    values, _ = resample_day(track, DAY, tolerance_s=60.0)
    assert values[1, 0] == 1.0


def test_each_record_fills_at_most_one_slot():
    # One record within tolerance of slot 2 only; wide tolerance would let
    # it claim both neighbours if the contract were broken.
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 1, 0, 0), lat=5.0)])
    _, mask = resample_day(track, DAY, tolerance_s=3000.0)
    assert mask.sum() == 1
    assert mask[2]


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


def _random_track(rng, mmsi="367000001", first=utc(2019, 3, 5, 23), days=4):
    """Jittered half-hour fixes plus random extras over `days` days, so slots
    see near-midnight records and records out of tolerance, with some
    records mirrored about their slot for distance ties. About half the
    slots, and every slot of the first whole day, also get a fix on the
    slot instant."""
    base = int(first.timestamp())
    n = days * N_SLOTS - 42
    fixes = base + 1800 * np.arange(n) + rng.integers(-120, 121, n)
    ties = base + 1800 * rng.integers(0, n, 20)
    offsets = rng.integers(1, 31, 20)
    exact = np.concatenate([base + 1800 * np.flatnonzero(rng.random(n) < 0.45),
                            (base // 86400 + 1) * 86400 + 1800 * np.arange(N_SLOTS)])
    t = np.unique(np.concatenate([fixes, base + rng.integers(0, days * 86400, 150),
                                  ties - offsets, ties + offsets, exact]))
    return make_track(mmsi, [
        make_record(mmsi, ts=datetime.fromtimestamp(int(s), timezone.utc),
                    lat=float(rng.uniform(-80, 80)), lon=float(rng.uniform(-170, 170)),
                    sog=float(i), cog=float(rng.uniform(0, 360))) for i, s in enumerate(t)])


def test_resample_matches_whole_track_scan(rng):
    track = _random_track(rng)
    days = [DAY - timedelta(days=1) + timedelta(days=i) for i in range(5)]
    for tolerance in (0.0, 60.0, 900.0):
        grids = resample_daily(track, tolerance)
        assert grids.ids.tolist() == [(367000001, day) for day in days]
        for row, day in enumerate(days):
            expected = _resample_by_scan(track, day, tolerance)
            npt.assert_array_equal(grids.values[row], expected)
            npt.assert_array_equal(grids.mask[row], ~np.isnan(expected[:, 0]))


def test_day_window_edges():
    # 23:45:00 is half a slot before midnight and rounds up into the next
    # day's slot 0; 23:44:59 is the last instant of a day's slot 47.
    track = make_track("367000001", [make_record(ts=utc(2019, 3, 6, 23, 45, 0), lat=1.0),
                                     make_record(ts=utc(2019, 3, 7, 23, 44, 59), lat=2.0)])
    assert resample_day(track, DAY, tolerance_s=900.0)[1].sum() == 0
    values, mask = resample_day(track, date(2019, 3, 7), tolerance_s=900.0)
    assert np.flatnonzero(mask).tolist() == [0, 47]
    assert values[[0, 47], 0].tolist() == [1.0, 2.0]


def test_resample_grids_every_touched_day():
    track = make_track("367000001", [
        make_record(ts=utc(2019, 3, 6, 12, 0, 0)),
        make_record(ts=utc(2019, 3, 6, 23, 59, 40)),  # snaps into 3/7 slot 0
        make_record(ts=utc(2019, 3, 8, 1, 0, 0)),
    ])
    assert [day for _, day in resample_daily(track).ids.tolist()] == \
        [date(2019, 3, 6), date(2019, 3, 7), date(2019, 3, 8)]


def test_negative_tolerance_rejected():
    with pytest.raises(ConfigError, match="tolerance"):
        resample_daily(make_track("367000001", []), tolerance_s=-1.0)


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
    values, mask = grid_from_mask(mask)
    values[0, 2] = 10.0  # sog endpoints 10 and 20
    values[2, 2] = 20.0
    out_values, out_mask = interpolated(values, mask)
    assert out_mask[1]
    assert out_values[1, 2] == 15.0


def test_leading_gap_never_extrapolated():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[:3] = False
    out_values, out_mask = interpolated(*grid_from_mask(mask))
    assert not out_mask[:3].any()
    assert np.isnan(out_values[:3]).all()


def test_trailing_gap_never_extrapolated():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[-4:] = False
    _, out_mask = interpolated(*grid_from_mask(mask))
    assert not out_mask[-4:].any()


def test_run_longer_than_cap_untouched():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[5:26] = False  # 21-slot interior run
    assert (~mask).sum() == 21
    _, out_mask = interpolated(*grid_from_mask(mask), max_fill=20)
    assert not out_mask[5:26].any()
    # and a 20-run on the same layout is filled
    mask2 = np.ones(N_SLOTS, dtype=bool)
    mask2[5:25] = False
    _, out_mask2 = interpolated(*grid_from_mask(mask2), max_fill=20)
    assert out_mask2.all()


def test_interpolated_values_match_closed_form():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[10:13] = False
    values, mask = grid_from_mask(mask)
    out_values, _ = interpolated(values, mask)
    left, right = values[9], values[13]
    for slot in (10, 11, 12):
        expected = left + (right - left) * (slot - 9) / 4.0
        npt.assert_allclose(out_values[slot], expected, rtol=0, atol=1e-12)


def test_interpolation_never_touches_present_cells(rng):
    for _ in range(20):
        values, mask = grid_from_mask(rng.random(N_SLOTS) < 0.7)
        values[mask] = rng.uniform(-50, 50, size=(mask.sum(), 4))
        out_values, out_mask = interpolated(values, mask, max_fill=int(rng.integers(0, 20)))
        npt.assert_array_equal(out_values[mask], values[mask])
        assert out_mask[mask].all()


def test_filled_values_lie_between_endpoints(rng):
    for _ in range(20):
        mask = rng.random(N_SLOTS) < 0.6
        mask[0] = mask[-1] = True
        values, mask = grid_from_mask(mask)
        values[mask] = rng.uniform(-50, 50, size=(mask.sum(), 4))
        out_values, _ = interpolated(values, mask, max_fill=48)
        runs = np.flatnonzero(~mask)
        for slot in runs:
            left = max(i for i in range(slot) if mask[i])
            right = min(i for i in range(slot + 1, N_SLOTS) if mask[i])
            lo = np.minimum(values[left], values[right])
            hi = np.maximum(values[left], values[right])
            assert (out_values[slot] >= lo - 1e-12).all()
            assert (out_values[slot] <= hi + 1e-12).all()


def test_interpolation_fills_many_days_in_place(rng):
    # Several days at once: each day is filled as if it were alone.
    days = []
    for _ in range(12):
        values, mask = grid_from_mask(rng.random(N_SLOTS) < 0.5)
        values[mask] = rng.uniform(-50, 50, size=(mask.sum(), 4))
        days.append((values, mask))
    block = day_grids(days)
    interpolate_gaps(block.values, block.mask, max_fill=3)
    for row, (values, mask) in enumerate(days):
        out_values, out_mask = interpolated(values, mask, max_fill=3)
        assert block.values[row].tobytes() == out_values.tobytes()
        npt.assert_array_equal(block.mask[row], out_mask)


def test_negative_max_fill_rejected():
    with pytest.raises(ConfigError, match="max_fill"):
        interpolated(*grid_from_mask(np.ones(N_SLOTS)), max_fill=-1)


# -- normalization stats ----------------------------------------------------

def corpus_stats(days):
    """The stats normalize_corpus derives, with every day kept."""
    return normalize_corpus(day_grids(days), max_missing_fraction=1.0)[2]


def two_slot_day():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[[0, 1]] = True
    return grid_from_mask(mask)


def test_two_point_extrema():
    values, mask = two_slot_day()
    values[0] = [10.0, -1.0, 0.0, 5.0]
    values[1] = [20.0, -2.0, 1.0, 6.0]
    stats = corpus_stats([(values, mask)])
    assert stats.minimum[0] == 10.0 and stats.maximum[0] == 20.0


def test_missing_cells_excluded_from_extrema():
    values, mask = two_slot_day()
    values[0] = [10.0, 1.0, 0.0, 5.0]
    values[1] = [20.0, 2.0, 1.0, 6.0]
    values[5] = [99.0, 99.0, 99.0, 99.0]  # present data in a masked slot
    stats = corpus_stats([(values, mask)])
    assert stats.maximum[0] == 20.0


def test_stats_match_bruteforce_scan(rng):
    days = []
    for _ in range(3):
        mask = rng.random(N_SLOTS) < 0.8
        mask[0] = True
        values, mask = grid_from_mask(mask)
        values[mask] = rng.uniform(-100, 100, size=(mask.sum(), 4))
        days.append((values, mask))
    stats = corpus_stats(days)
    # Independent linear scan, one cell at a time.
    lo = [float("inf")] * 4
    hi = [float("-inf")] * 4
    for values, mask in days:
        for i in range(N_SLOTS):
            if mask[i]:
                for j in range(4):
                    lo[j] = min(lo[j], values[i, j])
                    hi[j] = max(hi[j], values[i, j])
    npt.assert_array_equal(stats.minimum, lo)
    npt.assert_array_equal(stats.maximum, hi)


def test_degenerate_feature_is_fatal_and_named():
    values, mask = two_slot_day()
    values[0] = [10.0, 1.0, 7.0, 5.0]
    values[1] = [20.0, 2.0, 7.0, 6.0]  # sog constant
    with pytest.raises(DataError, match="sog"):
        corpus_stats([(values, mask)])


# -- normalize / denormalize ------------------------------------------------

def stats_4feat():
    return NormalizationStats(minimum=np.array([10.0, -90.0, 0.0, 0.0]),
                              maximum=np.array([60.0, -60.0, 25.0, 360.0]))


def test_normalize_bounds_and_sentinel():
    mask = np.ones(N_SLOTS, dtype=bool)
    mask[5] = False
    values, mask = grid_from_mask(mask)
    stats = stats_4feat()
    values[:] = (stats.minimum + stats.maximum) / 2
    values[0] = stats.minimum
    values[1] = stats.maximum
    tensor, _, _ = normalize_corpus(day_grids([(values, mask)]))
    npt.assert_array_equal(tensor[0, 0], [0.0, 0.0, 0.0, 0.0])
    npt.assert_array_equal(tensor[0, 1], [1.0, 1.0, 1.0, 1.0])
    npt.assert_array_equal(tensor[0, 5], [SENTINEL] * 4)


def test_day_over_missing_budget_rejected():
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[:33] = True  # 15 missing of 48 = 31.25% > 30%
    over = grid_from_mask(mask)
    mask[:34] = True  # 14 missing = 29.2% passes
    within = grid_from_mask(mask)
    summary = PreprocessSummary()
    _, ids, _ = normalize_corpus(day_grids([over, within], [367000001, 367000002]),
                                 summary=summary)
    assert ids.tolist() == [(367000002, DAY + timedelta(days=1))]
    assert (summary.days_missing_dropped, summary.days_kept) == (1, 1)


def test_every_cell_in_unit_interval_xor_sentinel(rng):
    days = []
    for _ in range(10):
        mask = rng.random(N_SLOTS) < 0.9
        mask[: int(0.8 * N_SLOTS)] = True
        values, mask = grid_from_mask(mask)
        values[mask] = rng.uniform(-200, 400, size=(mask.sum(), 4))
        days.append((values, mask))
    tensor, _, _ = normalize_corpus(day_grids(days))
    assert tensor.shape == (10, N_SLOTS, 4)
    in_unit = (tensor >= 0.0) & (tensor <= 1.0)
    is_sentinel = tensor == SENTINEL
    assert np.logical_xor(in_unit, is_sentinel).all()


def test_normalize_corpus_matches_day_by_day_reference(rng):
    # Random days with missing slots on both sides of the 30% rule, some
    # with values far outside the others' range.
    days = []
    for i in range(40):
        values, mask = grid_from_mask(rng.random(N_SLOTS) < rng.uniform(0.55, 1.0))
        values[mask] = rng.uniform(-500, 500, size=(mask.sum(), 4)) * rng.uniform(0.01, 3)
        days.append((values, mask))
    grids = day_grids(days, [367000000 + i % 7 for i in range(40)])
    reference = [ReferenceDay(mmsi, day, values, mask)
                 for (mmsi, day), (values, mask) in zip(grids.ids.tolist(), days)]
    survivors = sum(g.missing_fraction <= 0.30 for g in reference)
    assert 0 < survivors < len(reference)

    tensor, ids, stats = normalize_corpus(grids, max_missing_fraction=0.30)
    matrices, ref_ids, minimum, maximum = reference_normalize_corpus(reference, 0.30)
    assert tensor.shape == (survivors, N_SLOTS, 4)
    assert tensor.tobytes() == np.stack(matrices).tobytes()
    assert ids.tolist() == ref_ids
    assert stats.minimum.tobytes() == minimum.tobytes()
    assert stats.maximum.tobytes() == maximum.tobytes()


# -- the whole-track pass against the per-day reference ---------------------

def _run_both(tracks, tolerance_s, min_entries, max_fill, max_missing_fraction=0.30):
    """Build and normalize a list of Tracks with the program, and their
    vessels one by one with the per-day reference;
    each side gives (tensor bytes, ids, min bytes, max bytes, counts) or
    the message of its DataError."""
    def program():
        grids, summary = build_daily_grids(tracks, tolerance_s, min_entries, max_fill)
        tensor, ids, stats = normalize_corpus(grids, max_missing_fraction, summary)
        return (tensor.tobytes(), ids.tolist(), stats.minimum.tobytes(),
                stats.maximum.tobytes(), summary.to_text())

    def reference():
        grids, counts = reference_build_daily_grids(vessels(tracks), tolerance_s, min_entries,
                                                    max_fill)
        matrices, ids, minimum, maximum = reference_normalize_corpus(grids,
                                                                     max_missing_fraction)
        summary = PreprocessSummary(days_missing_dropped=len(grids) - len(ids),
                                    days_kept=len(ids), **counts)
        tensor = np.stack(matrices).reshape(-1, N_SLOTS, 4)
        return tensor.tobytes(), ids, minimum.tobytes(), maximum.tobytes(), summary.to_text()

    outcomes = []
    for side in (program, reference):
        try:
            outcomes.append(side())
        except DataError as exc:
            outcomes.append(f"DataError: {exc}")
    return outcomes


@pytest.fixture(scope="module")
def random_tracks():
    rng = np.random.default_rng(20190307)
    return [_random_track(rng, f"36700000{i}", utc(2019, 3, 5 + i, 23 - i), days=2 + i)
            for i in range(3)]


@pytest.mark.parametrize("tolerance_s", [0.0, 60.0, 900.0])
@pytest.mark.parametrize("max_fill", [0, 3, 20, 48])
@pytest.mark.parametrize("min_entries", [0, 20, 48])
def test_build_and_normalize_match_per_day_reference(random_tracks, tolerance_s,
                                                     min_entries, max_fill):
    program, reference = _run_both(random_tracks, tolerance_s, min_entries, max_fill,
                                   max_missing_fraction=0.5)
    assert program == reference


@pytest.fixture(scope="module")
def bench_tracks(tmp_path_factory):
    """The tracks that ingest keeps from each benchmark generator's inputs at
    their smoke sizes."""
    tracks = {}
    for kind, params in (("dense", ["vessels=3", "days=6"]), ("lanes", ["days=120"])):
        root = tmp_path_factory.mktemp(kind)
        subprocess.run([sys.executable, str(BENCH / "gen.py"), kind, "--seed", "11",
                        "--out", str(root / "in"),
                        *(arg for p in params for arg in ("--param", p))], check=True)
        ingest_files(sorted((root / "in").glob("*.csv")), root / "tracks.bin", root / "spill")
        tracks[kind] = list(TrackReader(root / "tracks.bin"))
    return tracks


@pytest.mark.parametrize("kind", ["dense", "lanes"])
@pytest.mark.parametrize("tolerance_s, min_entries, max_fill", [
    (60.0, 20, 20), (900.0, 0, 48), (60.0, 48, 0), (0.0, 0, 3)])
def test_bench_corpora_match_per_day_reference(bench_tracks, kind, tolerance_s,
                                               min_entries, max_fill):
    program, reference = _run_both(bench_tracks[kind], tolerance_s, min_entries, max_fill)
    assert program == reference


def test_no_present_cell_is_the_same_data_error(bench_tracks):
    # The dense feed reports at hh:mm:ss with nonzero seconds: at zero
    # tolerance no record lands on a slot instant.
    program, reference = _run_both(bench_tracks["dense"], 0.0, 0, 20)
    assert program == reference == "DataError: cannot compute normalization stats: " \
                                   "no present values"


@pytest.mark.parametrize("tracks", [[], "sparse"])
def test_every_day_dropped_is_the_same_data_error(tracks):
    if tracks == "sparse":  # two fixes a day: every day is sparse
        tracks = [make_track("367000001", [make_record(ts=utc(2019, 3, 6 + d, h))
                                           for d in range(3) for h in (1, 2)])]
    program, reference = _run_both(tracks, 60.0, 20, 20)
    assert program == reference == "DataError: cannot compute normalization stats: " \
                                   "no present values"


def _vessel_rows(rng, mmsi, times):
    """TRACK_DTYPE rows of one vessel at `times`, with random values."""
    table = np.zeros(len(times), TRACK_DTYPE)
    table["mmsi"], table["t"], table["length"] = mmsi, times, 100.0
    table["lat"], table["lon"] = rng.uniform(-80, 80, len(times)), rng.uniform(-170, 170, len(times))
    table["sog"], table["cog"] = rng.uniform(0, 30, len(times)), rng.uniform(0, 360, len(times))
    return table


@pytest.mark.parametrize("tolerance_s", [0.0, 60.0, 900.0])
@pytest.mark.parametrize("min_entries", [0, 20])
def test_vessels_sharing_one_reader_chunk_match_per_day_reference(tmp_path, tolerance_s,
                                                                  min_entries):
    rng = np.random.default_rng(20190308)
    day = int(utc(2019, 3, 6).timestamp())
    slots = 1800 * np.arange(N_SLOTS)
    # Vessel 1's last record (00:00:20 on 3/7) and vessel 2's first (23:59:50
    # on 3/6) both fall in slot 0 of 3/7. Vessels 2 and 3 both report at
    # 12:00:00 on 3/7, and vessel 3 at every slot instant of that day.
    second = slots[1:] + rng.integers(-90, 91, N_SLOTS - 1)
    second[23] = 43200
    table = np.concatenate([
        _vessel_rows(rng, 367000001, np.append(day + slots + rng.integers(-90, 91, N_SLOTS),
                                               day + 86400 + 20)),
        _vessel_rows(rng, 367000002, np.append(day + 86390, day + 86400 + second)),
        _vessel_rows(rng, 367000003, day + 86400 + slots)])
    save_tracks(tmp_path / "tracks.bin", [Tracks.of(table)])
    reader = TrackReader(tmp_path / "tracks.bin")
    chunks = list(reader)
    assert reader.chunks == 1 and chunks[0].index["mmsi"].tolist() == [367000001, 367000002,
                                                                        367000003]
    program, reference = _run_both(chunks, tolerance_s, min_entries, 20, max_missing_fraction=1.0)
    assert program == reference


def test_vessel_larger_than_a_chunk_is_one_entry_and_grids_like_reference(tmp_path):
    # A vessel reporting every minute for three days (4,320 rows, more than
    # a chunk) between two vessels reporting every half hour. Each daily file
    # holds 1,500 rows, so ingest merges the large vessel in time slabs.
    rng = np.random.default_rng(20190309)
    lines = ["MMSI,BaseDateTime,LAT,LON,SOG,COG,Length"]
    for d in range(3):
        start = utc(2019, 3, 6 + d)
        for mmsi, step, n in ((367000001, 1800, 30), (367000002, 60, 1440),
                              (367000003, 1800, 30)):
            for k in range(n):
                ts = start + timedelta(seconds=step * k + int(rng.integers(0, 30)))
                lines.append(f"{mmsi},{ts:%Y-%m-%dT%H:%M:%S},{rng.uniform(-80, 80):.5f},"
                             f"{rng.uniform(-170, 170):.5f},{rng.uniform(0, 30):.1f},"
                             f"{rng.uniform(0, 360):.1f},100.0")
        (tmp_path / f"day{d}.csv").write_text("\n".join(lines) + "\n")
        lines = lines[:1]
    store = tmp_path / "tracks.bin"
    _, counts = ingest_files(sorted(tmp_path.glob("*.csv")), store, tmp_path / "spill")
    assert counts["merge_batches"] > 3  # more than one batch for one of three vessels
    chunks = list(TrackReader(store))
    assert [run.index.tolist() for run in chunks] == [
        [(367000001, 90)], [(367000002, 3 * 1440)], [(367000003, 90)]]
    assert 3 * 1440 > track_store._CHUNK_ROWS
    for tolerance_s, min_entries, max_fill in ((60.0, 20, 20), (0.0, 0, 3)):
        program, reference = _run_both(chunks, tolerance_s, min_entries, max_fill)
        assert program == reference


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
    day_ids = np.array([(367000000 + i, DAY + timedelta(days=i)) for i in range(3)], IDS_DTYPE)
    tensor_path = tmp_path / "corpus.f64"
    index_path = tmp_path / "corpus_index.csv"
    save_corpus(days, day_ids, tensor_path, index_path)

    tensor, ids = load_corpus(tensor_path, index_path)
    assert tensor.shape == (3, N_SLOTS, 4)
    npt.assert_array_equal(tensor[0], days[0])
    assert ids.dtype == IDS_DTYPE
    assert ids.tolist()[1] == (367000001, DAY + timedelta(days=1))
    assert index_path.read_text().splitlines()[2] == "1,367000001,2019-03-07"

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
    save_corpus(rng.uniform(0, 1, (2, N_SLOTS, 4)), np.array([(367000000 + i, DAY) for i in range(2)], IDS_DTYPE),
                tensor_path, index_path)
    lines = index_path.read_text().splitlines()
    index_path.write_text("\n".join(lines[:-1] + [bad_row]) + "\n")
    with pytest.raises(DataError, match="line 3"):
        load_corpus(tensor_path, index_path)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_corpus_io_holds_the_tensor_once(tmp_path):
    # Per vessel-day, loading peaks at the tensor plus its ids (1536 B of
    # cells and a 16 B id), and saving writes the tensor's own buffer: the
    # sidecar writer's buffers are the same at any size.
    tensor_path, index_path = tmp_path / "corpus.f64", tmp_path / "corpus_index.csv"
    save_peaks, load_peaks = {}, {}
    for n in (250, 1000):
        days = np.random.default_rng(n).uniform(0, 1, (n, N_SLOTS, 4))
        ids = np.array([(367000000 + i % 50, DAY + timedelta(days=i // 50)) for i in range(n)],
                       IDS_DTYPE)
        save_corpus(days, ids, tensor_path, index_path)  # first-call allocations
        save_peaks[n] = _traced_peak(lambda: save_corpus(days, ids, tensor_path, index_path))
        assert tensor_path.read_bytes() == days.astype("<f8").tobytes()
        load_peaks[n] = _traced_peak(lambda: load_corpus(tensor_path, index_path))
    per_day = {name: (peaks[1000] - peaks[250]) / 750
               for name, peaks in (("save", save_peaks), ("load", load_peaks))}
    assert per_day["save"] < 100, per_day
    assert per_day["load"] < 1.6 * 1024, per_day


def test_corpus_file_of_part_of_a_day_is_data_error(tmp_path, rng):
    tensor_path, index_path = tmp_path / "corpus.f64", tmp_path / "corpus_index.csv"
    save_corpus(rng.uniform(0, 1, (2, N_SLOTS, 4)), np.array([(367000000 + i, DAY) for i in range(2)], IDS_DTYPE),
                tensor_path, index_path)
    for cut in (8, 3):  # a whole cell short, and part of a cell
        tensor_path.write_bytes(tensor_path.read_bytes()[:-cut])
        with pytest.raises(DataError, match="not a whole number of days"):
            load_corpus(tensor_path, index_path)
