import math
from datetime import date, timedelta

import numpy as np
import pytest

from ais_outliers.detect import (
    SENTINEL,
    OutlierReport,
    fit_distribution,
    flag_outliers,
    offender_frequency,
    score_set,
    write_histogram_csv,
    write_offenders_csv,
    write_outliers_csv,
    write_scores_csv,
)
from ais_outliers.errors import DataError
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder
from ais_outliers.preprocess import IDS_DTYPE, N_SLOTS
from ais_outliers.sequence import SequenceSet

from oracles import reference_score_csvs, rmse_loop
from test_model import EVAL_PEAK_SLACK, chunk_rows, traced_peak

DAY = date(2019, 3, 6)


def ids_for(n, mmsi=367000001):
    return np.array([(mmsi, DAY + timedelta(days=i)) for i in range(n)], IDS_DTYPE)


class FixedModel:
    """Stands in for the autoencoder: `reconstruct` returns a fixed prediction."""

    def __init__(self, prediction):
        self.prediction = np.asarray(prediction, dtype=np.float64)

    def row_chunks(self, n):
        yield slice(0, n)

    def reconstruct(self, batch):
        return np.broadcast_to(self.prediction, batch.shape)


def rmse_of(pred, truth, mask_sentinel=False):
    """Score one (48, 4) sequence through `score_set`."""
    sset = SequenceSet(np.asarray(truth)[None], ids_for(1))
    rmse, _ = score_set(FixedModel(pred), sset, mask_sentinel)
    return float(rmse[0])


# -- rmse --------------------------------------------------------------------

def test_rmse_zero_for_equal(rng):
    x = rng.uniform(0, 1, (N_SLOTS, 4))
    assert rmse_of(x, x) == 0.0


def test_rmse_constant_offset():
    truth = np.zeros((N_SLOTS, 4))
    pred = truth + 0.5
    assert rmse_of(pred, truth) == pytest.approx(0.5, abs=1e-15)


def test_rmse_matches_scalar_loop(rng):
    pred = rng.uniform(-1, 1, (N_SLOTS, 4))
    truth = rng.uniform(-1, 1, (N_SLOTS, 4))
    assert rmse_of(pred, truth) == pytest.approx(rmse_loop(pred, truth), abs=1e-15)


def test_masked_rmse_skips_sentinels():
    truth = np.zeros((N_SLOTS, 4))
    truth[0, :] = -1.0
    pred = np.zeros((N_SLOTS, 4))
    pred[0, :] = 0.5  # error only on sentinel cells
    assert rmse_of(pred, truth, mask_sentinel=True) == 0.0
    assert rmse_of(pred, truth) > 0.0


def test_masked_rmse_needs_an_observed_cell():
    truth = np.full((N_SLOTS, 4), -1.0)
    with pytest.raises(DataError, match="no observed cells"):
        rmse_of(np.zeros((N_SLOTS, 4)), truth, mask_sentinel=True)


def test_per_feature_rmse_columns(rng):
    pred = rng.uniform(0, 1, (N_SLOTS, 4))
    truth = rng.uniform(0, 1, (N_SLOTS, 4))
    _, cols = score_set(FixedModel(pred), SequenceSet(truth[None], ids_for(1)))
    assert cols.shape == (1, 4)
    for j in range(4):
        assert cols[0, j] == pytest.approx(rmse_loop(pred[:, j], truth[:, j]), abs=1e-12)


# -- score_set ----------------------------------------------------------------

def small_model():
    cfg = ModelConfig(cell_kind="gru", layers=1, hidden=4, timesteps=N_SLOTS,
                      features=4)
    return RecurrentAutoencoder.initialize(cfg, 1)


def small_set(rng, n):
    tensor = rng.uniform(0, 1, (n, N_SLOTS, 4))
    return SequenceSet(tensor, np.array([(367000000 + i, DAY) for i in range(n)], IDS_DTYPE))


def test_empty_set_scores_empty(rng):
    rmse, feature_rmse = score_set(small_model(), small_set(rng, 0))
    assert rmse.shape == (0,) and feature_rmse.shape == (0, 4)


def test_one_score_per_sequence(rng):
    rmse, feature_rmse = score_set(small_model(), small_set(rng, 7))
    assert rmse.shape == (7,) and feature_rmse.shape == (7, 4)


def test_scores_compose_reconstruct_and_rmse(rng):
    model = small_model()
    sset = small_set(rng, 5)
    rmse, _ = score_set(model, sset)
    pred = model.reconstruct(sset.tensor)
    for i in range(5):
        assert rmse[i] == pytest.approx(rmse_of(pred[i], sset.tensor[i]), abs=0)


def chunked_model():
    """The acceptance model, whose eval chunks are 256 rows."""
    cfg = ModelConfig(cell_kind="gru", bidirectional=True, hidden=16, timesteps=N_SLOTS,
                      features=4)
    model = RecurrentAutoencoder.initialize(cfg, 1)
    return model, chunk_rows(model)


def sentinel_set(rng, n):
    sset = small_set(rng, n)
    sset.tensor[sset.tensor < 0.2] = SENTINEL
    return sset


@pytest.mark.parametrize("mask_sentinel", [False, True])
def test_chunked_scores_are_bitwise_one_batch(rng, mask_sentinel):
    # Two chunks, the second with the one-row tail; the reference is the
    # whole set reconstructed as one batch and scored at once.
    model, chunk = chunked_model()
    for n in (chunk, 2 * chunk + 1):
        sset = sentinel_set(rng, n)
        truth = sset.tensor
        diff2 = (model.forward(truth) - truth) ** 2
        keep = truth != SENTINEL
        expected = (np.sqrt(np.where(keep, diff2, 0.0).sum(axis=(1, 2)) / keep.sum(axis=(1, 2)))
                    if mask_sentinel else np.sqrt(diff2.mean(axis=(1, 2))))
        rmse, feature_rmse = score_set(model, sset, mask_sentinel)
        np.testing.assert_array_equal(rmse, expected)
        np.testing.assert_array_equal(feature_rmse, np.sqrt(diff2.mean(axis=1)))


def test_masked_scores_refuse_a_row_without_observed_cells_in_a_later_chunk(rng):
    model, chunk = chunked_model()
    sset = sentinel_set(rng, 2 * chunk + 1)
    sset.tensor[-1] = SENTINEL
    assert score_set(model, sset)[0].shape == (2 * chunk + 1,)  # unmasked, it counts
    with pytest.raises(DataError, match="no observed cells"):
        score_set(model, sset, mask_sentinel=True)


@pytest.mark.parametrize("mask_sentinel", [False, True])
def test_score_peak_grows_by_its_columns_alone(rng, mask_sentinel):
    # The prediction is never whole: 4N rows peak above N rows by the 3N
    # extra rows of the RMSE and per-feature RMSE columns.
    model, n = chunked_model()
    sets = [sentinel_set(rng, rows) for rows in (n, 4 * n)]
    small, large = (traced_peak(lambda: score_set(model, sset, mask_sentinel))
                    for sset in sets)
    assert large - small <= 3 * n * (1 + 4) * 8 + EVAL_PEAK_SLACK, (small, large)


# -- fit_distribution -----------------------------------------------------------

def test_constant_scores_distribution():
    dist = fit_distribution(np.array([1.0, 1.0, 1.0, 1.0]), bins=4)
    assert dist.mean == 1.0
    assert dist.std == 0.0
    assert dist.bin_counts.sum() == 4


def test_distribution_direct_arithmetic():
    values = [1.0, 1.0, 1.0, 1.0, 100.0]
    dist = fit_distribution(np.array(values), bins=10)
    mean = sum(values) / 5.0
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / 5.0)
    assert dist.mean == pytest.approx(20.8, abs=1e-12)
    assert dist.std == pytest.approx(39.6, abs=1e-12)
    assert dist.mean == pytest.approx(mean, abs=1e-12)
    assert dist.std == pytest.approx(std, abs=1e-12)


def test_histogram_partitions_all_scores(rng):
    values = rng.uniform(0, 3, 500)
    dist = fit_distribution(values, bins=13)
    assert dist.bin_counts.sum() == 500
    assert dist.bin_edges[0] == 0.0
    assert dist.bin_edges[-1] == pytest.approx(values.max())


def test_empty_scores_rejected():
    with pytest.raises(DataError):
        fit_distribution(np.empty(0))


# -- flag_outliers ----------------------------------------------------------------

def flag(values, k, ids=None):
    rmse = np.array(values, dtype=np.float64)
    ids = ids_for(len(rmse)) if ids is None else ids
    return rmse, ids, flag_outliers(rmse, ids, fit_distribution(rmse), k=k)


def test_flag_arithmetic_k1():
    rmse, _, report = flag([1, 1, 1, 1, 100], k=1.0)
    assert report.threshold == pytest.approx(60.4, abs=1e-12)
    assert rmse[report.flagged].tolist() == [100.0]


def test_flag_arithmetic_k6():
    _, _, report = flag([1, 1, 1, 1, 100], k=6.0)
    assert report.threshold == pytest.approx(258.4, abs=1e-12)
    assert report.flagged.size == 0


def test_degenerate_distribution_flags_nothing():
    _, _, report = flag([2.0] * 10, k=6.0)
    assert report.threshold == 2.0  # std 0: threshold = mean
    assert report.flagged.size == 0  # strict inequality


@pytest.mark.parametrize("case", ["distinct", "ties"])
def test_flagged_sorted_descending(rng, case):
    values = rng.uniform(0, 1, 50).tolist()
    ids = ids_for(50, mmsi=367000099).tolist()
    if case == "distinct":
        values += [5.0, 9.0, 7.0]
        ids += [(367000009, DAY), (367000007, DAY), (367000008, DAY)]
        expected = [(367000007, DAY), (367000008, DAY), (367000009, DAY)]
    else:  # equal RMSEs go by MMSI, then by day, whatever their row order
        later = DAY + timedelta(days=1)
        values += [7.0, 9.0, 7.0, 7.0, 9.0, 7.0]
        ids += [(367000003, later), (367000002, DAY), (367000001, later),
                (367000003, DAY), (367000001, DAY), (367000001, DAY - timedelta(1))]
        expected = [(367000001, DAY), (367000002, DAY),
                    (367000001, DAY - timedelta(1)), (367000001, later),
                    (367000003, DAY), (367000003, later)]
    rmse, ids, report = flag(values, k=2.0, ids=np.array(ids, IDS_DTYPE))
    flagged = rmse[report.flagged].tolist()
    assert flagged == sorted(flagged, reverse=True)
    assert flagged[0] == 9.0
    assert ids[report.flagged].tolist() == expected


def test_monotonicity_in_k(rng):
    rmse = rng.lognormal(0, 1, 200)
    ids = ids_for(200)
    dist = fit_distribution(rmse)
    flagged_small = set(flag_outliers(rmse, ids, dist, 1.0).flagged.tolist())
    flagged_large = set(flag_outliers(rmse, ids, dist, 2.5).flagged.tolist())
    assert flagged_large <= flagged_small


def test_scale_equivariance(rng):
    values = rng.lognormal(0, 0.5, 100)
    ids = ids_for(100)
    for c in (0.5, 3.0, 250.0):
        scaled = values * c
        d1, d2 = fit_distribution(values), fit_distribution(scaled)
        assert d2.mean == pytest.approx(c * d1.mean, rel=1e-12)
        assert d2.std == pytest.approx(c * d1.std, rel=1e-12)
        r1 = flag_outliers(values, ids, d1, 2.0)
        r2 = flag_outliers(scaled, ids, d2, 2.0)
        assert r2.threshold == pytest.approx(c * r1.threshold, rel=1e-12)
        assert r1.flagged.tolist() == r2.flagged.tolist()


def test_bounded_scores_never_flag(rng):
    values = rng.uniform(0, 1, 300)
    dist = fit_distribution(values)
    cap = dist.mean + 6.0 * dist.std
    assert values.max() <= cap  # construction: uniform can't reach mean+6*std
    assert flag_outliers(values, ids_for(300), dist, 6.0).flagged.size == 0


# -- offender_frequency --------------------------------------------------------

def flagged_report(mmsis):
    """Every row flagged, one day per row: (report, ids)."""
    ids = np.array([(m, DAY + timedelta(days=i)) for i, m in enumerate(mmsis)], IDS_DTYPE)
    flagged = np.arange(len(ids))[::-1]  # descending RMSE 10 + i
    return OutlierReport(threshold=1.0, k=6.0, flagged=flagged), ids


def tally(offenders):
    return list(zip(offenders.mmsi.tolist(), offenders.count.tolist()))


def persistent(offenders):
    return [pair for pair, keep in zip(tally(offenders), offenders.persistent) if keep]


def test_six_appearances_is_persistent():
    offenders = offender_frequency(*flagged_report([367000001] * 6), min_appearances=5)
    assert persistent(offenders) == [(367000001, 6)]


def test_four_appearances_counted_but_not_persistent():
    offenders = offender_frequency(*flagged_report([367000002] * 4), min_appearances=5)
    assert tally(offenders) == [(367000002, 4)]
    assert persistent(offenders) == []


@pytest.mark.parametrize("mmsis, expected", [
    ([1] * 7 + [2] * 5 + [3] * 2 + [4] * 1,
     [(1, 7), (2, 5), (3, 2), (4, 1)]),
    # Equal counts go by MMSI, whatever order the flags come in.
    ([4] * 2 + [2] * 5 + [3] * 2 + [5] * 5 + [1] * 1,
     [(2, 5), (5, 5), (3, 2), (4, 2), (1, 1)]),
])
def test_mixed_tally_matches_hand_count(mmsis, expected):
    offenders = offender_frequency(*flagged_report(mmsis), min_appearances=5)
    assert tally(offenders) == expected
    assert persistent(offenders) == [pair for pair in expected if pair[1] >= 5]
    assert offenders.count.sum() == 15


def test_offenders_of_no_flags_are_empty():
    offenders = offender_frequency(*flagged_report([]), min_appearances=1)
    assert tally(offenders) == [] and persistent(offenders) == []


# -- CSV artifacts ---------------------------------------------------------------

def test_csv_artifacts(tmp_path):
    rmse = np.array([0.1, 0.2, 5.0])
    ids = ids_for(3)
    dist = fit_distribution(rmse, bins=5)
    report = flag_outliers(rmse, ids, dist, k=1.0)
    offenders = offender_frequency(report, ids, min_appearances=1)

    write_scores_csv(tmp_path / "scores.csv", ids, rmse)
    write_outliers_csv(tmp_path / "outliers.csv", report, ids, rmse)
    write_histogram_csv(tmp_path / "histogram.csv", dist)
    write_offenders_csv(tmp_path / "offenders.csv", offenders)

    scores_lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert scores_lines[0] == "mmsi,day,rmse"
    assert scores_lines[1] == "367000001,2019-03-06,0.1"

    outlier_lines = (tmp_path / "outliers.csv").read_text().splitlines()
    assert outlier_lines[0] == "rank,mmsi,day,rmse,threshold,k"
    assert outlier_lines[1].startswith("1,367000001,2019-03-08,5.0,")

    hist_lines = (tmp_path / "histogram.csv").read_text().splitlines()
    assert hist_lines[0] == "bin_low,bin_high,count"
    assert sum(int(l.split(",")[2]) for l in hist_lines[1:]) == 3

    offender_lines = (tmp_path / "offenders.csv").read_text().splitlines()
    assert offender_lines[0] == "mmsi,flag_count,persistent"
    assert offender_lines[1] == "367000001,1,1"


def test_masked_scores_csv_labels_column(tmp_path):
    write_scores_csv(tmp_path / "scores.csv", ids_for(1), np.array([0.5]), mask_sentinel=True)
    header = (tmp_path / "scores.csv").read_text().splitlines()[0]
    assert header == "mmsi,day,rmse_masked"


# -- differential: columns against the record-based reference -------------------

N_ROWS = 40
PREDICTION = 0.5


def scoring_case(rng, case):
    """(test set, train set, k): vessel-days over five MMSIs in shuffled row
    order, every cell 0.5 + offset * pattern, so rows with equal offsets tie
    exactly against the fixed prediction 0.5. Slots 0-3 are sentinels."""
    pattern = rng.uniform(0.1, 1.0, (N_SLOTS, 4))

    def make(offsets, first_day):
        tensor = PREDICTION + np.asarray(offsets)[:, None, None] * pattern
        tensor[:, :4] = -1.0
        ids = np.array([(367000000 + i % 5, first_day + timedelta(days=i // 5))
                        for i in range(len(offsets))], IDS_DTYPE)
        order = rng.permutation(len(offsets))
        return SequenceSet(tensor[order], ids[order])

    if case == "ties":  # several MMSIs flagged at one RMSE, some twice
        offsets = rng.integers(1, 4, N_ROWS) * 0.1
        offsets[[0, 2, 4, 5, 7, 13]] = 3.0
        return make(offsets, DAY), make(rng.integers(1, 3, N_ROWS) * 0.1, DAY - timedelta(60)), 1.0
    if case == "none":  # no row above mean + 6 sigma of a uniform spread
        test = make(rng.uniform(0.1, 0.4, N_ROWS), DAY)
        return test, test, 6.0
    # "all": every test row above the train rows' threshold
    return (make(rng.uniform(2.0, 3.0, N_ROWS), DAY),
            make(rng.uniform(0.1, 0.2, N_ROWS), DAY - timedelta(60)), 2.0)


def column_score_csvs(out_dir, model, test_set, basis_set, mask_sentinel, per_feature, k,
                      bins, min_appearances):
    rmse, feature_rmse = score_set(model, test_set, mask_sentinel)
    basis = rmse if basis_set is None else score_set(model, basis_set, mask_sentinel)[0]
    dist = fit_distribution(basis, bins=bins)
    report = flag_outliers(rmse, test_set.ids, dist, k=k)
    offenders = offender_frequency(report, test_set.ids, min_appearances)
    write_scores_csv(out_dir / "scores.csv", test_set.ids, rmse, mask_sentinel,
                     feature_rmse if per_feature else None)
    write_histogram_csv(out_dir / "histogram.csv", dist)
    write_outliers_csv(out_dir / "outliers.csv", report, test_set.ids, rmse)
    write_offenders_csv(out_dir / "offenders.csv", offenders)


@pytest.mark.parametrize("case", ["ties", "none", "all"])
@pytest.mark.parametrize("threshold_scores", ["test", "train"])
@pytest.mark.parametrize("per_feature", [False, True])
@pytest.mark.parametrize("mask_sentinel", [False, True])
def test_score_csvs_match_record_reference(tmp_path, rng, case, threshold_scores,
                                           per_feature, mask_sentinel):
    test_set, train_set, k = scoring_case(rng, case)
    basis_set = train_set if threshold_scores == "train" else None
    model = FixedModel(PREDICTION)
    settings = dict(mask_sentinel=mask_sentinel, per_feature=per_feature, k=k, bins=7,
                    min_appearances=2)
    (tmp_path / "columns").mkdir()
    (tmp_path / "records").mkdir()
    column_score_csvs(tmp_path / "columns", model, test_set, basis_set, **settings)
    flagged = reference_score_csvs(tmp_path / "records", model, test_set, basis_set,
                                   **settings)

    if case == "none":
        assert flagged == []
    if case == "all" and threshold_scores == "train":
        assert len(flagged) == N_ROWS
    if case == "ties":
        assert len({s.rmse for s in flagged}) < len({s.mmsi for s in flagged}) < len(flagged)
    for name in ("scores.csv", "histogram.csv", "outliers.csv", "offenders.csv"):
        assert (tmp_path / "columns" / name).read_bytes() == \
            (tmp_path / "records" / name).read_bytes(), name
