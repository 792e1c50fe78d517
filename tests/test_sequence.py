from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ConfigError, DataError
from ais_outliers.preprocess import IDS_DTYPE, N_SLOTS
from ais_outliers.sequence import SequenceSet, SplitSpec, load_set, save_set, split

from oracles import reference_split_by_vessel

DAY = date(2019, 3, 6)


def make_set(n, vessels=1):
    """Day i is constant-i, of vessel i % vessels; rows in (MMSI, day)
    order, as the corpus stores them."""
    ids = np.array([(367000000 + i % vessels, DAY + timedelta(days=i // vessels))
                    for i in range(n)], IDS_DTYPE)
    order = np.argsort(ids, kind="stable")
    return SequenceSet(np.array([np.full((N_SLOTS, 4), float(i)) for i in order]), ids[order])


def test_single_day_shape():
    sset = make_set(1)
    assert sset.tensor.shape == (1, N_SLOTS, 4)
    assert len(sset.ids) == 1


def test_assemble_empty_is_valid(tmp_path):
    sset = SequenceSet(np.zeros((0, N_SLOTS, 4)), np.empty(0, IDS_DTYPE))
    assert sset.tensor.shape == (0, N_SLOTS, 4)
    assert len(sset) == 0
    save_set(sset, tmp_path / "t.f64", tmp_path / "t_index.csv")
    assert len(load_set(tmp_path / "t.f64", tmp_path / "t_index.csv")) == 0


def test_split_sizes_follow_floor_rule():
    sset = make_set(100)
    train, val, test = split(sset, SplitSpec(seed=1))
    n_test = int(100 * 0.20)
    n_val = int((100 - n_test) * 0.20)
    assert len(test) == n_test == 20
    assert len(val) == n_val == 16
    assert len(train) == 64


def test_split_is_deterministic_per_seed():
    sset = make_set(50)
    a = split(sset, SplitSpec(seed=7))
    b = split(sset, SplitSpec(seed=7))
    for x, y in zip(a, b):
        npt.assert_array_equal(x.tensor, y.tensor)
        npt.assert_array_equal(x.ids, y.ids)


def test_different_seeds_shuffle_differently():
    sset = make_set(50)
    a = split(sset, SplitSpec(seed=1))
    b = split(sset, SplitSpec(seed=2))
    assert [len(s) for s in a] == [len(s) for s in b]
    assert a[2].ids.tolist() != b[2].ids.tolist()


def test_split_partition_is_exact(rng):
    sset = make_set(37, vessels=5)
    train, val, test = split(sset, SplitSpec(seed=3))
    all_ids = sorted(train.ids.tolist() + val.ids.tolist() + test.ids.tolist())
    assert all_ids == sorted(sset.ids.tolist())
    assert len(set(train.ids.tolist()) & set(val.ids.tolist())) == 0
    assert len(set(train.ids.tolist()) & set(test.ids.tolist())) == 0


def test_rows_travel_with_their_ids():
    # Row i is constant-i, so any id/tensor divorce is visible.
    sset = make_set(30)
    lookup = {ids: float(sset.tensor[i, 0, 0]) for i, ids in enumerate(sset.ids.tolist())}
    for subset in split(sset, SplitSpec(seed=11)):
        for i, ids in enumerate(subset.ids.tolist()):
            assert subset.tensor[i, 0, 0] == lookup[ids]


def test_too_few_sequences_rejected():
    with pytest.raises(DataError):
        split(make_set(4), SplitSpec(seed=0))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_fractions_must_be_interior(bad):
    with pytest.raises(ConfigError):
        SplitSpec(test_fraction=bad)


def test_vessel_level_split_keeps_vessels_whole():
    sset = make_set(60, vessels=12)
    train, val, test = split(sset, SplitSpec(seed=5), by_vessel=True)
    groups = [set(s.ids["mmsi"].tolist()) for s in (train, val, test)]
    assert not (groups[0] & groups[1])
    assert not (groups[0] & groups[2])
    assert not (groups[1] & groups[2])
    assert len(train) + len(val) + len(test) == 60


def test_set_persistence_roundtrip(tmp_path, rng):
    tensor = rng.uniform(0, 1, size=(6, N_SLOTS, 4))
    ids = np.array([(367000000 + i, DAY) for i in range(6)], IDS_DTYPE)
    sset = SequenceSet(tensor, ids)
    save_set(sset, tmp_path / "t.f64", tmp_path / "t_index.csv")
    loaded = load_set(tmp_path / "t.f64", tmp_path / "t_index.csv")
    npt.assert_array_equal(loaded.tensor, tensor)
    assert loaded.ids.dtype == IDS_DTYPE
    npt.assert_array_equal(loaded.ids, ids)


@pytest.mark.parametrize("seed", range(20))
def test_vessel_level_split_matches_vessel_by_vessel_reference(seed):
    # Vessels of 1 to 15 days, some larger than the whole test subset, in
    # (MMSI, day) order; the row order of each subset is compared too.
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 16, int(rng.integers(2, 30)))
    ids = np.array([(367000000 + 7 * v, DAY + timedelta(days=d))
                    for v, size in enumerate(sizes.tolist()) for d in range(size)], IDS_DTYPE)
    if len(ids) < 5:
        ids = np.concatenate([ids, np.array([(1, DAY + timedelta(days=d)) for d in range(5)],
                                            IDS_DTYPE)])
        ids.sort()
    sset = SequenceSet(np.zeros((len(ids), N_SLOTS, 4)), ids)
    spec = SplitSpec(test_fraction=float(rng.uniform(0.05, 0.6)),
                     val_fraction=float(rng.uniform(0.05, 0.6)), seed=seed)
    got = [s.ids.tolist() for s in split(sset, spec, by_vessel=True)]
    want = [ids[rows].tolist() for rows in reference_split_by_vessel(ids["mmsi"].tolist(), spec)]
    assert got == want
