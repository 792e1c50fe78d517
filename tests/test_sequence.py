from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ConfigError, DataError
from ais_outliers.preprocess import N_SLOTS
from ais_outliers.sequence import SequenceSet, SplitSpec, load_set, save_set, split

DAY = date(2019, 3, 6)


def make_set(n, vessels=1):
    """Day i is constant-i, of vessel i % vessels; rows in (MMSI, day)
    order, as the corpus stores them."""
    ids = [(f"3670000{i % vessels:02d}", DAY + timedelta(days=i // vessels)) for i in range(n)]
    order = sorted(range(n), key=ids.__getitem__)
    return SequenceSet(np.array([np.full((N_SLOTS, 4), float(i)) for i in order]),
                       [ids[i] for i in order])


def test_single_day_shape():
    sset = make_set(1)
    assert sset.tensor.shape == (1, N_SLOTS, 4)
    assert len(sset.ids) == 1


def test_assemble_empty_is_valid(tmp_path):
    sset = SequenceSet(np.zeros((0, N_SLOTS, 4)), ())
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
        assert x.ids == y.ids


def test_different_seeds_shuffle_differently():
    sset = make_set(50)
    a = split(sset, SplitSpec(seed=1))
    b = split(sset, SplitSpec(seed=2))
    assert [len(s) for s in a] == [len(s) for s in b]
    assert a[2].ids != b[2].ids


def test_split_partition_is_exact(rng):
    sset = make_set(37, vessels=5)
    train, val, test = split(sset, SplitSpec(seed=3))
    all_ids = sorted(train.ids + val.ids + test.ids)
    assert all_ids == sorted(sset.ids)
    assert len(set(train.ids) & set(val.ids)) == 0
    assert len(set(train.ids) & set(test.ids)) == 0


def test_rows_travel_with_their_ids():
    # Row i is constant-i, so any id/tensor divorce is visible.
    sset = make_set(30)
    lookup = {ids: float(sset.tensor[i, 0, 0]) for i, ids in enumerate(sset.ids)}
    for subset in split(sset, SplitSpec(seed=11)):
        for i, ids in enumerate(subset.ids):
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
    groups = [{m for m, _ in s.ids} for s in (train, val, test)]
    assert not (groups[0] & groups[1])
    assert not (groups[0] & groups[2])
    assert not (groups[1] & groups[2])
    assert len(train) + len(val) + len(test) == 60


def test_set_persistence_roundtrip(tmp_path, rng):
    tensor = rng.uniform(0, 1, size=(6, N_SLOTS, 4))
    ids = tuple((f"36700000{i}", DAY) for i in range(6))
    sset = SequenceSet(tensor, ids)
    save_set(sset, tmp_path / "t.f64", tmp_path / "t_index.csv")
    loaded = load_set(tmp_path / "t.f64", tmp_path / "t_index.csv")
    npt.assert_array_equal(loaded.tensor, tensor)
    assert loaded.ids == ids
