"""Pinned id sidecars: the corpus and split `*_index.csv` files of a seeded
synthetic run, byte for byte.

The sidecars carry only (record_index, mmsi, day) rows, so they depend on
ingest, gridding, the missing-data rules and the split permutation, and on
no trained float: the digests hold under any BLAS. One vessel has more days
than the test subset holds, so the by-vessel split must put a whole large
vessel on one side; leading-zero MMSIs check the nine-digit spelling.
"""

import hashlib

import pytest

from ais_outliers.cli import main

from synthetic import generate_days, write_ais_csv

SIDECARS = ("corpus_index.csv", "train_index.csv", "val_index.csv", "test_index.csv")

GOLDEN = {
    False: {
        "corpus_index.csv": "3107d4ec224b6f2c3496385ddb3f147a1ccfdc38805a779c37f236104702d204",
        "train_index.csv": "3a7c3192af992165eae42ce34161501de650c8170164624914677759cf2a2de8",
        "val_index.csv": "a5de33f878f4e67758bd7ee5b8cd7506527ac5a586331ef0addc8304838c190e",
        "test_index.csv": "02fe15df67f7aeb3f48fdccacacaa9efae783a84b0961e3e7ebb348e1f5228fc",
    },
    True: {
        "corpus_index.csv": "3107d4ec224b6f2c3496385ddb3f147a1ccfdc38805a779c37f236104702d204",
        "train_index.csv": "f90d805282c9526ad8f72ba6ca4da75e7212bc53bb5dbadf98b2b84cc1c45ca9",
        "val_index.csv": "2d80fb4cc7508c8803dc94da34071809b1316e791782e6f05b64347597091877",
        "test_index.csv": "281d66a438c5a2d5f1f36d8127d55a5eda847830cb429252d87863b33b5677e8",
    },
}


@pytest.fixture(scope="module")
def ais_csv(tmp_path_factory):
    # Two vessels of 12 days (more than the 8 test rows of 42) and six of 3,
    # the small ones with leading-zero MMSIs.
    large = generate_days(24, anomaly_fraction=0.0, seed=21, days_per_vessel=12)
    small = generate_days(18, anomaly_fraction=0.0, seed=22, days_per_vessel=3)
    for d in small:
        d.mmsi = "00" + d.mmsi[2:]
    path = tmp_path_factory.mktemp("golden") / "ais.csv"
    write_ais_csv(large + small, path)
    return path


@pytest.mark.parametrize("by_vessel", [False, True])
def test_id_sidecars_are_pinned(tmp_path, ais_csv, by_vessel):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split"):
        assert main([command, "--input-glob", str(ais_csv), "--run-dir", str(run_dir),
                     "--seed", "5", "--split-by-vessel", str(by_vessel).lower()]) == 0
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in SIDECARS}
    assert digests == GOLDEN[by_vessel]
