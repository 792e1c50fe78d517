import numpy as np
import numpy.testing as npt

from ais_outliers.ingest import filter_by_length, group_and_sort, parse_ais_csv
from ais_outliers.preprocess import N_SLOTS

from synthetic import (
    day_matrices,
    generate_days,
    normalize_raw,
    write_ais_csv,
    write_labels_csv,
)


def test_generation_is_deterministic():
    a = generate_days(50, seed=5)
    b = generate_days(50, seed=5)
    for x, y in zip(a, b):
        assert x.mmsi == y.mmsi and x.day == y.day and x.anomalous == y.anomalous
        npt.assert_array_equal(x.raw, y.raw)


def test_anomaly_count_and_jump_size():
    days = generate_days(200, anomaly_fraction=0.02, seed=9)
    raw, labels = day_matrices(days)
    assert labels.sum() == 4
    # Anomalous days contain at least one slot-to-slot position jump >= 5 deg;
    # normal days never come close.
    for i in range(len(days)):
        dlat = np.abs(np.diff(raw[i, :, 0]))
        dlon = np.abs(np.diff(raw[i, :, 1]))
        biggest = float(np.hypot(dlat, dlon).max())
        if labels[i]:
            assert biggest >= 5.0
        else:
            assert biggest < 1.0


def test_features_stay_in_ais_ranges():
    raw, _ = day_matrices(generate_days(300, seed=3))
    assert (raw[:, :, 0] >= -90).all() and (raw[:, :, 0] <= 90).all()
    assert (raw[:, :, 1] >= -180).all() and (raw[:, :, 1] <= 180).all()
    assert (raw[:, :, 2] >= 0).all()
    assert (raw[:, :, 3] >= 0).all() and (raw[:, :, 3] < 360).all()


def test_normal_days_have_no_cog_wrap():
    days = generate_days(300, seed=12)
    raw, labels = day_matrices(days)
    cog = raw[~labels][:, :, 3]
    assert (np.abs(np.diff(cog, axis=1)) < 180).all()


def test_normalize_raw_unit_interval():
    raw, _ = day_matrices(generate_days(40, seed=1))
    norm = normalize_raw(raw)
    assert norm.min() == 0.0 and norm.max() == 1.0


def test_csv_round_trips_through_ingest(tmp_path):
    days = generate_days(12, seed=2)
    path = tmp_path / "synthetic.csv"
    write_ais_csv(days, path)
    records, report = parse_ais_csv(path)
    assert report.rows_read == 12 * N_SLOTS
    assert report.rows_rejected == 0
    tracks = group_and_sort(filter_by_length(records, 20.0))
    assert len(tracks.index) == len({d.mmsi for d in days})


def test_labels_csv(tmp_path):
    days = generate_days(10, anomaly_fraction=0.2, seed=8)
    path = tmp_path / "labels.csv"
    write_labels_csv(days, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mmsi,day,anomalous"
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 2
