import json
from datetime import date

import numpy as np
import pytest

from ais_outliers.errors import DataError
from ais_outliers.geojson import day_feature, export_days
from ais_outliers.preprocess import IDS_DTYPE, N_SLOTS, SENTINEL, NormalizationStats

from oracles import denormalize

DAY = date(2019, 3, 6)


def stats():
    return NormalizationStats(minimum=np.array([20.0, -90.0, 0.0, 0.0]),
                              maximum=np.array([40.0, -70.0, 30.0, 360.0]))


def ids_of(*mmsis):
    return np.array([(mmsi, DAY) for mmsi in mmsis], IDS_DTYPE)


def full_matrix(rng):
    return rng.uniform(0, 1, (N_SLOTS, 4))


def test_full_day_yields_48_positions(rng):
    feature = day_feature("367000001", "2019-03-06", full_matrix(rng), stats(), rmse=0.1)
    assert feature["geometry"]["type"] == "LineString"
    assert len(feature["geometry"]["coordinates"]) == N_SLOTS
    assert feature["properties"] == {"mmsi": "367000001", "day": "2019-03-06",
                                     "rmse": 0.1}


def test_sentinel_slots_omitted_from_geometry(rng):
    matrix = full_matrix(rng)
    matrix[10:14] = SENTINEL
    feature = day_feature("367000001", "2019-03-06", matrix, stats())
    assert len(feature["geometry"]["coordinates"]) == N_SLOTS - 4


def test_coordinates_are_denormalized_lon_lat(rng):
    matrix = full_matrix(rng)
    feature = day_feature("367000001", "2019-03-06", matrix, stats())
    s = stats()
    for slot, (x, y) in enumerate(feature["geometry"]["coordinates"]):
        assert x == pytest.approx(denormalize(matrix[slot, 1], "lon", s), abs=1e-12)
        assert y == pytest.approx(denormalize(matrix[slot, 0], "lat", s), abs=1e-12)
        assert -90.0 <= x <= -70.0  # lon first, per RFC 7946
        assert 20.0 <= y <= 40.0


def test_export_selection_and_unknown_day(tmp_path, rng):
    tensor = np.stack([full_matrix(rng) for _ in range(3)])
    ids = ids_of(367000001, 367000002, 12345)
    out = tmp_path / "out.geojson"
    collection = export_days(out, ids[[1, 2]], tensor, ids, stats(),
                             scores=(ids[1:], np.array([0.5, 0.25])))
    assert [f["properties"] for f in collection["features"]] == [
        {"mmsi": "367000002", "day": "2019-03-06", "rmse": 0.5},
        {"mmsi": "000012345", "day": "2019-03-06", "rmse": 0.25}]
    parsed = json.loads(out.read_text())
    assert parsed["type"] == "FeatureCollection"

    # A selected day the scores do not hold has no RMSE.
    collection = export_days(out, ids[:1], tensor, ids, stats(),
                             scores=(ids[1:], np.array([0.5, 0.25])))
    assert collection["features"][0]["properties"] == {"mmsi": "367000001",
                                                       "day": "2019-03-06"}

    with pytest.raises(DataError, match="vessel-day 999999999 2019-03-06 is not"):
        export_days(out, ids_of(367000001, 999999999), tensor, ids, stats())


def test_export_is_byte_deterministic(tmp_path, rng):
    tensor = np.stack([full_matrix(rng) for _ in range(2)])
    ids = ids_of(367000001, 367000002)
    a, b = tmp_path / "a.geojson", tmp_path / "b.geojson"
    export_days(a, ids, tensor, ids, stats())
    export_days(b, ids, tensor, ids, stats())
    assert a.read_bytes() == b.read_bytes()
