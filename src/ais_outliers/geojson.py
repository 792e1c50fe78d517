"""GeoJSON export of vessel-day trajectories (RFC 7946).

Each selected vessel-day becomes one LineString feature in raw lon/lat
coordinates (denormalized through the stored stats), with MMSI, day and
RMSE carried as properties. Sentinel slots are omitted from the geometry,
so gaps shorten the line rather than spiking to -1.
"""

from __future__ import annotations

import json
from datetime import date

import numpy as np

from .atomic import atomic_write
from .errors import DataError
from .preprocess import FEATURES, SENTINEL, NormalizationStats

_LAT = FEATURES.index("lat")
_LON = FEATURES.index("lon")


def day_feature(mmsi: str, day: date, matrix: np.ndarray,
                stats: NormalizationStats, rmse: float | None = None) -> dict:
    """One vessel-day as a GeoJSON LineString feature."""
    present = matrix[:, _LAT] != SENTINEL
    span_lat = stats.maximum[_LAT] - stats.minimum[_LAT]
    span_lon = stats.maximum[_LON] - stats.minimum[_LON]
    lat = stats.minimum[_LAT] + matrix[present, _LAT] * span_lat
    lon = stats.minimum[_LON] + matrix[present, _LON] * span_lon
    coordinates = [[float(x), float(y)] for x, y in zip(lon, lat)]
    properties = {"mmsi": mmsi, "day": day.isoformat()}
    if rmse is not None:
        properties["rmse"] = float(rmse)
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coordinates},
        "properties": properties,
    }


def feature_collection(features: list[dict]) -> dict:
    return {"type": "FeatureCollection", "features": features}


def write_geojson(path, collection: dict) -> None:
    with atomic_write(path, "w") as fh:
        fh.write(json.dumps(collection, sort_keys=True, separators=(",", ":")) + "\n")


def export_days(
    path,
    selection: list[tuple[str, date]],
    tensor: np.ndarray,
    ids: list[tuple[str, date]],
    stats: NormalizationStats,
    rmse_by_id: dict[tuple[str, date], float] | None = None,
) -> dict:
    """Write the selected vessel-days from a corpus to `path`.

    Raises DataError when a selected (mmsi, day) is not in the corpus.
    """
    index = {key: i for i, key in enumerate(ids)}
    features = []
    for key in selection:
        if key not in index:
            raise DataError(f"vessel-day {key[0]} {key[1].isoformat()} "
                            "is not in the scored corpus")
        rmse = rmse_by_id.get(key) if rmse_by_id else None
        features.append(day_feature(key[0], key[1], tensor[index[key]], stats, rmse))
    collection = feature_collection(features)
    write_geojson(path, collection)
    return collection
