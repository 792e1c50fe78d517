"""GeoJSON export of vessel-day trajectories (RFC 7946).

Each selected vessel-day becomes one LineString feature in raw lon/lat
coordinates (denormalized through the stored stats), with MMSI, day and
RMSE carried as properties. Sentinel slots are omitted from the geometry,
so gaps shorten the line rather than spiking to -1.
"""

from __future__ import annotations

import json

import numpy as np

from .atomic import atomic_write
from .errors import DataError
from .preprocess import FEATURES, SENTINEL, NormalizationStats, id_text

_LAT = FEATURES.index("lat")
_LON = FEATURES.index("lon")


def day_feature(mmsi: str, day: str, matrix: np.ndarray,
                stats: NormalizationStats, rmse: float | None = None) -> dict:
    """One vessel-day, its id spelt as `id_text` spells it, as a GeoJSON
    LineString feature."""
    present = matrix[:, _LAT] != SENTINEL
    span_lat = stats.maximum[_LAT] - stats.minimum[_LAT]
    span_lon = stats.maximum[_LON] - stats.minimum[_LON]
    lat = stats.minimum[_LAT] + matrix[present, _LAT] * span_lat
    lon = stats.minimum[_LON] + matrix[present, _LON] * span_lon
    coordinates = [[float(x), float(y)] for x, y in zip(lon, lat)]
    properties = {"mmsi": mmsi, "day": day}
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


def _rows_of(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Each IDS_DTYPE key's row in `ids`, or a row past its end where absent."""
    _, first, inverse = np.unique(np.concatenate((ids, keys)), return_index=True,
                                  return_inverse=True)
    return first[inverse[len(ids):]]


def export_days(
    path,
    selection: np.ndarray,
    tensor: np.ndarray,
    ids: np.ndarray,
    stats: NormalizationStats,
    scores: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict:
    """Write the selected vessel-days from a corpus to `path`; `selection`
    and `ids` are IDS_DTYPE arrays. `scores`, ids and their RMSEs, adds the
    RMSE of each selected day it holds.

    Raises DataError when a selected id is not in the corpus.
    """
    scored, rmse = scores if scores is not None else (ids[:0], np.empty(0))
    features = []
    for (mmsi, day), row, at in zip(id_text(selection), _rows_of(selection, ids).tolist(),
                                    _rows_of(selection, scored).tolist()):
        if row >= len(ids):
            raise DataError(f"vessel-day {mmsi} {day} is not in the scored corpus")
        features.append(day_feature(mmsi, day, tensor[row], stats,
                                    rmse[at] if at < len(rmse) else None))
    collection = feature_collection(features)
    write_geojson(path, collection)
    return collection
