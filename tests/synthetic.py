"""Synthetic vessel-day generator for desk-scale experiments and demos.

Normal traffic follows a handful of shipping lanes: smooth parametric
routes (linear drift plus gentle sinusoidal wiggle) with per-lane start
regions and headings, jittered per day. SOG and COG are derived from the
position deltas so the four features stay physically consistent, and
headings keep COG away from the 0/360 wrap within a day.

Anomalous days teleport: from a random mid-day slot onward, positions are
displaced several degrees away from the traffic region while SOG and COG
keep reporting the original smooth motion, mimicking a transponder that
sends plausible kinematics from the wrong place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

from ais_outliers.preprocess import N_SLOTS

DEFAULT_ANOMALY_FRACTION = 0.02
DEFAULT_TELEPORT_DEGREES = 5.0
KNOTS_PER_DEGREE_HALF_HOUR = 120.0  # 60 nm/deg over 0.5 h

# Lane headings in degrees; all far from due north so the wiggle never
# pushes COG across the 0/360 discontinuity.
_LANE_HEADINGS = (60.0, 110.0, 150.0, 210.0, 250.0, 300.0)
_REGION_CENTER = (29.0, -83.0)  # lat, lon the anomalies jump away from


@dataclass
class SyntheticDay:
    mmsi: str
    day: date
    raw: np.ndarray  # (48, 4) lat/lon/sog/cog in native units
    anomalous: bool


def _lane_route(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One day of smooth motion along a jittered shipping lane."""
    lane = int(rng.integers(0, len(_LANE_HEADINGS)))
    heading = math.radians(_LANE_HEADINGS[lane] + rng.uniform(-8.0, 8.0))
    t = np.linspace(0.0, 1.0, N_SLOTS)
    lat0 = 26.0 + lane * 1.5 + rng.uniform(-0.4, 0.4)
    lon0 = -86.0 + lane * 1.2 + rng.uniform(-0.4, 0.4)
    drift = rng.uniform(1.4, 1.9)  # degrees travelled over the day
    wiggle_amp = rng.uniform(0.02, 0.05)
    wiggle_freq = int(rng.integers(1, 3))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    lat = lat0 + drift * math.cos(heading) * t \
        + wiggle_amp * np.sin(2.0 * math.pi * wiggle_freq * t + phase)
    lon = lon0 + drift * math.sin(heading) * t \
        + wiggle_amp * np.cos(2.0 * math.pi * wiggle_freq * t + phase)
    return lat, lon


def _motion_features(lat: np.ndarray, lon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SOG (knots) and COG (degrees) from consecutive position deltas."""
    dlat = np.diff(lat)
    dlon = np.diff(lon) * np.cos(np.radians(lat[:-1]))
    sog = KNOTS_PER_DEGREE_HALF_HOUR * np.hypot(dlat, dlon)
    cog = np.degrees(np.arctan2(dlon, dlat)) % 360.0
    # Last slot repeats the final leg so every slot has motion values.
    return np.append(sog, sog[-1]), np.append(cog, cog[-1])


def _inject_teleport(lat: np.ndarray, lon: np.ndarray, rng: np.random.Generator,
                     min_degrees: float) -> None:
    """Displace positions from a mid-day slot onward by >= min_degrees,
    directed away from the traffic region."""
    start = int(rng.integers(12, 32))
    jump = rng.uniform(min_degrees, min_degrees + 3.0)
    bearing = math.atan2(lon[start] - _REGION_CENTER[1],
                         lat[start] - _REGION_CENTER[0])
    bearing += rng.uniform(-0.5, 0.5)
    lat[start:] += jump * math.cos(bearing)
    lon[start:] += jump * math.sin(bearing)


def generate_days(
    n_days: int,
    anomaly_fraction: float = DEFAULT_ANOMALY_FRACTION,
    seed: int = 0,
    days_per_vessel: int = 4,
    start_day: date = date(2019, 3, 6),
    teleport_degrees: float = DEFAULT_TELEPORT_DEGREES,
) -> list[SyntheticDay]:
    """Deterministically generate `n_days` vessel-days with planted anomalies."""
    rng = np.random.default_rng(seed)
    n_anomalies = round(n_days * anomaly_fraction)
    anomalous = set(rng.choice(n_days, size=n_anomalies, replace=False).tolist())

    days = []
    for i in range(n_days):
        lat, lon = _lane_route(rng)
        sog, cog = _motion_features(lat, lon)  # pre-teleport motion
        if i in anomalous:
            _inject_teleport(lat, lon, rng, teleport_degrees)
        raw = np.column_stack([lat, lon, sog, cog])
        mmsi = f"2{i // days_per_vessel:08d}"
        day = start_day + timedelta(days=i % days_per_vessel)
        days.append(SyntheticDay(mmsi=mmsi, day=day, raw=raw,
                                 anomalous=i in anomalous))
    return days


def day_matrices(days: list[SyntheticDay]) -> tuple[np.ndarray, np.ndarray]:
    """(N, 48, 4) raw tensor plus 0/1 anomaly labels."""
    tensor = np.stack([d.raw for d in days])
    labels = np.array([d.anomalous for d in days], dtype=bool)
    return tensor, labels


def normalize_raw(tensor: np.ndarray) -> np.ndarray:
    """Min-max normalize a fully observed raw tensor feature-by-feature."""
    lo = tensor.min(axis=(0, 1))
    hi = tensor.max(axis=(0, 1))
    return (tensor - lo) / (hi - lo)


def write_ais_csv(days: list[SyntheticDay], path, length_m: float = 100.0) -> None:
    """Emit MarineCadastre-style rows, one per slot at exact grid times."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["MMSI", "BaseDateTime", "LAT", "LON", "SOG", "COG", "Length"])
        for d in days:
            midnight = datetime(d.day.year, d.day.month, d.day.day,
                                tzinfo=timezone.utc)
            for slot in range(N_SLOTS):
                when = midnight + timedelta(minutes=30 * slot)
                lat, lon, sog, cog = d.raw[slot]
                writer.writerow([
                    d.mmsi,
                    when.strftime("%Y-%m-%dT%H:%M:%S"),
                    f"{lat:.6f}", f"{lon:.6f}", f"{sog:.3f}", f"{cog:.3f}",
                    f"{length_m:.1f}",
                ])


def write_labels_csv(days: list[SyntheticDay], path) -> None:
    """Ground-truth sidecar for evaluating detection quality."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mmsi", "day", "anomalous"])
        for d in days:
            writer.writerow([d.mmsi, d.day.isoformat(), int(d.anomalous)])
