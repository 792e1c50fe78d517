import math
from datetime import datetime, timezone

import numpy as np
import pytest

from ais_outliers.ingest import TRACK_DTYPE, VesselTrack


def utc(y, mo, d, h=0, mi=0, s=0):
    return datetime(y, mo, d, h, mi, s, tzinfo=timezone.utc)


def make_record(mmsi="367000001", ts=None, lat=30.0, lon=-80.0, sog=10.0,
                cog=90.0, length=100.0):
    """One TRACK_DTYPE row; `length=None` stands for an unreported length."""
    t = int((ts or utc(2019, 3, 6)).timestamp())
    return np.array((int(mmsi), t, lat, lon, sog, cog,
                     math.nan if length is None else length), dtype=TRACK_DTYPE)[()]


def make_table(records):
    return np.array(list(records), dtype=TRACK_DTYPE)


def make_track(mmsi, records):
    return VesselTrack(mmsi=mmsi, records=make_table(records))


@pytest.fixture
def rng():
    return np.random.default_rng(20190306)
