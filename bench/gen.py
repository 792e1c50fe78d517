"""Seeded input generators for the pipeline benchmark.

The generators use numpy only and import nothing from the program under
test, so a change under `src/` cannot change what the benchmark measures.
Each writes MarineCadastre-style daily CSV files into an output directory,
together with:

* `truth.npz`: the (mmsi, day) of every vessel-day the pipeline should keep,
  its 48x4 slot values as printed (NaN where no report falls within the
  resampling tolerance), and its anomaly label;
* `tallies.json`: the exact counts the ingest and preprocess reports should
  show for the planted faults and day kinds.

Two corpora exist:

* `lanes`: one report per 30-minute slot along jittered shipping lanes,
  with a fixed share of teleport anomalies (positions jump several degrees
  from a mid-day slot on while SOG/COG keep the smooth motion).
* `dense`: per-minute reports for a few vessels over about two weeks, on
  looping routes, with planted sparse, gappy-but-fillable and
  mostly-missing days.

Both plant malformed rows for every reject reason, exact and conflicting
duplicates, and vessels of 20 m or less (plus one of unknown length).

Run: python3 bench/gen.py {lanes,dense} --seed N --out DIR [--param key=value ...]
"""

from __future__ import annotations

import argparse
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

N_SLOTS = 48
SLOT_MINUTES = 30
DAY_MINUTES = 1440
FIRST_DAY = date(2019, 3, 6)
HEADER = "MMSI,BaseDateTime,LAT,LON,SOG,COG,Length"
KNOTS_PER_DEG_PER_MIN = 3600.0  # 60 nm per degree, 60 minutes per hour

# Preprocess rules of the configuration every workload runs with (the CLI
# defaults); the dense generator classifies its planted days by them.
MIN_ENTRIES = 20
MAX_FILL = 20
MAX_MISSING_FRACTION = 0.30

# Each reason maps to row variants that fail at exactly that check, with
# every earlier check passing. Fields: mmsi, time, lat, lon, sog, cog.
MALFORMED = {
    "bad_mmsi": ({"mmsi": "12345678"}, {"mmsi": "AB1234567"}),
    "bad_timestamp": ({"time": "{day}T25:00:00"}, {"time": "{slashed} 12:00:00"}),
    "bad_lat": ({"lat": ""}, {"lat": "nan"}),
    "lat_out_of_range": ({"lat": "90.50000"}, {"lat": "-91.00000"}),
    "bad_lon": ({"lon": "west"}, {"lon": "inf"}),
    "lon_out_of_range": ({"lon": "180.50000"}, {"lon": "-181.00000"}),
    "bad_sog": ({"sog": "fast"}, {"sog": ""}),
    "sog_out_of_range": ({"sog": "-0.5"}, {"sog": "-12.0"}),
    "bad_cog": ({"cog": "north"}, {"cog": "-inf"}),
    "cog_out_of_range": ({"cog": "360.5"}, {"cog": "-1.0"}),
}


class Corpus:
    """Accumulates CSV rows per calendar day plus the expected tallies."""

    def __init__(self, rng: np.random.Generator, decimals: tuple[int, int, int, int]):
        self.rng = rng
        self.decimals = decimals
        self.files: dict[int, list[str]] = {}
        self.valid_rows: dict[int, list[str]] = {}  # long vessels only: dup sources
        self.reasons: dict[str, int] = {}
        self.rows_read = 0
        self.vessels_kept = 0
        self.vessels_short = 0

    def add_track(self, mmsi: str, minutes: np.ndarray, second: int, values: np.ndarray,
                  length: float | None, long_vessel: bool) -> None:
        """Rows at absolute `minutes` (since FIRST_DAY 00:00) + `second` s."""
        dl, dl2, ds, dc = self.decimals
        length_text = "" if length is None else f"{length:.1f}"
        days = minutes // DAY_MINUTES
        in_day = minutes % DAY_MINUTES
        for cal_day in np.unique(days):
            pick = days == cal_day
            stamp = (FIRST_DAY + timedelta(days=int(cal_day))).isoformat()
            rows = [
                f"{mmsi},{stamp}T{m // 60:02d}:{m % 60:02d}:{second:02d},"
                f"{lat:.{dl}f},{lon:.{dl2}f},{sog:.{ds}f},{cog:.{dc}f},{length_text}"
                for m, (lat, lon, sog, cog) in zip(in_day[pick].tolist(), values[pick].tolist())
            ]
            self.files.setdefault(int(cal_day), []).extend(rows)
            if long_vessel:
                self.valid_rows.setdefault(int(cal_day), []).extend(rows)
            self.rows_read += len(rows)
        if long_vessel:
            self.vessels_kept += 1
        else:
            self.vessels_short += 1

    def plant_faults(self, per_reason: int, exact_dups: int, conflicting_dups: int) -> None:
        """Per file: malformed rows for every reason, then duplicates of
        distinct valid rows appended after their originals."""
        for cal_day, rows in self.files.items():
            stamp = (FIRST_DAY + timedelta(days=cal_day)).isoformat()
            source = self.valid_rows[cal_day]
            mmsi = source[0].split(",", 1)[0]
            bad = []
            for reason, variants in MALFORMED.items():
                for i in range(per_reason):
                    bad.append(_malformed_row(mmsi, stamp, variants[i % len(variants)]))
                self._reject(reason, per_reason)
            for _ in range(per_reason):
                bad.append(f"{mmsi},{stamp}T06:00:00,30.0")
            self._reject("short_row", per_reason)
            positions = self.rng.integers(0, len(rows) + 1, size=len(bad))
            for pos, row in sorted(zip(positions.tolist(), bad), reverse=True):
                rows.insert(pos, row)
            picks = self.rng.choice(len(source), size=exact_dups + conflicting_dups,
                                    replace=False)
            for i, k in enumerate(picks.tolist()):
                fields = source[k].split(",")
                if i >= exact_dups:
                    lat = float(fields[2])
                    fields[2] = f"{lat - 0.01 if lat > 0 else lat + 0.01:.{self.decimals[0]}f}"
                rows.append(",".join(fields))
            self._reject("duplicate_row", exact_dups)
            self._reject("duplicate_timestamp", conflicting_dups)
            self.rows_read += len(bad) + exact_dups + conflicting_dups

    def _reject(self, reason: str, n: int) -> None:
        if n:
            self.reasons[reason] = self.reasons.get(reason, 0) + n

    def write(self, out: Path, preprocess: dict, ids: list[str], values: np.ndarray,
              labels: np.ndarray) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for cal_day, rows in sorted(self.files.items()):
            name = (FIRST_DAY + timedelta(days=cal_day)).strftime("AIS_%Y_%m_%d.csv")
            (out / name).write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        rejected = sum(self.reasons.values())
        ingest = {"rows_read": self.rows_read,
                  "rows_accepted": self.rows_read - rejected,
                  "rows_rejected": rejected}
        ingest.update({f"reject.{r}": n for r, n in sorted(self.reasons.items())})
        ingest["vessels_kept"] = self.vessels_kept
        ingest["vessels_dropped_by_length"] = self.vessels_short
        tallies = {"ingest": ingest, "preprocess": preprocess,
                   "decimals": list(self.decimals),
                   "anomalies": int(labels.sum())}
        (out / "tallies.json").write_text(json.dumps(tallies, indent=1) + "\n")
        np.savez(out / "truth.npz", ids=np.array(ids), values=values, labels=labels)


def _malformed_row(mmsi: str, stamp: str, change: dict) -> str:
    row = {"mmsi": mmsi, "time": f"{stamp}T12:00:00", "lat": "30.00000",
           "lon": "-80.00000", "sog": "10.0", "cog": "90.0"}
    for key, text in change.items():
        row[key] = text.format(day=stamp, slashed=stamp.replace("-", "/"))
    return ",".join([row["mmsi"], row["time"], row["lat"], row["lon"], row["sog"],
                     row["cog"], "150.0"])


def _mmsis(rng: np.random.Generator, n: int) -> list[str]:
    picked: dict[int, None] = {}
    while len(picked) < n:
        picked[int(rng.integers(200_000_000, 800_000_000))] = None
    return [str(m) for m in picked]


def _motion(dlat: np.ndarray, dlon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SOG (knots) and COG (degrees) from a per-minute position change."""
    east = dlon * np.cos(np.radians(lat))
    sog = KNOTS_PER_DEG_PER_MIN * np.hypot(dlat, east)
    cog = np.degrees(np.arctan2(east, dlat)) % 360.0
    # Keep the printed value below 360.0: ingest reads 360 as 0.
    return sog, np.where(cog >= 359.94, 0.0, cog)


def _short_vessels(corpus: Corpus, rng: np.random.Generator, mmsis: list[str],
                   minutes: np.ndarray, second: int) -> None:
    """Vessels the length filter drops: <= 20 m, exactly 20 m, unknown."""
    for mmsi, length in zip(mmsis, (12.0, 20.0, None)):
        n = len(minutes)
        lat = 27.0 + rng.uniform(0, 1) + 0.001 * np.arange(n) / max(n, 1)
        lon = np.full(n, -81.0 + rng.uniform(0, 1))
        values = np.column_stack([lat, lon, np.full(n, 3.0), np.full(n, 5.0)])
        corpus.add_track(mmsi, minutes, second, values, length, long_vessel=False)


# ---------------------------------------------------------------------------
# Lane corpus: 30-minute cadence, teleport anomalies
# ---------------------------------------------------------------------------

LANE_HEADINGS = (55.0, 105.0, 145.0, 215.0, 245.0, 295.0)
REGION_CENTER = (29.5, -82.5)
DAYS_PER_VESSEL = 4
ANOMALY_FRACTION = 0.05
START_DAYS = 7  # vessels start on one of the first seven calendar days


def lanes(rng: np.random.Generator, out: Path, days: int) -> None:
    n_vessels = math.ceil(days / DAYS_PER_VESSEL)
    n_days = n_vessels * DAYS_PER_VESSEL
    t = np.linspace(0.0, 1.0, N_SLOTS)

    lane = rng.integers(0, len(LANE_HEADINGS), n_days)
    heading = np.radians(np.array(LANE_HEADINGS)[lane] + rng.uniform(-8, 8, n_days))
    lat0 = 25.5 + 1.5 * lane + rng.uniform(-0.4, 0.4, n_days)
    lon0 = -86.5 + 1.2 * lane + rng.uniform(-0.4, 0.4, n_days)
    travel = rng.uniform(1.3, 1.9, n_days)
    amp = rng.uniform(0.02, 0.05, n_days)
    freq = rng.integers(1, 3, n_days)
    phase = rng.uniform(0, 2 * math.pi, n_days)
    wave = 2 * math.pi * freq[:, None] * t + phase[:, None]
    lat = lat0[:, None] + (travel * np.cos(heading))[:, None] * t + amp[:, None] * np.sin(wave)
    lon = lon0[:, None] + (travel * np.sin(heading))[:, None] * t + amp[:, None] * np.cos(wave)
    dlat = np.diff(lat, axis=1) / SLOT_MINUTES
    dlon = np.diff(lon, axis=1) / SLOT_MINUTES
    sog, cog = _motion(dlat, dlon, lat[:, :-1])
    sog = np.concatenate([sog, sog[:, -1:]], axis=1)
    cog = np.concatenate([cog, cog[:, -1:]], axis=1)

    labels = np.zeros(n_days, dtype=bool)
    labels[rng.choice(n_days, round(n_days * ANOMALY_FRACTION), replace=False)] = True
    for i in np.flatnonzero(labels):
        start = int(rng.integers(12, 32))
        jump = rng.uniform(5.0, 8.0)
        bearing = math.atan2(lon[i, start] - REGION_CENTER[1],
                             lat[i, start] - REGION_CENTER[0]) + rng.uniform(-0.5, 0.5)
        lat[i, start:] += jump * math.cos(bearing)
        lon[i, start:] += jump * math.sin(bearing)
    values = np.stack([lat, lon, sog, cog], axis=-1)  # (n_days, 48, 4)

    corpus = Corpus(rng, (6, 6, 3, 3))
    mmsis = _mmsis(rng, n_vessels + 3)
    lengths = rng.uniform(40.0, 300.0, n_vessels)
    slot_minutes = np.arange(N_SLOTS) * SLOT_MINUTES
    ids = []
    for v in range(n_vessels):
        first = int(rng.integers(0, START_DAYS))
        rows = slice(v * DAYS_PER_VESSEL, (v + 1) * DAYS_PER_VESSEL)
        minutes = np.concatenate([(first + d) * DAY_MINUTES + slot_minutes
                                  for d in range(DAYS_PER_VESSEL)])
        corpus.add_track(mmsis[v], minutes, 0, values[rows].reshape(-1, 4),
                         float(lengths[v]), long_vessel=True)
        ids += [f"{mmsis[v]},{FIRST_DAY + timedelta(days=first + d)}"
                for d in range(DAYS_PER_VESSEL)]
    shared_day = int(minutes[0]) // DAY_MINUTES * DAY_MINUTES  # has long vessels
    _short_vessels(corpus, rng, mmsis[n_vessels:], shared_day + slot_minutes, 0)
    corpus.plant_faults(per_reason=1, exact_dups=1, conflicting_dups=1)

    preprocess = {"days_total": n_days, "days_sparse_dropped": 0,
                  "days_missing_dropped": 0, "days_kept": n_days}
    order = np.argsort(np.array(ids), kind="stable")
    corpus.write(out, preprocess, [ids[i] for i in order], values[order], labels[order])


# ---------------------------------------------------------------------------
# Dense feed: per-minute reports, planted day kinds
# ---------------------------------------------------------------------------

def _day_presence(rng: np.random.Generator, kind: str) -> np.ndarray:
    """Which of the day's 1440 minutes report.

    A slot at minute 30i is filled by the report of minute 30i (offset
    `second` < 30 s) or else of minute 30i-1; removing minutes
    [30a - 1, 30b] therefore empties exactly slots a..b.
    """
    present = np.ones(DAY_MINUTES, dtype=bool)
    if kind == "gappy":  # interior runs of <= MAX_FILL slots, all refillable
        a = int(rng.integers(2, 12))
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(2, 8))
            if a + length > N_SLOTS - 2:
                break
            present[SLOT_MINUTES * a - 1:SLOT_MINUTES * (a + length - 1) + 1] = False
            a += length + int(rng.integers(2, 8))
    elif kind == "sparse":  # slots 0..k only, fewer than MIN_ENTRIES
        k = int(rng.integers(3, MIN_ENTRIES - 2))
        present[SLOT_MINUTES * k + 1:] = False
    elif kind == "mostly_missing":
        if rng.random() < 0.5:  # trailing run is never interpolated
            k = int(rng.integers(MIN_ENTRIES, 32))
            present[SLOT_MINUTES * k + 1:] = False
        else:  # interior run longer than MAX_FILL
            a = int(rng.integers(4, 18))
            length = int(rng.integers(MAX_FILL + 2, MAX_FILL + 6))
            present[SLOT_MINUTES * a - 1:SLOT_MINUTES * (a + length - 1) + 1] = False
    return present


def _classify(filled: np.ndarray) -> str:
    """Apply the preprocess rules to one day's slot-presence vector."""
    if filled.sum() < MIN_ENTRIES:
        return "sparse"
    missing = 0
    i = 0
    while i < N_SLOTS:
        if filled[i]:
            i += 1
            continue
        start = i
        while i < N_SLOTS and not filled[i]:
            i += 1
        if start == 0 or i == N_SLOTS or i - start > MAX_FILL:
            missing += i - start
    return "mostly_missing" if missing / N_SLOTS > MAX_MISSING_FRACTION else "kept"


DAY_KIND_SHARES = {"gappy": 0.25, "sparse": 0.1, "mostly_missing": 0.1}  # rest: full


def dense(rng: np.random.Generator, out: Path, vessels: int, days: int) -> None:
    n_days = vessels * days
    counts = {kind: round(n_days * share) for kind, share in DAY_KIND_SHARES.items()}
    kinds = np.array(["full"] * n_days, dtype=object)
    shuffled = rng.permutation(n_days)
    at = 0
    for kind, n in counts.items():
        kinds[shuffled[at:at + n]] = kind
        at += n

    corpus = Corpus(rng, (5, 5, 1, 1))
    mmsis = _mmsis(rng, vessels + 3)
    ids, grids, tally = [], [], {k: 0 for k in ("kept", "sparse", "mostly_missing")}
    for v in range(vessels):
        first = int(rng.integers(0, 3))
        second = int(rng.integers(1, 30))
        present = np.concatenate([_day_presence(rng, kinds[v * days + d])
                                  for d in range(days)])
        present[-15:] = False  # stop at 23:44 so no report lands on a next day
        tau = np.arange(days * DAY_MINUTES) + second / 60.0
        period = rng.uniform(1200.0, 3600.0)
        omega = 2 * math.pi / period
        a, b = rng.uniform(0.3, 1.1, 2)
        phase = rng.uniform(0, 2 * math.pi)
        lat0, lon0 = rng.uniform(25.0, 40.0), rng.uniform(-90.0, -70.0)
        lat = lat0 + a * np.sin(omega * tau + phase)
        lon = lon0 + b * np.cos(omega * tau + phase)
        sog, cog = _motion(a * omega * np.cos(omega * tau + phase),
                           -b * omega * np.sin(omega * tau + phase), lat)
        values = np.column_stack([lat, lon, sog, cog])

        minutes = np.flatnonzero(present)
        corpus.add_track(mmsis[v], first * DAY_MINUTES + minutes, second,
                         values[minutes], float(rng.uniform(40.0, 300.0)), long_vessel=True)

        for d in range(days):
            slot = d * DAY_MINUTES + SLOT_MINUTES * np.arange(N_SLOTS)
            earlier = np.maximum(slot - 1, 0)
            pick = np.where(present[slot], slot, earlier)
            filled = present[slot] | ((slot > 0) & present[earlier])
            verdict = _classify(filled)
            expected = "kept" if kinds[v * days + d] in ("full", "gappy") else kinds[v * days + d]
            if verdict != expected:
                raise AssertionError(f"generator planted a {expected} day that reads as {verdict}")
            tally[verdict] += 1
            if verdict == "kept":
                grid = np.where(filled[:, None], values[pick], np.nan)
                ids.append(f"{mmsis[v]},{FIRST_DAY + timedelta(days=first + d)}")
                grids.append(grid)
    _short_vessels(corpus, rng, mmsis[vessels:],
                   first * DAY_MINUTES + np.arange(DAY_MINUTES - 15), int(rng.integers(1, 30)))
    corpus.plant_faults(per_reason=2, exact_dups=3, conflicting_dups=3)

    preprocess = {"days_total": n_days, "days_sparse_dropped": tally["sparse"],
                  "days_missing_dropped": tally["mostly_missing"],
                  "days_kept": tally["kept"]}
    order = np.argsort(np.array(ids), kind="stable")
    corpus.write(out, preprocess, [ids[i] for i in order], np.stack(grids)[order],
                 np.zeros(len(ids), dtype=bool))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("lanes", "dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args()
    params = {}
    for item in args.param:
        key, _, value = item.partition("=")
        params[key] = int(value)
    rng = np.random.default_rng(args.seed % 2**64)
    (lanes if args.kind == "lanes" else dense)(rng, Path(args.out), **params)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
