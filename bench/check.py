"""Output checks for one finished pipeline run.

    python3 bench/check.py INPUTS_DIR RUN_DIR CONFIG_FILE [--auc-floor X]

Compares the run directory against the generator's own figures
(`tallies.json`, `truth.npz`) and against properties of the method, never
against a stored copy of earlier output. Prints one JSON object:
{"failures": [...], "facts": {...}}; an empty failure list means the
outputs are correct.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import numpy as np

N_SLOTS, N_FEATURES = 48, 4
FEATURES = ("lat", "lon", "sog", "cog")
SENTINEL = -1.0


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_set(run: Path, name: str) -> tuple[list[str], np.ndarray]:
    _, rows = read_rows(run / f"{name}_index.csv")
    tensor = np.fromfile(run / f"{name}.f64", dtype="<f8").reshape(-1, N_SLOTS, N_FEATURES)
    return [f"{r[1]},{r[2]}" for r in rows], tensor


def interpolate(grid: np.ndarray, max_fill: int) -> np.ndarray:
    """Fill interior NaN runs of <= max_fill slots linearly over slot index."""
    out = grid.copy()
    missing = np.isnan(out[:, 0])
    i = 0
    while i < N_SLOTS:
        if not missing[i]:
            i += 1
            continue
        start = i
        while i < N_SLOTS and missing[i]:
            i += 1
        if start == 0 or i == N_SLOTS or i - start > max_fill:
            continue
        left, right = start - 1, i
        for slot in range(start, i):
            frac = (slot - left) / (right - left)
            out[slot] = out[left] + frac * (out[right] - out[left])
    return out


def auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Probability that an anomaly outscores a normal day (ties count half)."""
    pos, neg = scores[labels], scores[~labels]
    if len(pos) == 0 or len(neg) == 0:
        return None
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def check(inputs: Path, run: Path, config: dict[str, str], auc_floor: float | None):
    failures: list[str] = []
    facts: dict = {}

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    tallies = json.loads((inputs / "tallies.json").read_text())
    truth = np.load(inputs / "truth.npz")
    truth_ids = [str(x) for x in truth["ids"]]
    labels = dict(zip(truth_ids, truth["labels"].tolist()))

    # Ingest and preprocess reports equal the planted counts exactly.
    report = {k: int(v) for k, v in read_kv(run / "ingest_report.txt").items()}
    expect(report == tallies["ingest"],
           f"ingest report {report} != planted {tallies['ingest']}")
    summary = read_kv(run / "preprocess_report.txt")
    for key, planted in tallies["preprocess"].items():
        expect(int(summary.get(key, -1)) == planted,
               f"preprocess {key}={summary.get(key)} != planted {planted}")

    # Corpus: the kept days, every cell in [0, 1] or exactly -1, and the
    # denormalised cells equal to the generator's slot values.
    ids, corpus = read_set(run, "corpus")
    expect(ids == truth_ids, f"corpus holds {len(ids)} days, planted {len(truth_ids)} kept")
    expect(bool(np.all(((corpus >= 0) & (corpus <= 1)) | (corpus == SENTINEL))),
           "corpus has cells outside [0, 1] that are not exactly -1")
    if ids == truth_ids:
        stats = {k: float(v) for k, v in read_kv(run / "stats.txt").items()}
        lo = np.array([stats[f"{f}_min"] for f in FEATURES])
        hi = np.array([stats[f"{f}_max"] for f in FEATURES])
        expected = np.stack([interpolate(g, int(config["max_fill"])) for g in truth["values"]])
        missing = np.isnan(expected)
        expect(bool(np.array_equal(corpus == SENTINEL, missing)),
               "sentinel cells differ from the slots the generator left empty")
        tolerance = 0.5 * 10.0 ** -np.array(tallies["decimals"]) * (1 + 1e-6) + 1e-9
        denorm = lo + corpus * (hi - lo)
        err = np.where(missing, 0.0, np.abs(denorm - np.nan_to_num(expected)))
        worst = (err / tolerance).max()
        facts["corpus_worst_error_in_print_units"] = float(worst)
        expect(worst <= 1.0, f"denormalised corpus differs from the generator by "
                             f"{worst:.3g}x the CSV print precision")

    # Split: floor-rule sizes; disjoint subsets that cover the corpus row for row.
    n = len(ids)
    n_test = int(n * float(config["test_fraction"]))
    n_val = int((n - n_test) * float(config["val_fraction"]))
    sizes = {"train": n - n_test - n_val, "val": n_val, "test": n_test}
    subsets = {name: read_set(run, name) for name in sizes}
    row_of = {key: i for i, key in enumerate(ids)}
    seen: set[str] = set()
    for name, (sub_ids, tensor) in subsets.items():
        expect(len(sub_ids) == sizes[name] == tensor.shape[0],
               f"{name} holds {len(sub_ids)} rows, floor rule gives {sizes[name]}")
        expect(not seen & set(sub_ids), f"{name} overlaps another subset")
        seen |= set(sub_ids)
        rows = [row_of.get(k, -1) for k in sub_ids]
        expect(-1 not in rows and np.array_equal(tensor, corpus[rows]),
               f"{name} rows differ from their corpus rows")
    expect(seen == set(ids), "train, val and test do not cover the corpus")
    facts.update({f"n_{k}": v for k, v in sizes.items()})

    # Training: the final val loss beats the per-cell mean predictor.
    _, history = read_rows(run / "history.csv")
    expect(len(history) == int(config["epochs"]), f"history has {len(history)} epochs")
    val = subsets["val"][1]
    baseline = float(np.mean((val - val.mean(axis=0)) ** 2))
    val_loss = float(history[-1][2])
    facts.update(final_val_loss=val_loss, mean_predictor_mse=baseline)
    expect(val_loss < baseline,
           f"final val loss {val_loss:.6g} >= per-cell mean predictor MSE {baseline:.6g}")

    # Scoring: threshold and flags recomputed with population sigma and strict >.
    header, rows = read_rows(run / "scores.csv")
    score_ids = [f"{r[0]},{r[1]}" for r in rows]
    rmse = np.array([float(r[2]) for r in rows])
    expect(score_ids == subsets["test"][0], "scores.csv rows differ from the test set")
    manifest = json.loads((run / "manifest.json").read_text())["stages"]["score"]["extra"]
    threshold = manifest["threshold"]
    k = float(config["sigma_k"])
    if config["threshold_scores"] == "test":
        recomputed = float(rmse.mean() + k * rmse.std())
        expect(abs(recomputed - threshold) <= 1e-12 * max(1.0, abs(threshold)),
               f"threshold {threshold!r} != mean + {k:g} sigma of scores.csv {recomputed!r}")
    flagged = {score_ids[i] for i in np.flatnonzero(rmse > threshold)}
    _, outliers = read_rows(run / "outliers.csv")
    listed = [f"{r[1]},{r[2]}" for r in outliers]
    expect(set(listed) == flagged and len(listed) == len(flagged) == manifest["flagged"],
           f"outliers.csv lists {len(listed)} days, scores.csv gives {len(flagged)} above "
           f"the threshold")
    expect(all(float(r[4]) == threshold for r in outliers),
           "outliers.csv threshold column differs from the recorded threshold")
    listed_rmse = [float(r[3]) for r in outliers]
    expect(listed_rmse == sorted(listed_rmse, reverse=True), "outliers.csv is not ranked")
    if config["per_feature_rmse"] == "true":
        expect(header[3:] == [f"rmse_{f}" for f in FEATURES], f"per-feature columns: {header}")
        per_feature = np.array([[float(x) for x in r[3:]] for r in rows])
        expect(np.allclose(rmse ** 2, (per_feature ** 2).mean(axis=1), rtol=1e-9, atol=0),
               "per-feature RMSEs do not combine to the sequence RMSE")
    facts["flagged"] = len(flagged)

    # Detection quality where anomalies are planted.
    test_labels = np.array([labels[i] for i in score_ids], dtype=bool)
    if tallies["anomalies"]:
        centred = rmse - rmse.mean()
        skew = float((centred ** 3).mean() / max(rmse.std() ** 3, 1e-300))
        facts["rmse_skewness"] = skew
        expect(skew > 0, f"test RMSE histogram is not right-skewed (skewness {skew:.3g})")
        facts["auc"] = auc(rmse, test_labels)
        if auc_floor is not None and facts["auc"] is not None:
            expect(facts["auc"] >= auc_floor,
                   f"AUC {facts['auc']:.3f} below the floor {auc_floor}")

    # GeoJSON: one LineString per flagged day, one vertex per present slot.
    collection = json.loads((run / "outliers.geojson").read_text())
    features = collection["features"]
    test_ids, test_tensor = subsets["test"]
    test_row = {key: i for i, key in enumerate(test_ids)}
    keys = [f"{f['properties']['mmsi']},{f['properties']['day']}" for f in features]
    expect(len(features) == len(flagged) and set(keys) == flagged,
           f"GeoJSON holds {len(features)} features for {len(flagged)} flagged days")
    for key, feature in zip(keys, features):
        present = int((test_tensor[test_row[key], :, 0] != SENTINEL).sum()) \
            if key in test_row else -1
        expect(feature["geometry"]["type"] == "LineString"
               and len(feature["geometry"]["coordinates"]) == present,
               f"GeoJSON feature {key} is not a LineString over its present slots")
    return failures, facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs")
    parser.add_argument("run")
    parser.add_argument("config")
    parser.add_argument("--auc-floor", type=float)
    args = parser.parse_args()
    config = read_kv(Path(args.config))
    failures, facts = check(Path(args.inputs), Path(args.run), config, args.auc_floor)
    print(json.dumps({"failures": failures, "facts": facts}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
