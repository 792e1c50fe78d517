"""Command-line pipeline: ingest, preprocess, split, train, score,
export-geojson, report.

Every stage persists its artifacts under the run directory and stamps the
run manifest with config, checksums and wall time, so a finished run is
reproducible from the manifest alone. Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import glob
import sys
import time
from dataclasses import fields
from datetime import date, datetime
from pathlib import Path

from . import __version__, detect
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, NumericError
from .geojson import export_days
from .ingest import (
    AisRecord,
    IngestReport,
    VesselTrack,
    filter_by_length,
    group_and_sort,
    parse_ais_csv,
)
from .manifest import RunManifest
from .nn.checkpoint import load_checkpoint
from .nn.model import RecurrentAutoencoder
from .nn.train import train as train_model
from .preprocess import (
    FEATURES,
    NormalizationStats,
    build_daily_grids,
    load_corpus,
    normalize_corpus,
    save_corpus,
)
from .sequence import (
    SequenceSet,
    SplitSpec,
    file_sha256,
    load_set,
    save_set,
    split as split_set,
    write_split_manifest,
)

TRACKS_FILE = "tracks.csv"
CORPUS_FILE = "corpus.f64"
CORPUS_INDEX = "corpus_index.csv"
STATS_FILE = "stats.txt"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single config key (repeatable)")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{f.name}", metavar="V", default=None,
                            help=argparse.SUPPRESS)


def _build_config(args) -> RunConfig:
    overrides = list(args.set)
    for f in fields(RunConfig):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            overrides.append(f"{f.name}={value}")
    return load_config(args.config, overrides)


def _run_dir(config: RunConfig) -> Path:
    path = Path(config.run_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seeds(config: RunConfig) -> dict[str, int]:
    # Documented stage seeds derived from the single run seed.
    return {"split": config.seed, "init": config.seed + 1, "train": config.seed + 2}


# ---------------------------------------------------------------------------
# Stage commands
# ---------------------------------------------------------------------------

def cmd_ingest(config: RunConfig) -> int:
    started = time.monotonic()
    paths = sorted(glob.glob(config.input_glob))
    if not paths:
        raise ConfigError(f"input glob matched no files: {config.input_glob!r}")

    records: list[AisRecord] = []
    report = IngestReport()
    for path in paths:
        file_records, file_report = parse_ais_csv(path, config.schema())
        records.extend(file_records)
        report.merge(file_report)

    vessels_before = {r.mmsi for r in records}
    kept = filter_by_length(records, config.min_length)
    vessels_after = {r.mmsi for r in kept}
    report.vessels_dropped_by_length = len(vessels_before - vessels_after)

    tracks = group_and_sort(kept, report)
    report.vessels_kept = len(tracks)

    run_dir = _run_dir(config)
    tracks_path = run_dir / TRACKS_FILE
    _save_tracks(tracks, tracks_path)
    (run_dir / "ingest_report.txt").write_text(report.to_text())
    (run_dir / "ingest_report.csv").write_text(report.to_csv_text())

    print(report.to_text(), end="")
    print(f"track rows kept: {sum(len(t) for t in tracks)}")
    RunManifest(run_dir).record_stage(
        "ingest", config.to_text(), __version__, paths,
        [tracks_path, run_dir / "ingest_report.txt", run_dir / "ingest_report.csv"],
        time.monotonic() - started)
    return 0


def _save_tracks(tracks: list[VesselTrack], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mmsi", "timestamp", "lat", "lon", "sog", "cog", "length"])
        for track in tracks:
            for r in track.records:
                writer.writerow([
                    r.mmsi, r.timestamp.strftime("%Y-%m-%dT%H:%M:%S"),
                    repr(r.lat), repr(r.lon), repr(r.sog), repr(r.cog),
                    "" if r.length is None else repr(r.length),
                ])


def _load_tracks(path: Path) -> list[VesselTrack]:
    if not path.exists():
        raise DataError(f"track store not found: {path} (run `ingest` first)")
    from datetime import timezone

    buckets: dict[str, list[AisRecord]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            record = AisRecord(
                mmsi=row[0],
                timestamp=datetime.strptime(row[1], "%Y-%m-%dT%H:%M:%S").replace(
                    tzinfo=timezone.utc),
                lat=float(row[2]), lon=float(row[3]), sog=float(row[4]),
                cog=float(row[5]), length=float(row[6]) if row[6] else None)
            buckets.setdefault(record.mmsi, []).append(record)
    return [VesselTrack(mmsi=m, records=tuple(buckets[m])) for m in sorted(buckets)]


def cmd_preprocess(config: RunConfig) -> int:
    started = time.monotonic()
    run_dir = _run_dir(config)
    tracks = _load_tracks(run_dir / TRACKS_FILE)

    grids, summary = build_daily_grids(
        tracks, config.tolerance_s, config.min_entries, config.max_fill)
    days, stats = normalize_corpus(
        grids, max_missing_fraction=config.max_missing_fraction, summary=summary)
    days.sort(key=lambda d: (d.mmsi, d.day))

    corpus_path = run_dir / CORPUS_FILE
    index_path = run_dir / CORPUS_INDEX
    stats_path = run_dir / STATS_FILE
    save_corpus(days, corpus_path, index_path)
    stats.save(stats_path)
    report_path = run_dir / "preprocess_report.txt"
    report_path.write_text(summary.to_text())

    print(summary.to_text(), end="")
    _print_missing_histogram(summary)
    RunManifest(run_dir).record_stage(
        "preprocess", config.to_text(), __version__, [run_dir / TRACKS_FILE],
        [corpus_path, index_path, stats_path, report_path],
        time.monotonic() - started)
    return 0


def _print_missing_histogram(summary) -> None:
    print("missing-fraction histogram (post-interpolation days):")
    for i, count in enumerate(summary.missing_histogram):
        bar = "#" * min(count, 60)
        print(f"  {i/10:.1f}-{(i+1)/10:.1f}: {count:6d} {bar}")


def cmd_split(config: RunConfig) -> int:
    started = time.monotonic()
    run_dir = _run_dir(config)
    tensor, ids = load_corpus(run_dir / CORPUS_FILE, run_dir / CORPUS_INDEX)
    sset = SequenceSet(tensor, tuple(ids))
    spec = SplitSpec(test_fraction=config.test_fraction,
                     val_fraction=config.val_fraction, seed=_seeds(config)["split"])
    train_s, val_s, test_s = split_set(sset, spec, by_vessel=config.split_by_vessel)

    outputs = []
    for name, subset in (("train", train_s), ("val", val_s), ("test", test_s)):
        tensor_path = run_dir / f"{name}.f64"
        index_path = run_dir / f"{name}_index.csv"
        save_set(subset, tensor_path, index_path)
        outputs += [tensor_path, index_path]
    manifest_path = run_dir / "split_manifest.txt"
    write_split_manifest(manifest_path, spec, file_sha256(run_dir / CORPUS_FILE),
                         {"train": len(train_s), "val": len(val_s), "test": len(test_s)},
                         config.split_by_vessel)
    outputs.append(manifest_path)

    print(f"split: train={len(train_s)} val={len(val_s)} test={len(test_s)} "
          f"seed={spec.seed}")
    RunManifest(run_dir).record_stage(
        "split", config.to_text(), __version__,
        [run_dir / CORPUS_FILE, run_dir / CORPUS_INDEX], outputs,
        time.monotonic() - started)
    return 0


def cmd_train(config: RunConfig) -> int:
    started = time.monotonic()
    run_dir = _run_dir(config)
    train_set = load_set(run_dir / "train.f64", run_dir / "train_index.csv")
    val_set = load_set(run_dir / "val.f64", run_dir / "val_index.csv")

    seeds = _seeds(config)
    model = RecurrentAutoencoder.initialize(config.model_config(), seeds["init"])
    checkpoint_dir = run_dir / "checkpoints"
    history = train_model(model, train_set.tensor, val_set.tensor,
                          epochs=config.epochs, batch_size=config.batch_size,
                          seed=seeds["train"], learning_rate=config.learning_rate,
                          checkpoint_dir=checkpoint_dir,
                          mask_sentinel_loss=config.mask_sentinel_loss)
    history_path = run_dir / "history.csv"
    history.to_csv(history_path)

    for stats in history.epochs:
        print(f"epoch {stats.epoch}: train_loss={stats.train_loss:.6g} "
              f"val_loss={stats.val_loss:.6g} ({stats.wall_seconds:.1f}s)")
    outputs = sorted(checkpoint_dir.glob("epoch_*.ckpt")) + [history_path]
    RunManifest(run_dir).record_stage(
        "train", config.to_text(), __version__,
        [run_dir / "train.f64", run_dir / "val.f64"], outputs,
        time.monotonic() - started,
        extra={"final_train_loss": history.final().train_loss,
               "final_val_loss": history.final().val_loss})
    return 0


def _latest_checkpoint(run_dir: Path) -> Path:
    checkpoints = sorted((run_dir / "checkpoints").glob("epoch_*.ckpt"))
    if not checkpoints:
        raise DataError(f"no checkpoints under {run_dir / 'checkpoints'} "
                        "(run `train` first)")
    return checkpoints[-1]


def cmd_score(config: RunConfig, checkpoint: str | None = None) -> int:
    started = time.monotonic()
    run_dir = _run_dir(config)
    stats_path = run_dir / STATS_FILE
    if not stats_path.exists():
        raise DataError(f"refusing to score without normalization stats: "
                        f"{stats_path} is missing")
    NormalizationStats.load(stats_path)  # fail fast on a corrupt file

    checkpoint_path = Path(checkpoint) if checkpoint else _latest_checkpoint(run_dir)
    model = load_checkpoint(checkpoint_path)
    test_set = load_set(run_dir / "test.f64", run_dir / "test_index.csv")
    if len(test_set) == 0:
        raise DataError("test set is empty; nothing to score")

    scores = detect.score_set(model, test_set, config.mask_sentinel_rmse)
    if config.threshold_scores == "train":
        train_subset = load_set(run_dir / "train.f64", run_dir / "train_index.csv")
        basis = detect.score_set(model, train_subset, config.mask_sentinel_rmse)
    else:
        basis = scores
    dist = detect.fit_distribution(basis, bins=config.histogram_bins)
    report = detect.flag_outliers(scores, dist, k=config.sigma_k)
    offenders = detect.offender_frequency(report, config.min_appearances)

    paths = {name: run_dir / f"{name}.csv"
             for name in ("scores", "histogram", "outliers", "offenders")}
    detect.write_scores_csv(paths["scores"], scores, config.mask_sentinel_rmse,
                            feature_names=FEATURES if config.per_feature_rmse else None)
    detect.write_histogram_csv(paths["histogram"], dist)
    detect.write_outliers_csv(paths["outliers"], report)
    detect.write_offenders_csv(paths["offenders"], offenders)

    print(f"scored {len(scores)} sequences from {checkpoint_path.name}")
    print(f"rmse mean={dist.mean:.6g} std={dist.std:.6g} "
          f"threshold(k={config.sigma_k:g})={report.threshold:.6g}")
    print(f"flagged {len(report.flagged)} vessel-days; "
          f"{len(offenders.persistent)} persistent offender MMSIs "
          f"(>= {config.min_appearances} flags)")
    RunManifest(run_dir).record_stage(
        "score", config.to_text(), __version__,
        [checkpoint_path, run_dir / "test.f64", stats_path],
        list(paths.values()), time.monotonic() - started,
        extra={"threshold": report.threshold, "flagged": len(report.flagged)})
    return 0


def _read_scores_csv(path: Path) -> dict[tuple[str, date], float]:
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            out[(row[0], date.fromisoformat(row[1]))] = float(row[2])
    return out


def cmd_export_geojson(config: RunConfig, mmsi: str | None, day: str | None,
                       output: str | None) -> int:
    started = time.monotonic()
    run_dir = _run_dir(config)
    stats = NormalizationStats.load(run_dir / STATS_FILE)
    test_set = load_set(run_dir / "test.f64", run_dir / "test_index.csv")
    scores_path = run_dir / "scores.csv"
    rmse_by_id = _read_scores_csv(scores_path) if scores_path.exists() else {}

    if mmsi or day:
        if not (mmsi and day):
            raise ConfigError("--mmsi and --day must be given together")
        selection = [(mmsi, date.fromisoformat(day))]
    else:
        outliers_path = run_dir / "outliers.csv"
        if not outliers_path.exists():
            raise DataError(f"no outlier report at {outliers_path}; "
                            "run `score` first or select --mmsi/--day")
        selection = []
        with open(outliers_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                selection.append((row[1], date.fromisoformat(row[2])))

    out_path = Path(output) if output else run_dir / "outliers.geojson"
    collection = export_days(out_path, selection, test_set.tensor,
                             list(test_set.ids), stats, rmse_by_id)
    print(f"wrote {len(collection['features'])} LineString feature(s) to {out_path}")
    RunManifest(run_dir).record_stage(
        "export-geojson", config.to_text(), __version__,
        [run_dir / "test.f64", run_dir / STATS_FILE], [out_path],
        time.monotonic() - started)
    return 0


def cmd_report(config: RunConfig) -> int:
    run_dir = Path(config.run_dir)
    manifest = RunManifest(run_dir)
    if not manifest.data["stages"]:
        raise DataError(f"no recorded stages under {run_dir}")
    print(f"run directory: {run_dir}")
    for name, entry in manifest.data["stages"].items():
        outputs = ", ".join(Path(p).name for p in entry["outputs"])
        print(f"  {name}: {entry['wall_seconds']}s -> {outputs}")
    for report_file in ("ingest_report.txt", "preprocess_report.txt"):
        path = run_dir / report_file
        if path.exists():
            print(f"\n== {report_file} ==")
            print(path.read_text(), end="")
    outliers_path = run_dir / "outliers.csv"
    if outliers_path.exists():
        lines = outliers_path.read_text().splitlines()
        print(f"\n== outliers ({len(lines) - 1} flagged) ==")
        for line in lines[:11]:
            print(f"  {line}")
    offenders_path = run_dir / "offenders.csv"
    if offenders_path.exists():
        persistent = [l for l in offenders_path.read_text().splitlines()[1:]
                      if l.endswith(",1")]
        print(f"\npersistent offenders: {len(persistent)}")
        for line in persistent[:10]:
            print(f"  {line}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ais-outliers",
                     description="AIS vessel-day outlier detection pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("ingest", "preprocess", "split", "train", "score", "report"):
        p = sub.add_parser(name)
        _add_config_flags(p)
        if name == "score":
            p.add_argument("--checkpoint", help="score a specific checkpoint file")

    p = sub.add_parser("export-geojson")
    _add_config_flags(p)
    p.add_argument("--mmsi", help="select one vessel (requires --day)")
    p.add_argument("--day", help="select one UTC day, YYYY-MM-DD")
    p.add_argument("--output", help="output path (default: <run_dir>/outliers.geojson)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.print_config:
            print(config.to_text(), end="")
            return 0
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "preprocess":
            return cmd_preprocess(config)
        if args.command == "split":
            return cmd_split(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "score":
            return cmd_score(config, args.checkpoint)
        if args.command == "export-geojson":
            return cmd_export_geojson(config, args.mmsi, args.day, args.output)
        if args.command == "report":
            return cmd_report(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
