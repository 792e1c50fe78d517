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
import os
import sys
import time
from dataclasses import fields
from datetime import date
from pathlib import Path

from . import __version__, detect
from .atomic import atomic_write
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, NumericError, utf8_text
from .geojson import export_days
from .ingest import TrackReader, ingest_files
from .manifest import RunManifest, peak_rss_mb
from .nn.checkpoint import load_checkpoint
from .nn.model import RecurrentAutoencoder
from .nn.train import train as train_model
from .preprocess import (
    NormalizationStats,
    build_daily_grids,
    load_corpus,
    normalize_corpus,
    save_corpus,
)
from .sequence import (
    SequenceSet,
    SplitSpec,
    load_set,
    save_set,
    split as split_set,
)

TRACKS_FILE = "tracks.npy"
# Sorted per-file runs that ingest merges into TRACKS_FILE; only ingest
# reads it, and it is removed when ingest ends.
SPILL_DIR = ".ingest_spill"
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


def _set_paths(run_dir: Path, name: str) -> list[Path]:
    """The tensor and the id sidecar that `split` writes for one subset."""
    return [run_dir / f"{name}.f64", run_dir / f"{name}_index.csv"]


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

    run_dir = _run_dir(config)
    tracks_path = run_dir / TRACKS_FILE
    report, counts = ingest_files(paths, tracks_path, run_dir / SPILL_DIR,
                                  config.schema(), config.min_length)
    with atomic_write(run_dir / "ingest_report.txt", "w") as fh:
        fh.write(report.to_text())

    RunManifest(run_dir).record_stage(
        "ingest", config.to_text(), __version__, paths,
        [tracks_path, run_dir / "ingest_report.txt"],
        time.monotonic() - started,
        extra={"files": len(paths), "rows_read": report.rows_read, **counts,
               "peak_rss_mb": peak_rss_mb()})
    print(report.to_text(), end="")
    print(f"track rows kept: {counts['rows_kept']}")
    return 0


def cmd_preprocess(config: RunConfig) -> int:
    started = time.monotonic()
    run_dir = _run_dir(config)
    tracks = TrackReader(run_dir / TRACKS_FILE)
    grids, summary = build_daily_grids(
        tracks, config.tolerance_s, config.min_entries, config.max_fill)
    tensor, ids, stats = normalize_corpus(grids, config.max_missing_fraction, summary)

    corpus_path = run_dir / CORPUS_FILE
    index_path = run_dir / CORPUS_INDEX
    stats_path = run_dir / STATS_FILE
    save_corpus(tensor, ids, corpus_path, index_path)
    stats.save(stats_path)
    report_path = run_dir / "preprocess_report.txt"
    with atomic_write(report_path, "w") as fh:
        fh.write(summary.to_text())

    RunManifest(run_dir).record_stage(
        "preprocess", config.to_text(), __version__, [run_dir / TRACKS_FILE],
        [corpus_path, index_path, stats_path, report_path],
        time.monotonic() - started,
        extra={"rows": tracks.rows, "vessels": tracks.vessels, "chunks": tracks.chunks,
               "days_total": summary.days_total, "days_kept": summary.days_kept,
               "peak_rss_mb": peak_rss_mb()})
    print(summary.to_text(), end="")
    _print_missing_histogram(summary)
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
        paths = _set_paths(run_dir, name)
        save_set(subset, *paths)
        outputs += paths

    RunManifest(run_dir).record_stage(
        "split", config.to_text(), __version__,
        [run_dir / CORPUS_FILE, run_dir / CORPUS_INDEX], outputs,
        time.monotonic() - started,
        extra={"n_train": len(train_s), "n_val": len(val_s), "n_test": len(test_s)})
    print(f"split: train={len(train_s)} val={len(val_s)} test={len(test_s)} "
          f"seed={spec.seed}")
    return 0


def cmd_train(config: RunConfig) -> int:
    started = time.monotonic()
    run_dir = _run_dir(config)
    train_paths, val_paths = _set_paths(run_dir, "train"), _set_paths(run_dir, "val")
    train_set = load_set(*train_paths)
    val_set = load_set(*val_paths)

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

    outputs = sorted(checkpoint_dir.glob("epoch_*.ckpt")) + [history_path]
    RunManifest(run_dir).record_stage(
        "train", config.to_text(), __version__,
        train_paths + val_paths, outputs,
        time.monotonic() - started,
        extra={"final_train_loss": history.final().train_loss,
               "final_val_loss": history.final().val_loss})
    for stats in history.epochs:
        print(f"epoch {stats.epoch}: train_loss={stats.train_loss:.6g} "
              f"val_loss={stats.val_loss:.6g} ({stats.wall_seconds:.1f}s)")
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
    test_paths = _set_paths(run_dir, "test")
    test_set = load_set(*test_paths)
    if len(test_set) == 0:
        raise DataError("test set is empty; nothing to score")

    rmse, feature_rmse = detect.score_set(model, test_set, config.mask_sentinel_rmse)
    inputs = [checkpoint_path, *test_paths, stats_path]
    basis = rmse
    if config.threshold_scores == "train":
        train_paths = _set_paths(run_dir, "train")
        basis, _ = detect.score_set(model, load_set(*train_paths), config.mask_sentinel_rmse)
        inputs += train_paths
    dist = detect.fit_distribution(basis, bins=config.histogram_bins)
    report = detect.flag_outliers(rmse, test_set.ids, dist, k=config.sigma_k)
    offenders = detect.offender_frequency(report, test_set.ids, config.min_appearances)

    paths = {name: run_dir / f"{name}.csv"
             for name in ("scores", "histogram", "outliers", "offenders")}
    detect.write_scores_csv(paths["scores"], test_set.ids, rmse, config.mask_sentinel_rmse,
                            feature_rmse if config.per_feature_rmse else None)
    detect.write_histogram_csv(paths["histogram"], dist)
    detect.write_outliers_csv(paths["outliers"], report, test_set.ids, rmse)
    detect.write_offenders_csv(paths["offenders"], offenders)

    RunManifest(run_dir).record_stage(
        "score", config.to_text(), __version__, inputs,
        list(paths.values()), time.monotonic() - started,
        extra={"threshold": report.threshold, "flagged": len(report.flagged)})
    print(f"scored {len(rmse)} sequences from {checkpoint_path.name}")
    print(f"rmse mean={dist.mean:.6g} std={dist.std:.6g} "
          f"threshold(k={config.sigma_k:g})={report.threshold:.6g}")
    print(f"flagged {len(report.flagged)} vessel-days; "
          f"{offenders.persistent.sum()} persistent offender MMSIs "
          f"(>= {config.min_appearances} flags)")
    return 0


def _read_csv_rows(path: Path, parse, expected: str) -> list:
    """`parse` each row after the header; a row it cannot read is a DataError."""
    out = []
    with utf8_text(path), open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            try:
                out.append(parse(row))
            except (IndexError, ValueError):
                raise DataError(f"{path} line {reader.line_num}: expected {expected}, "
                                f"got {row}") from None
    return out


def cmd_export_geojson(config: RunConfig, mmsi: str | None, day: str | None,
                       output: str | None) -> int:
    started = time.monotonic()
    if mmsi or day:
        if not (mmsi and day):
            raise ConfigError("--mmsi and --day must be given together")
        try:
            selection = [(mmsi, date.fromisoformat(day))]
        except ValueError:
            raise ConfigError(f"--day must be a date as YYYY-MM-DD, got {day!r}") from None
    run_dir = _run_dir(config)
    stats = NormalizationStats.load(run_dir / STATS_FILE)
    test_paths = _set_paths(run_dir, "test")
    test_set = load_set(*test_paths)
    inputs = [*test_paths, run_dir / STATS_FILE]
    scores_path = run_dir / "scores.csv"
    rmse_by_id = {}
    if scores_path.exists():
        rmse_by_id = dict(_read_csv_rows(
            scores_path, lambda row: ((row[0], date.fromisoformat(row[1])), float(row[2])),
            "mmsi,day,rmse"))
        inputs.append(scores_path)

    if not (mmsi or day):
        outliers_path = run_dir / "outliers.csv"
        if not outliers_path.exists():
            raise DataError(f"no outlier report at {outliers_path}; "
                            "run `score` first or select --mmsi/--day")
        selection = _read_csv_rows(
            outliers_path, lambda row: (row[1], date.fromisoformat(row[2])),
            "rank,mmsi,day,...")
        inputs.append(outliers_path)

    out_path = Path(output) if output else run_dir / "outliers.geojson"
    collection = export_days(out_path, selection, test_set.tensor,
                             list(test_set.ids), stats, rmse_by_id)
    RunManifest(run_dir).record_stage(
        "export-geojson", config.to_text(), __version__, inputs, [out_path],
        time.monotonic() - started)
    print(f"wrote {len(collection['features'])} LineString feature(s) to {out_path}")
    return 0


def _read_text(path: Path) -> str:
    with utf8_text(path):
        return path.read_text(encoding="utf-8")


def cmd_report(config: RunConfig) -> int:
    run_dir = Path(config.run_dir)
    manifest = RunManifest(run_dir)
    if not manifest.data["stages"]:
        raise DataError(f"no recorded stages under {run_dir}")
    print(f"run directory: {run_dir}")
    for name, entry in manifest.data["stages"].items():
        try:
            outputs = ", ".join(Path(p).name for p in entry["outputs"])
            print(f"  {name}: {entry['wall_seconds']}s -> {outputs}")
        except (KeyError, TypeError):
            raise DataError(f"{manifest.path}: stage {name!r} needs 'wall_seconds' "
                            f"and an 'outputs' object of files") from None
    for report_file in ("ingest_report.txt", "preprocess_report.txt"):
        path = run_dir / report_file
        if path.exists():
            print(f"\n== {report_file} ==")
            print(_read_text(path), end="")
    outliers_path = run_dir / "outliers.csv"
    if outliers_path.exists():
        lines = _read_text(outliers_path).splitlines()
        print(f"\n== outliers ({len(lines) - 1} flagged) ==")
        for line in lines[:11]:
            print(f"  {line}")
    offenders_path = run_dir / "offenders.csv"
    if offenders_path.exists():
        persistent = [l for l in _read_text(offenders_path).splitlines()[1:]
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
    commands = {"ingest": cmd_ingest, "preprocess": cmd_preprocess, "split": cmd_split,
                "train": cmd_train, "report": cmd_report,
                "score": lambda config: cmd_score(config, args.checkpoint),
                "export-geojson": lambda config: cmd_export_geojson(
                    config, args.mmsi, args.day, args.output)}
    try:
        config = _build_config(args)
        if args.print_config:
            print(config.to_text(), end="")
            code = 0
        else:
            code = commands[args.command](config)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader left (`| head`) after the stage recorded
        sys.stdout = open(os.devnull, "w")  # so the final flush at exit cannot fail
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
