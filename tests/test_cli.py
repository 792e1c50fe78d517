import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from ais_outliers.cli import SPILL_DIR, _latest_checkpoint, main
from ais_outliers.config import load_config
from ais_outliers.errors import ConfigError
from ais_outliers.ingest import TRACK_DTYPE, group_and_sort
from ais_outliers.manifest import RunManifest, file_sha256
from ais_outliers.nn.checkpoint import MAGIC, save_checkpoint
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder
from ais_outliers.preprocess import IDS_DTYPE, NormalizationStats, save_corpus
from ais_outliers.tracks import INDEX_DTYPE, STORE_DTYPE, TrackReader, pack, save_tracks

from conftest import make_record, make_table, utc, vessels
from oracles import STORE_HEADER, rewrite_track_store
from synthetic import generate_days, write_ais_csv


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    # Three daily files, MarineCadastre style: one merged track store expected.
    path = tmp_path_factory.mktemp("csv")
    days = generate_days(60, anomaly_fraction=0.05, seed=404, days_per_vessel=6)
    for i in range(3):
        write_ais_csv(days[i * 20:(i + 1) * 20], path / f"ais_2019_day{i}.csv")
    return path


def run_args(corpus_dir, run_dir, *extra):
    return list(extra) + [
        "--input-glob", str(corpus_dir / "*.csv"),
        "--run-dir", str(run_dir),
        "--hidden", "6", "--epochs", "1", "--batch-size", "16",
        "--histogram-bins", "10", "--seed", "7",
    ]


def test_config_precedence(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("hidden=20\nepochs=3\n# comment\n")
    config = load_config(config_file, ["epochs=9"])
    assert config.hidden == 20
    assert config.epochs == 9  # override wins


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown configuration key"):
        load_config(None, ["not_a_key=1"])


def test_non_utf8_config_file_is_one_line_config_error(tmp_path, capsys):
    config_file = tmp_path / "run.cfg"
    config_file.write_bytes(b"hidden=\xff\n")
    with pytest.raises(ConfigError, match="run.cfg.*UTF-8"):
        load_config(config_file)
    assert main(["ingest", "--config", str(config_file), "--print-config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "run.cfg" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("key, message", [
    ("dtype=float32", "unknown configuration key"),
    ("deterministic=true", "unknown configuration key"),
    ("gru_convention=z_gates_state", "unknown configuration key"),
    ("learning_rate=-1", "learning_rate must be finite and > 0"),
    ("learning_rate=nan", "learning_rate must be finite and > 0"),
    ("sigma_k=nan", "sigma_k must be > 0"),
    ("min_length=nan", "min_length must be >= 0"),
    ("histogram_bins=0", "histogram_bins must be >= 1"),
    ("min_appearances=0", "min_appearances must be >= 1"),
    ("tolerance_s=-1", "tolerance_s must be >= 0"),
    ("min_entries=-1", "min_entries must be in [0, 48]"),
    ("min_entries=49", "min_entries must be in [0, 48]"),
    ("max_fill=-1", "max_fill must be >= 0"),
    ("test_fraction=1.5", "test_fraction must be in (0, 1)"),
    ("test_fraction=0", "test_fraction must be in (0, 1)"),
    ("val_fraction=1", "val_fraction must be in (0, 1)"),
    ("val_fraction=-0.2", "val_fraction must be in (0, 1)"),
])
def test_rejected_config_is_one_line_config_error(tmp_path, capsys, key, message):
    # Rejected before any artifact is read: the run directory does not exist.
    config_file = tmp_path / "run.cfg"
    config_file.write_text(key + "\n")
    assert main(["score", "--config", str(config_file),
                 "--run-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_print_config(capsys):
    assert main(["ingest", "--print-config", "--hidden", "11"]) == 0
    out = capsys.readouterr().out
    assert "hidden=11" in out
    assert "cell_kind=gru" in out


def test_empty_glob_is_usage_error(tmp_path, capsys):
    code = main(["ingest", "--input-glob", str(tmp_path / "none*.csv"),
                 "--run-dir", str(tmp_path / "run")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_score_without_stats_refused(tmp_path, capsys):
    (tmp_path / "run").mkdir()
    code = main(["score", "--run-dir", str(tmp_path / "run")])
    assert code == 2
    assert "stats" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["preprocess", "split", "train", "score",
                                     "export-geojson"])
def test_stage_after_ingest_leaves_a_missing_run_dir_missing(tmp_path, capsys, command):
    run_dir = tmp_path / "no" / "run"
    assert main([command, "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "not found" in err and err.count("\n") == 1
    assert not (tmp_path / "no").exists()


@pytest.fixture(scope="module")
def scored_run(tmp_path_factory, corpus_dir):
    """A run directory that every stage up to `score` has run in."""
    run_dir = tmp_path_factory.mktemp("scored") / "run"
    for command in ("ingest", "preprocess", "split", "train", "score"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    return run_dir


def test_failed_atomic_write_names_the_file_asked_for(tmp_path, corpus_dir, scored_run, capsys):
    out = tmp_path / "no" / "such" / "x.geojson"
    assert main(run_args(corpus_dir, scored_run, "export-geojson", "--output", str(out))) == 2
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not (tmp_path / "no").exists()


def test_failed_rename_names_the_artifact_not_its_temporary_file(tmp_path, corpus_dir,
                                                                 scored_run, capsys):
    out = tmp_path / "x.geojson"
    out.mkdir()  # the rename over it fails
    assert main(run_args(corpus_dir, scored_run, "export-geojson", "--output", str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.endswith(f": {str(out)!r}\n"), err
    assert ".tmp" not in err and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["x.geojson"] and not any(out.iterdir())


def test_multi_file_ingest_merges_tracks(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    chunks = list(TrackReader(run_dir / "tracks.bin"))
    assert all(run.records.dtype == STORE_DTYPE for run in chunks)
    # One store, ordered by MMSI then time.
    tracks = list(vessels(chunks))
    assert [mmsi for mmsi, _ in tracks] == sorted({mmsi for mmsi, _ in tracks})
    assert all((np.diff(records["t"]) > 0).all() for _, records in tracks)
    assert len(tracks) == 10  # 60 days / 6 per vessel


def test_ingest_leaves_only_its_artifacts(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == \
        ["ingest_report.txt", "manifest.json", "tracks.bin"]


def test_ingest_failing_partway_removes_its_spill(tmp_path, corpus_dir, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for path in sorted(corpus_dir.glob("*.csv")):
        (inputs / path.name).write_bytes(path.read_bytes())
    (inputs / "ais_2019_day2.csv").write_bytes(b"MMSI,BaseDateTime\n\xff\n")
    run_dir = tmp_path / "run"
    assert main(run_args(inputs, run_dir, "ingest")) == 2
    assert "unreadable AIS stream" in capsys.readouterr().err
    assert list(run_dir.iterdir()) == []


def test_spill_left_by_a_killed_ingest_is_ignored_then_removed(tmp_path, corpus_dir):
    clean, run_dir = tmp_path / "clean", tmp_path / "run"
    for command in ("ingest", "preprocess"):
        assert main(run_args(corpus_dir, clean, command)) == 0
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    stale = run_dir / SPILL_DIR
    stale.mkdir()
    # A killed ingest leaves runs behind; these would change the corpus if read.
    (stale / "000000.run").write_bytes(np.zeros(5, TRACK_DTYPE).tobytes())
    (stale / "tracks.bin").write_bytes((run_dir / "tracks.bin").read_bytes()[:-56])
    assert main(run_args(corpus_dir, run_dir, "preprocess")) == 0
    for artifact in ("corpus.f64", "corpus_index.csv", "stats.txt", "preprocess_report.txt"):
        assert (run_dir / artifact).read_bytes() == (clean / artifact).read_bytes(), artifact
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    assert not stale.exists()
    assert (run_dir / "tracks.bin").read_bytes() == (clean / "tracks.bin").read_bytes()


def test_ingest_and_preprocess_record_counts_and_peak_rss(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    rows = sum(len(run.records) for run in TrackReader(run_dir / "tracks.bin"))
    ingest, preprocess = stages["ingest"]["extra"], stages["preprocess"]["extra"]
    assert ingest["files"] == 3 and ingest["rows_kept"] == rows
    assert ingest["vessels_kept"] == preprocess["vessels"] == 10
    assert ingest["rows_read"] >= rows and ingest["merge_batches"] >= 1
    # The synthetic corpus's values pack, and their second differences,
    # zigzagged in byte planes, deflate to 6.83 bytes a row of 24.
    assert ingest["store_bytes_per_row"] < 7.5
    assert ingest["store_bytes_per_row"] == \
        round((run_dir / "tracks.bin").stat().st_size / rows, 2)
    assert preprocess["rows"] == rows and preprocess["chunks"] >= 1
    assert preprocess["days_kept"] == \
        len((run_dir / "corpus_index.csv").read_text().splitlines()) - 1
    assert ingest["peak_rss_mb"] > 0 and preprocess["peak_rss_mb"] > 0


def test_leading_zero_mmsi_survives_ingest_and_preprocess(tmp_path):
    # The store holds MMSI as an integer; the 9-digit string is rebuilt.
    rows = [f"012345678,2019-03-06T{i // 2:02d}:{30 * (i % 2):02d}:00,"
            f"{30 + 0.01 * i!r},{-80 - 0.01 * i!r},{5 + 0.1 * i!r},{float(i)!r},100.0"
            for i in range(48)]
    csv_path = tmp_path / "ais.csv"
    csv_path.write_text("MMSI,BaseDateTime,LAT,LON,SOG,COG,Length\n" + "\n".join(rows) + "\n")
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess"):
        assert main([command, "--input-glob", str(csv_path), "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "corpus_index.csv").read_text().splitlines()[1:] == \
        ["0,012345678,2019-03-06"]


def test_corpus_index_in_mmsi_then_day_order(tmp_path):
    # Several vessels over several days, written newest day and highest
    # MMSI first; the corpus rows come out in (MMSI, day) order.
    days = generate_days(12, anomaly_fraction=0.0, seed=405, days_per_vessel=3)
    csv_path = tmp_path / "ais.csv"
    write_ais_csv(days[::-1], csv_path)
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess"):
        assert main([command, "--input-glob", str(csv_path), "--run-dir", str(run_dir)]) == 0
    rows = [line.split(",") for line in
            (run_dir / "corpus_index.csv").read_text().splitlines()[1:]]
    ids = [(mmsi, day) for _, mmsi, day in rows]
    assert len({mmsi for mmsi, _ in ids}) == 4 and len(ids) == 12
    assert ids == sorted(ids)


def test_full_pipeline(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split", "train", "score",
                    "export-geojson", "report"):
        code = main(run_args(corpus_dir, run_dir, command))
        assert code == 0, f"{command} failed"

    for artifact in ("tracks.bin", "ingest_report.txt", "corpus.f64",
                     "corpus_index.csv", "stats.txt", "train.f64", "val.f64",
                     "test.f64", "history.csv",
                     "scores.csv", "histogram.csv", "outliers.csv",
                     "offenders.csv", "outliers.geojson", "manifest.json"):
        assert (run_dir / artifact).exists(), artifact
    assert (run_dir / "checkpoints" / "epoch_001.ckpt").exists()

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"ingest", "preprocess", "split", "train",
                                       "score", "export-geojson"}
    for entry in manifest["stages"].values():
        for path, digest in entry["outputs"].items():
            assert (run_dir / path).exists()
            assert len(digest) == 64
        assert entry["extra"]["peak_rss_mb"] > 0
    split = manifest["stages"]["split"]["extra"]
    assert split["n_train"] + split["n_val"] + split["n_test"] == \
        len((run_dir / "corpus_index.csv").read_text().splitlines()) - 1
    assert split["n_test"] == len((run_dir / "test_index.csv").read_text().splitlines()) - 1

    # `report` lists the stages in pipeline order, then any it does not know.
    manifest["stages"]["audit"] = manifest["stages"]["ingest"]
    (run_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    listed = [line.split(":")[0].strip() for line in out.splitlines()
              if line.startswith("  ") and "s -> " in line]
    assert listed == ["ingest", "preprocess", "split", "train", "score", "export-geojson",
                      "audit"]
    bytes_per_row = manifest["stages"]["ingest"]["extra"]["store_bytes_per_row"]
    assert f"    track store: {bytes_per_row} bytes per row\n" in out
    # Each stage line ends with the stage's recorded peak RSS.
    for name, entry in manifest["stages"].items():
        assert [line for line in out.splitlines() if line.startswith(f"  {name}: ")
                and line.endswith(f" (peak RSS {entry['extra']['peak_rss_mb']} MB)")], name


class _ClosedPipe:
    """A stdout whose reader has gone, as in `ais-outliers preprocess | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_stage_is_recorded_before_it_prints(tmp_path, corpus_dir, monkeypatch):
    run_dir = tmp_path / "run"
    stages = ("ingest", "preprocess", "split", "train", "score", "export-geojson")
    for done, command in enumerate(stages, start=1):
        monkeypatch.setattr("sys.stdout", _ClosedPipe())
        assert main(run_args(corpus_dir, run_dir, command)) == 0, command
        recorded = json.loads((run_dir / "manifest.json").read_text())["stages"]
        assert set(recorded) == set(stages[:done]), command


@pytest.mark.parametrize("report_lines", [1, 20000])  # inside and beyond one buffer
def test_report_into_a_closed_pipe_exits_0_silently(tmp_path, report_lines):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    RunManifest(run_dir).record_stage("ingest", "", "0", [], [], 0.0)
    (run_dir / "ingest_report.txt").write_text("rows kept: 1\n" * report_lines)
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "ais_outliers.cli", "report",
                               "--run-dir", str(run_dir)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_manifest_inputs_name_every_file_a_stage_reads(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split", "train", "score", "export-geojson"):
        assert main(run_args(corpus_dir, run_dir, command,
                             "--threshold-scores", "train")) == 0
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    inputs = {name: sorted(Path(p).name for p in entry["inputs"])
              for name, entry in stages.items()}
    assert inputs == {
        "ingest": ["ais_2019_day0.csv", "ais_2019_day1.csv", "ais_2019_day2.csv"],
        "preprocess": ["tracks.bin"],
        "split": ["corpus.f64", "corpus_index.csv"],
        "train": ["train.f64", "train_index.csv", "val.f64", "val_index.csv"],
        "score": ["epoch_001.ckpt", "stats.txt", "test.f64", "test_index.csv",
                  "train.f64", "train_index.csv"],
        "export-geojson": ["outliers.csv", "scores.csv", "stats.txt", "test.f64",
                           "test_index.csv"],
    }


def test_retrain_removes_the_earlier_models_checkpoints(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    for epochs, hidden in (("3", "4"), ("1", "5")):
        assert main(run_args(corpus_dir, run_dir, "train")
                    + ["--epochs", epochs, "--hidden", hidden]) == 0
    checkpoint = run_dir / "checkpoints" / "epoch_001.ckpt"
    assert list((run_dir / "checkpoints").iterdir()) == [checkpoint]
    capsys.readouterr()
    assert main(run_args(corpus_dir, run_dir, "score") + ["--hidden", "5"]) == 0
    assert f"from {checkpoint.name}" in capsys.readouterr().out
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    assert [Path(p).name for p in stages["train"]["outputs"]] == \
        ["epoch_001.ckpt", "history.csv"]
    assert "checkpoints/epoch_001.ckpt" in stages["score"]["inputs"]


def test_default_checkpoint_is_the_highest_epoch_past_999(tmp_path):
    checkpoints = tmp_path / "checkpoints"
    checkpoints.mkdir()
    for name in ("epoch_999.ckpt", "epoch_1000.ckpt", "epoch_x.ckpt"):
        (checkpoints / name).touch()
    assert _latest_checkpoint(tmp_path).name == "epoch_1000.ckpt"


def test_manifest_paths_resolve_against_the_run_directory(tmp_path, corpus_dir,
                                                          monkeypatch):
    # Stages run from one directory with a relative run directory and input
    # glob; the manifest is then read from another directory.
    (tmp_path / "here").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    relative_glob = os.path.relpath(corpus_dir / "*.csv")
    for command in ("ingest", "preprocess", "split", "train", "score", "export-geojson"):
        assert main(run_args(corpus_dir, "run", command)
                    + ["--input-glob", relative_glob]) == 0
    monkeypatch.chdir(tmp_path / "elsewhere")
    run_dir = tmp_path / "here" / "run"
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    for name, entry in stages.items():
        for path, digest in {**entry["inputs"], **entry["outputs"]}.items():
            assert file_sha256(run_dir / path) == digest, (name, path)
            assert Path(path).is_absolute() == (name == "ingest" and path.endswith(".csv"))
    assert sorted(Path(p).parent for p in stages["ingest"]["inputs"]) == [corpus_dir] * 3
    assert "checkpoints/epoch_001.ckpt" in stages["train"]["outputs"]


def test_rerun_drops_the_entries_of_later_stages(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    stages = ("ingest", "preprocess", "split", "train", "score", "export-geojson")
    for command in stages:
        assert main(run_args(corpus_dir, run_dir, command) + ["--epochs", "5"]) == 0
    assert main(run_args(corpus_dir, run_dir, "train")) == 0  # one epoch now
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    listed = [line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()
              if line.startswith("  ") and " -> " in line]
    assert sorted(listed) == sorted(stages[:4])
    recorded = json.loads((run_dir / "manifest.json").read_text())["stages"]
    named = [path for entry in recorded.values()
             for path in (*entry["inputs"], *entry["outputs"])]
    assert "checkpoints/epoch_001.ckpt" in named
    assert all((run_dir / path).exists() for path in named)

    for command in ("score", "export-geojson", "score"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    recorded = json.loads((run_dir / "manifest.json").read_text())["stages"]
    assert sorted(recorded) == sorted(stages[:5])


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_undefined_loss_is_null_in_the_manifest(tmp_path):
    # Five vessel-days leave no validation set, so the validation loss is NaN.
    csv_path = tmp_path / "ais.csv"
    write_ais_csv(generate_days(5, anomaly_fraction=0.0, seed=3, days_per_vessel=1), csv_path)
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split", "train"):
        assert main([command, "--input-glob", str(csv_path), "--run-dir", str(run_dir),
                     "--hidden", "4", "--epochs", "1"]) == 0
    stages = _strict_json((run_dir / "manifest.json").read_text())["stages"]
    assert stages["split"]["extra"]["n_val"] == 0
    assert stages["train"]["extra"]["final_val_loss"] is None
    assert stages["train"]["extra"]["final_train_loss"] > 0


def test_bare_nan_left_in_a_manifest_is_rewritten_as_null(tmp_path):
    (tmp_path / "manifest.json").write_text(
        '{"stages": {"train": {"extra": {"final_val_loss": NaN}}}}')
    RunManifest(tmp_path).record_stage("score", "", "0", [], [], 0.0,
                                       extra={"loss": float("inf")})
    stages = _strict_json((tmp_path / "manifest.json").read_text())["stages"]
    assert stages["train"]["extra"]["final_val_loss"] is None
    assert stages["score"]["extra"]["loss"] is None


@pytest.mark.parametrize("size", [0, 1, 4095, 1 << 16, 3 << 16, (3 << 16) + 7])
def test_file_sha256_matches_hashlib(tmp_path, size):
    # Sizes around the 64 KiB read buffer: empty, smaller, exact multiples, larger.
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes())
    assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_ingest_rerun_is_deterministic(tmp_path, corpus_dir):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(run_args(corpus_dir, run_a, "ingest")) == 0
    assert main(run_args(corpus_dir, run_b, "ingest")) == 0
    assert (run_a / "tracks.bin").read_bytes() == (run_b / "tracks.bin").read_bytes()
    assert (run_a / "ingest_report.txt").read_bytes() == \
        (run_b / "ingest_report.txt").read_bytes()


def test_sigma_k_flag_lands_in_outliers_csv(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split", "train"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    assert main(run_args(corpus_dir, run_dir, "score", "--sigma-k", "1.5")) == 0
    lines = (run_dir / "outliers.csv").read_text().splitlines()
    assert lines[0].endswith(",k")
    if len(lines) > 1:  # every flagged row carries the overridden k
        assert lines[1].endswith(",1.5")


def test_geojson_single_selection_unknown_day(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split", "train", "score"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    code = main(run_args(corpus_dir, run_dir, "export-geojson")
                + ["--mmsi", "999999999", "--day", "2019-03-06"])
    assert code == 2

    # A known test-set member exports cleanly.
    index_line = (run_dir / "test_index.csv").read_text().splitlines()[1]
    _, mmsi, day = index_line.split(",")
    out = tmp_path / "one.geojson"
    code = main(run_args(corpus_dir, run_dir, "export-geojson")
                + ["--mmsi", mmsi, "--day", day, "--output", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["features"][0]["properties"]["mmsi"] == mmsi


@pytest.mark.parametrize("selection", [["--mmsi", "123456789", "--day", "2019-13-01"],
                                       ["--mmsi", "123456789", "--day", "tomorrow"],
                                       ["--mmsi", "123456789"],
                                       ["--mmsi", "12345", "--day", "2019-03-06"],
                                       ["--mmsi", "123456789", "--day", "20190306"]])
def test_bad_geojson_selection_is_one_line_config_error(tmp_path, capsys, selection):
    code = main(["export-geojson", "--run-dir", str(tmp_path / "run")] + selection)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_per_feature_rmse_columns(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split", "train"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    assert main(run_args(corpus_dir, run_dir, "score",
                         "--per-feature-rmse", "true")) == 0
    header = (run_dir / "scores.csv").read_text().splitlines()[0]
    assert header == "mmsi,day,rmse,rmse_lat,rmse_lon,rmse_sog,rmse_cog"


def test_usage_error_exit_code_is_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1


# Runs the CLI the way LAUNCH does, in a fresh interpreter, and writes the
# collector's frozen-object count to OUT at exit.
FREEZE_PROBE = """
import atexit, gc, importlib, runpy, sys
out, launch = sys.argv.pop(1), sys.argv.pop(1)

@atexit.register
def dump():
    with open(out, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

if launch == "-m":
    runpy.run_module("ais_outliers.cli", run_name="__main__", alter_sys=True)
else:  # what the generated console script does with "module:function"
    module, function = launch.split(":")
    sys.exit(getattr(importlib.import_module(module), function)())
"""


def _console_script() -> str:
    """pyproject.toml's `[project.scripts]` entry for `ais-outliers`, read
    as text: `tomllib` is Python 3.11's, and the floor is 3.10."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    table = pyproject.read_text().split("\n[project.scripts]\n")[1].split("\n[")[0]
    return re.search(r'^ais-outliers\s*=\s*"([^"]+)"$', table, re.M).group(1)


@pytest.mark.parametrize("launch", ["-m", "console-script"])
@pytest.mark.parametrize("args, code", [
    (["ingest", "--print-config"], 0),
    (["train", "--set", "hidden=abc"], 1),
])
def test_both_launches_freeze_the_collector_before_exit(tmp_path, launch, args, code):
    out = tmp_path / "frozen.txt"
    target = launch if launch == "-m" else _console_script()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", FREEZE_PROBE, str(out), target, *args],
                          capture_output=True, text=True, env=env)
    assert done.returncode == code, done.stderr
    assert int(out.read_text()) > 0


@pytest.mark.parametrize("command, damage", [
    ("score", "truncated_checkpoint"),
    ("score", "checkpoint_trailing_bytes"),
    ("export-geojson", "short_index_row"),
    ("score", "damaged_stats"),
    ("score", "stats_lon_max_inf"),
    ("export-geojson", "stats_lon_max_inf"),
    ("score", "stats_lat_min_nan"),
    ("export-geojson", "stats_lat_min_nan"),
    ("export-geojson", "short_scores_row"),
    ("export-geojson", "short_outliers_row"),
    ("preprocess", "truncated_tracks"),
    ("preprocess", "tracks_not_a_store"),
    ("preprocess", "tracks_other_dtype"),
    ("preprocess", "tracks_counts_short_of_rows"),
    ("preprocess", "tracks_mmsi_out_of_order"),
    ("preprocess", "tracks_zero_count"),
    ("preprocess", "tracks_index_cut"),
    ("preprocess", "tracks_without_index"),
    ("preprocess", "tracks_cut_inside_stream"),
    ("preprocess", "tracks_stream_end_cut"),
    ("preprocess", "tracks_float_stream_end_cut"),
    ("preprocess", "tracks_stream_byte_flipped"),
    ("preprocess", "tracks_rows_beyond_stream"),
    ("preprocess", "tracks_int_columns_of_another_width"),
    ("preprocess", "tracks_unknown_layout"),
    ("preprocess", "tracks_blocks_of_no_rows"),
    ("preprocess", "tracks_more_rows_than_deflate_gives"),
    ("preprocess", "tracks_header_cut"),
    ("preprocess", "tracks_trailing_bytes"),
    ("preprocess", "tracks_parent_format"),
    ("preprocess", "tracks_packed_npy_format"),
    ("preprocess", "tracks_format_1"),
    ("preprocess", "tracks_format_2"),
    ("export-geojson", "truncated_manifest"),
    ("report", "manifest_not_object"),
    ("score", "reordered_index_row"),
    ("score", "duplicated_index_row"),
    ("score", "tensor_cut_by_one_day"),
    ("report", "empty_stage_entry"),
    ("report", "null_stage_outputs"),
    ("score", "checkpoint_bad_magic"),
    ("score", "checkpoint_bad_header"),
    ("score", "checkpoint_config_not_object"),
    ("score", "checkpoint_format_1"),
    ("score", "checkpoint_format_3"),
    ("score", "checkpoint_gru_convention_key"),
    ("score", "checkpoint_dtype_key"),
    ("score", "stats_not_utf8"),
    ("report", "ingest_report_not_utf8"),
    ("report", "outliers_not_utf8"),
    ("score", "index_row_not_utf8"),
    ("export-geojson", "scores_row_not_utf8"),
    ("score", "index_mmsi_not_nine_digits"),
    ("export-geojson", "scores_mmsi_not_nine_digits"),
    ("score", "index_day_not_iso"),
    ("export-geojson", "outliers_day_not_iso"),
])
def test_damaged_artifact_is_one_line_data_error(tmp_path, capsys, command, damage):
    run_dir = tmp_path / "run"
    (run_dir / "checkpoints").mkdir(parents=True)
    stats = run_dir / "stats.txt"
    NormalizationStats(np.zeros(4), np.ones(4)).save(stats)
    index, tensor = run_dir / "test_index.csv", run_dir / "test.f64"
    save_corpus(np.full((2, 48, 4), 0.5),
                np.array([(367000000 + i, date(2019, 3, 6)) for i in range(2)], IDS_DTYPE),
                tensor, index)
    checkpoint = run_dir / "checkpoints" / "epoch_001.ckpt"
    save_checkpoint(checkpoint, RecurrentAutoencoder.initialize(ModelConfig(hidden=4), 0))
    scores, outliers = run_dir / "scores.csv", run_dir / "outliers.csv"
    scores.write_text("mmsi,day,rmse\n367000000,2019-03-06,0.5\n")
    outliers.write_text("rank,mmsi,day,rmse,threshold,k\n1,367000000,2019-03-06,0.5,0.4,6.0\n")
    tracks = run_dir / "tracks.bin"
    track_table = make_table(make_record(ts=utc(2019, 3, 6, h)) for h in range(3))
    save_tracks(tracks, [group_and_sort(track_table)], packed=True)
    manifest = run_dir / "manifest.json"
    RunManifest(run_dir).record_stage("score", "k=6", "0", [stats], [scores, outliers], 0.1)
    index_rows = index.read_text().splitlines()

    def flip_checkpoint_byte(offset):
        data = bytearray(checkpoint.read_bytes())
        data[offset] ^= 0xFF
        checkpoint.write_bytes(bytes(data))

    def rewrite_checkpoint_header(version=2, edit=lambda config: config):
        data = checkpoint.read_bytes()
        start = len(MAGIC) + 8  # after the magic, the version and the config length
        (config_len,) = struct.unpack_from("<I", data, start - 4)
        blob = json.dumps(edit(json.loads(data[start:start + config_len]))).encode()
        checkpoint.write_bytes(MAGIC + struct.pack("<II", version, len(blob)) + blob
                               + data[start + config_len:])

    def save_npy(*arrays):  # a store of the `.npy` format of earlier versions
        with open(tracks, "wb") as fh:
            for array in arrays:
                np.save(fh, array)

    def rewrite_store(*args, **kwargs):
        rewrite_track_store(tracks, *args, **kwargs)

    def flip_middle_byte(stream):
        middle = len(stream) // 2
        return stream[:middle] + bytes([stream[middle] ^ 0xFF]) + stream[middle + 1:]

    def set_stage(name, entry):
        data = json.loads(manifest.read_text())
        data["stages"][name] = entry
        manifest.write_text(json.dumps(data))

    damages = {
        "truncated_checkpoint": lambda: checkpoint.write_bytes(checkpoint.read_bytes()[:-100]),
        "checkpoint_trailing_bytes": lambda: checkpoint.write_bytes(
            checkpoint.read_bytes() + b"junk"),
        "short_index_row": lambda: index.write_text(index.read_text() + "2,367000009\n"),
        "damaged_stats": lambda: stats.write_text("lat_min="),
        "stats_lon_max_inf": lambda: stats.write_text(
            stats.read_text().replace("lon_max=1.0", "lon_max=inf")),
        "stats_lat_min_nan": lambda: stats.write_text(
            stats.read_text().replace("lat_min=0.0", "lat_min=nan")),
        "short_scores_row": lambda: scores.write_text(scores.read_text() + "367000001\n"),
        "short_outliers_row": lambda: outliers.write_text(outliers.read_text() + "2\n"),
        "truncated_tracks": lambda: tracks.write_bytes(tracks.read_bytes()[:-10]),
        "tracks_not_a_store": lambda: tracks.write_text("mmsi,timestamp,lat\n"),
        "tracks_other_dtype": lambda: save_npy(np.zeros((3, 7))),
        "tracks_counts_short_of_rows": lambda: rewrite_store(entries=[(367000001, 2)]),
        "tracks_mmsi_out_of_order": lambda: rewrite_store(entries=[(367000002, 1),
                                                                   (367000001, 2)]),
        "tracks_zero_count": lambda: rewrite_store(entries=[(367000001, 3), (367000002, 0)]),
        "tracks_index_cut": lambda: tracks.write_bytes(
            tracks.read_bytes()[:-INDEX_DTYPE.itemsize // 2]),
        "tracks_without_index": lambda: tracks.write_bytes(
            tracks.read_bytes()[:-INDEX_DTYPE.itemsize]),
        "tracks_cut_inside_stream": lambda: tracks.write_bytes(
            tracks.read_bytes()[:STORE_HEADER.size + 10]),
        # The stream's last 4 bytes, its checksum, with a header to match.
        "tracks_stream_end_cut": lambda: rewrite_store(lambda stream: stream[:-4]),
        "tracks_float_stream_end_cut": lambda: (
            save_tracks(tracks, [group_and_sort(track_table)]),
            rewrite_store(lambda stream: stream[:-4])),
        "tracks_stream_byte_flipped": lambda: rewrite_store(flip_middle_byte),
        "tracks_rows_beyond_stream": lambda: rewrite_store(entries=[(367000001, 4)], rows=4),
        "tracks_int_columns_of_another_width": lambda: rewrite_store(layout=40),
        "tracks_unknown_layout": lambda: rewrite_store(layout=32),
        "tracks_blocks_of_no_rows": lambda: rewrite_store(block_rows=0),
        # Deflate gives at most 1032 bytes a byte: such a header is refused
        # before any row is allocated.
        "tracks_more_rows_than_deflate_gives": lambda: rewrite_store(
            entries=[(367000001, 10**12)], rows=10**12),
        "tracks_header_cut": lambda: tracks.write_bytes(
            tracks.read_bytes()[:20] + tracks.read_bytes()[30:]),
        "tracks_trailing_bytes": lambda: tracks.write_bytes(
            tracks.read_bytes() + bytes(INDEX_DTYPE.itemsize)),
        "tracks_parent_format": lambda: save_npy(track_table),
        "tracks_packed_npy_format": lambda: save_npy(
            pack(track_table), np.array([(367000001, 3)], INDEX_DTYPE)),
        # Format 1 stored first differences and format 2 packed second ones
        # without zigzag or byte planes, under a header laid out as format
        # 3's: only the magic tells them apart.
        "tracks_format_1": lambda: rewrite_store(magic=b"AISTRK\x00\x01"),
        "tracks_format_2": lambda: rewrite_store(magic=b"AISTRK\x00\x02"),
        "truncated_manifest": lambda: manifest.write_bytes(manifest.read_bytes()[:100]),
        "manifest_not_object": lambda: manifest.write_text('["stages"]\n'),
        "reordered_index_row": lambda: index.write_text(
            "\n".join(index_rows[:1] + index_rows[:0:-1]) + "\n"),
        "duplicated_index_row": lambda: index.write_text(
            "\n".join(index_rows[:2] + index_rows[1:2]) + "\n"),
        "tensor_cut_by_one_day": lambda: tensor.write_bytes(tensor.read_bytes()[:-48 * 4 * 8]),
        "empty_stage_entry": lambda: set_stage("split", {}),
        "null_stage_outputs": lambda: set_stage("score", {"wall_seconds": 0.1, "outputs": None}),
        "checkpoint_bad_magic": lambda: flip_checkpoint_byte(0),
        # Low byte of the config length, after the magic and the version.
        "checkpoint_bad_header": lambda: flip_checkpoint_byte(len(MAGIC) + 4),
        "checkpoint_config_not_object": lambda: rewrite_checkpoint_header(edit=lambda _: 5),
        # Format 1 had a `dtype` key; it is refused on its header alone.
        "checkpoint_format_1": lambda: rewrite_checkpoint_header(
            1, lambda config: dict(config, dtype="float64")),
        "checkpoint_format_3": lambda: rewrite_checkpoint_header(3),
        "checkpoint_gru_convention_key": lambda: rewrite_checkpoint_header(
            edit=lambda config: dict(config, gru_convention="z_gates_state")),
        "checkpoint_dtype_key": lambda: rewrite_checkpoint_header(
            edit=lambda config: dict(config, dtype="float64")),
        "stats_not_utf8": lambda: stats.write_bytes(b"lat_min=\xff\n"),
        "ingest_report_not_utf8": lambda: (run_dir / "ingest_report.txt").write_bytes(
            b"rows_read=\xff\n"),
        "outliers_not_utf8": lambda: outliers.write_bytes(outliers.read_bytes() + b"\xff\n"),
        "index_row_not_utf8": lambda: index.write_bytes(index.read_bytes() + b"2,\xff\n"),
        "scores_row_not_utf8": lambda: scores.write_bytes(scores.read_bytes() + b"\xff\n"),
        "index_mmsi_not_nine_digits": lambda: index.write_text(
            "\n".join(index_rows[:2] + ["1,36700001,2019-03-06"]) + "\n"),
        "scores_mmsi_not_nine_digits": lambda: scores.write_text(  # a digit, not ASCII
            "mmsi,day,rmse\n３67000000,2019-03-06,0.5\n", encoding="utf-8"),
        "index_day_not_iso": lambda: index.write_text(  # a basic-format ISO 8601 date
            "\n".join(index_rows[:2] + ["1,367000001,20190306"]) + "\n"),
        "outliers_day_not_iso": lambda: outliers.write_text(  # an ISO 8601 week date
            "rank,mmsi,day,rmse,threshold,k\n1,367000000,2019-W10-3,0.5,0.4,6.0\n"),
    }
    # The files (and stage) the message must name.
    named = {"tensor_cut_by_one_day": ("test.f64", "test_index.csv"),
             "stats_not_utf8": ("stats.txt",),
             "ingest_report_not_utf8": ("ingest_report.txt",),
             "outliers_not_utf8": ("outliers.csv",),
             "index_row_not_utf8": ("test_index.csv",),
             "scores_row_not_utf8": ("scores.csv",),
             "index_mmsi_not_nine_digits": ("test_index.csv", "line 3"),
             "scores_mmsi_not_nine_digits": ("scores.csv", "line 2"),
             "index_day_not_iso": ("test_index.csv", "line 3"),
             "outliers_day_not_iso": ("outliers.csv", "line 2"),
             "checkpoint_config_not_object": ("epoch_001.ckpt", "`train`"),
             "checkpoint_trailing_bytes": ("epoch_001.ckpt", "truncated or corrupt", "`train`"),
             "checkpoint_format_1": ("format 1", "`train`"),
             "checkpoint_format_3": ("format 3", "`train`"),
             "checkpoint_gru_convention_key": ("gru_convention", "`train`"),
             "checkpoint_dtype_key": ("dtype", "`train`"),
             "tracks_format_1": ("tracks.bin", "older format", "`ingest`"),
             "tracks_format_2": ("tracks.bin", "older format", "`ingest`"),
             "stats_lon_max_inf": ("lon_max", "not finite"),
             "stats_lat_min_nan": ("lat_min", "not finite"),
             "empty_stage_entry": ("manifest.json", "'split'"),
             "null_stage_outputs": ("manifest.json", "'score'")}
    if "tracks" in damage:
        named.setdefault(damage, ("tracks.bin", "`ingest`"))
    damages[damage]()

    assert main([command, "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:"), err
    for name in named.get(damage, ()):
        assert name in err[0], err


@pytest.mark.parametrize("field, value", [
    ("lat", 250.0), ("lat", math.nan), ("lon", -180.5), ("sog", -0.1), ("sog", math.inf),
    ("cog", 360.0), ("t", 2**62), ("t", -2**62)])
def test_store_value_outside_ingest_ranges_is_one_line_data_error(tmp_path, capsys, field,
                                                                 value):
    # A float-layout store of 288 rows, one value of which ingest refuses
    # (or, for a COG of 360, stores as 0).
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    table = make_table(make_record(ts=utc(2019, 3, 6 + i // 48, i % 48 // 2, 30 * (i % 2)))
                       for i in range(288))
    table[field][100] = value
    save_tracks(run_dir / "tracks.bin", [group_and_sort(table)])
    assert main(["preprocess", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:"), err
    for name in ("tracks.bin", "`ingest`", f"a {field.upper()} of {value!r}"):
        assert name in err[0], err
    assert sorted(p.name for p in run_dir.iterdir()) == ["tracks.bin"]


def test_failed_tracks_write_keeps_previous_store(tmp_path):
    tracks = tmp_path / "tracks.bin"
    table = make_table(make_record(ts=utc(2019, 3, 6, h)) for h in range(3))
    save_tracks(tracks, [group_and_sort(table)])
    before = tracks.read_bytes()

    def fail_after_one_track():  # the store is streamed: fail mid-write
        yield group_and_sort(table[:1])
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        save_tracks(tracks, fail_after_one_track())
    assert tracks.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["tracks.bin"]
