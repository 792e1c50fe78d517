import json
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from ais_outliers.cli import main
from ais_outliers.config import load_config
from ais_outliers.errors import ConfigError
from ais_outliers.nn.checkpoint import save_checkpoint
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder
from ais_outliers.preprocess import NormalizationStats, NormalizedDay, save_corpus
from ais_outliers.synthetic import generate_days, write_ais_csv


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


@pytest.mark.parametrize("key", ["dtype=float32", "deterministic=true"])
def test_removed_config_keys_rejected(tmp_path, capsys, key):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(key + "\n")
    assert main(["ingest", "--config", str(config_file), "--print-config"]) == 1
    assert "unknown configuration key" in capsys.readouterr().err


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


def test_score_without_stats_refused(tmp_path, capsys):
    (tmp_path / "run").mkdir()
    code = main(["score", "--run-dir", str(tmp_path / "run")])
    assert code == 2
    assert "stats" in capsys.readouterr().err


def test_multi_file_ingest_merges_tracks(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    tracks = (run_dir / "tracks.csv").read_text().splitlines()[1:]
    mmsis = [line.split(",")[0] for line in tracks]
    assert mmsis == sorted(mmsis)  # one store, ordered by MMSI then time
    assert len(set(mmsis)) == 10  # 60 days / 6 per vessel


def test_full_pipeline(tmp_path, corpus_dir, capsys):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess", "split", "train", "score",
                    "export-geojson", "report"):
        code = main(run_args(corpus_dir, run_dir, command))
        assert code == 0, f"{command} failed"

    for artifact in ("tracks.csv", "ingest_report.txt", "corpus.f64",
                     "corpus_index.csv", "stats.txt", "train.f64", "val.f64",
                     "test.f64", "split_manifest.txt", "history.csv",
                     "scores.csv", "histogram.csv", "outliers.csv",
                     "offenders.csv", "outliers.geojson", "manifest.json"):
        assert (run_dir / artifact).exists(), artifact
    assert (run_dir / "checkpoints" / "epoch_001.ckpt").exists()

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"ingest", "preprocess", "split", "train",
                                       "score", "export-geojson"}
    for entry in manifest["stages"].values():
        for path, digest in entry["outputs"].items():
            assert Path(path).exists()
            assert len(digest) == 64


def test_ingest_rerun_is_deterministic(tmp_path, corpus_dir):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(run_args(corpus_dir, run_a, "ingest")) == 0
    assert main(run_args(corpus_dir, run_b, "ingest")) == 0
    assert (run_a / "tracks.csv").read_bytes() == (run_b / "tracks.csv").read_bytes()
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


@pytest.mark.parametrize("command, damage", [
    ("score", "truncated_checkpoint"),
    ("export-geojson", "short_index_row"),
])
def test_damaged_artifact_is_one_line_data_error(tmp_path, capsys, command, damage):
    run_dir = tmp_path / "run"
    (run_dir / "checkpoints").mkdir(parents=True)
    NormalizationStats(np.zeros(4), np.ones(4)).save(run_dir / "stats.txt")
    days = [NormalizedDay(f"36700000{i}", date(2019, 3, 6), np.full((48, 4), 0.5))
            for i in range(2)]
    save_corpus(days, run_dir / "test.f64", run_dir / "test_index.csv")
    checkpoint = run_dir / "checkpoints" / "epoch_001.ckpt"
    save_checkpoint(checkpoint, RecurrentAutoencoder.initialize(ModelConfig(hidden=4), 0))
    if damage == "truncated_checkpoint":
        checkpoint.write_bytes(checkpoint.read_bytes()[:-100])
    else:
        index = run_dir / "test_index.csv"
        index.write_text(index.read_text() + "2,367000009\n")

    assert main([command, "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:"), err
