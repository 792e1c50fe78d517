import hashlib
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from ais_outliers.cli import SPILL_DIR, main
from ais_outliers.config import load_config
from ais_outliers.errors import ConfigError
from ais_outliers.ingest import TRACK_DTYPE, group_and_sort, save_tracks
from ais_outliers.manifest import RunManifest, file_sha256
from ais_outliers.nn.checkpoint import MAGIC, save_checkpoint
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder
from ais_outliers.preprocess import NormalizationStats, save_corpus

from conftest import make_record, make_table, utc
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


def test_score_without_stats_refused(tmp_path, capsys):
    (tmp_path / "run").mkdir()
    code = main(["score", "--run-dir", str(tmp_path / "run")])
    assert code == 2
    assert "stats" in capsys.readouterr().err


def test_multi_file_ingest_merges_tracks(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    table = np.load(run_dir / "tracks.npy", allow_pickle=False)
    assert table.dtype == TRACK_DTYPE
    # One store, ordered by MMSI then time.
    assert (np.lexsort((table["t"], table["mmsi"])) == np.arange(len(table))).all()
    assert len(np.unique(table["mmsi"])) == 10  # 60 days / 6 per vessel


def test_ingest_leaves_only_its_artifacts(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == \
        ["ingest_report.txt", "manifest.json", "tracks.npy"]


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
    (stale / "tracks.npy").write_bytes((run_dir / "tracks.npy").read_bytes()[:-56])
    assert main(run_args(corpus_dir, run_dir, "preprocess")) == 0
    for artifact in ("corpus.f64", "corpus_index.csv", "stats.txt", "preprocess_report.txt"):
        assert (run_dir / artifact).read_bytes() == (clean / artifact).read_bytes(), artifact
    assert main(run_args(corpus_dir, run_dir, "ingest")) == 0
    assert not stale.exists()
    assert (run_dir / "tracks.npy").read_bytes() == (clean / "tracks.npy").read_bytes()


def test_ingest_and_preprocess_record_counts_and_peak_rss(tmp_path, corpus_dir):
    run_dir = tmp_path / "run"
    for command in ("ingest", "preprocess"):
        assert main(run_args(corpus_dir, run_dir, command)) == 0
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    rows = len(np.load(run_dir / "tracks.npy"))
    ingest, preprocess = stages["ingest"]["extra"], stages["preprocess"]["extra"]
    assert ingest["files"] == 3 and ingest["rows_kept"] == rows
    assert ingest["vessels_kept"] == preprocess["vessels"] == 10
    assert ingest["rows_read"] >= rows and ingest["merge_batches"] >= 1
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

    for artifact in ("tracks.npy", "ingest_report.txt", "corpus.f64",
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
            assert Path(path).exists()
            assert len(digest) == 64
    split = manifest["stages"]["split"]["extra"]
    assert split["n_train"] + split["n_val"] + split["n_test"] == \
        len((run_dir / "corpus_index.csv").read_text().splitlines()) - 1
    assert split["n_test"] == len((run_dir / "test_index.csv").read_text().splitlines()) - 1


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
        "preprocess": ["tracks.npy"],
        "split": ["corpus.f64", "corpus_index.csv"],
        "train": ["train.f64", "train_index.csv", "val.f64", "val_index.csv"],
        "score": ["epoch_001.ckpt", "stats.txt", "test.f64", "test_index.csv",
                  "train.f64", "train_index.csv"],
        "export-geojson": ["outliers.csv", "scores.csv", "stats.txt", "test.f64",
                           "test_index.csv"],
    }


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
    assert (run_a / "tracks.npy").read_bytes() == (run_b / "tracks.npy").read_bytes()
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
                                       ["--mmsi", "123456789"]])
def test_bad_geojson_selection_is_one_line_config_error(tmp_path, capsys, selection):
    code = main(["export-geojson", "--run-dir", str(tmp_path / "run")] + selection)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --") and err.count("\n") == 1


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
    ("score", "damaged_stats"),
    ("export-geojson", "short_scores_row"),
    ("export-geojson", "short_outliers_row"),
    ("preprocess", "truncated_tracks"),
    ("preprocess", "tracks_not_npy"),
    ("preprocess", "tracks_other_dtype"),
    ("export-geojson", "truncated_manifest"),
    ("report", "manifest_not_object"),
    ("score", "reordered_index_row"),
    ("score", "duplicated_index_row"),
    ("score", "tensor_cut_by_one_day"),
    ("report", "empty_stage_entry"),
    ("report", "null_stage_outputs"),
    ("score", "checkpoint_bad_magic"),
    ("score", "checkpoint_bad_header"),
    ("score", "stats_not_utf8"),
    ("report", "ingest_report_not_utf8"),
    ("report", "outliers_not_utf8"),
    ("score", "index_row_not_utf8"),
    ("export-geojson", "scores_row_not_utf8"),
])
def test_damaged_artifact_is_one_line_data_error(tmp_path, capsys, command, damage):
    run_dir = tmp_path / "run"
    (run_dir / "checkpoints").mkdir(parents=True)
    stats = run_dir / "stats.txt"
    NormalizationStats(np.zeros(4), np.ones(4)).save(stats)
    index, tensor = run_dir / "test_index.csv", run_dir / "test.f64"
    save_corpus(np.full((2, 48, 4), 0.5), [(f"36700000{i}", date(2019, 3, 6)) for i in range(2)],
                tensor, index)
    checkpoint = run_dir / "checkpoints" / "epoch_001.ckpt"
    save_checkpoint(checkpoint, RecurrentAutoencoder.initialize(ModelConfig(hidden=4), 0))
    scores, outliers = run_dir / "scores.csv", run_dir / "outliers.csv"
    scores.write_text("mmsi,day,rmse\n367000000,2019-03-06,0.5\n")
    outliers.write_text("rank,mmsi,day,rmse,threshold,k\n1,367000000,2019-03-06,0.5,0.4,6.0\n")
    tracks = run_dir / "tracks.npy"
    save_tracks(tracks, group_and_sort(make_table(
        make_record(ts=utc(2019, 3, 6, h)) for h in range(3))))
    manifest = run_dir / "manifest.json"
    RunManifest(run_dir).record_stage("score", "k=6", "0", [stats], [scores, outliers], 0.1)
    index_rows = index.read_text().splitlines()

    def flip_checkpoint_byte(offset):
        data = bytearray(checkpoint.read_bytes())
        data[offset] ^= 0xFF
        checkpoint.write_bytes(bytes(data))

    def set_stage(name, entry):
        data = json.loads(manifest.read_text())
        data["stages"][name] = entry
        manifest.write_text(json.dumps(data))

    damages = {
        "truncated_checkpoint": lambda: checkpoint.write_bytes(checkpoint.read_bytes()[:-100]),
        "short_index_row": lambda: index.write_text(index.read_text() + "2,367000009\n"),
        "damaged_stats": lambda: stats.write_text("lat_min="),
        "short_scores_row": lambda: scores.write_text(scores.read_text() + "367000001\n"),
        "short_outliers_row": lambda: outliers.write_text(outliers.read_text() + "2\n"),
        "truncated_tracks": lambda: tracks.write_bytes(tracks.read_bytes()[:-10]),
        "tracks_not_npy": lambda: tracks.write_text("mmsi,timestamp,lat\n"),
        "tracks_other_dtype": lambda: np.save(tracks, np.zeros((3, 7))),
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
        "stats_not_utf8": lambda: stats.write_bytes(b"lat_min=\xff\n"),
        "ingest_report_not_utf8": lambda: (run_dir / "ingest_report.txt").write_bytes(
            b"rows_read=\xff\n"),
        "outliers_not_utf8": lambda: outliers.write_bytes(outliers.read_bytes() + b"\xff\n"),
        "index_row_not_utf8": lambda: index.write_bytes(index.read_bytes() + b"2,\xff\n"),
        "scores_row_not_utf8": lambda: scores.write_bytes(scores.read_bytes() + b"\xff\n"),
    }
    # The files (and stage) the message must name.
    named = {"tensor_cut_by_one_day": ("test.f64", "test_index.csv"),
             "stats_not_utf8": ("stats.txt",),
             "ingest_report_not_utf8": ("ingest_report.txt",),
             "outliers_not_utf8": ("outliers.csv",),
             "index_row_not_utf8": ("test_index.csv",),
             "scores_row_not_utf8": ("scores.csv",),
             "empty_stage_entry": ("manifest.json", "'split'"),
             "null_stage_outputs": ("manifest.json", "'score'")}
    damages[damage]()

    assert main([command, "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:"), err
    for name in named.get(damage, ()):
        assert name in err[0], err


def test_failed_tracks_write_keeps_previous_store(tmp_path):
    tracks = tmp_path / "tracks.npy"
    table = make_table(make_record(ts=utc(2019, 3, 6, h)) for h in range(3))
    save_tracks(tracks, group_and_sort(table))
    before = tracks.read_bytes()

    def fail_after_one_track():  # the store is streamed: fail mid-write
        yield from group_and_sort(table[:1])
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        save_tracks(tracks, fail_after_one_track())
    assert tracks.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["tracks.npy"]
