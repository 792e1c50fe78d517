"""What each CLI command loads: the entry point imports no numpy, and a
stage imports only the code it runs. Each command runs in a fresh
interpreter, and the test reads that interpreter's `sys.modules` at exit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synthetic import generate_days, write_ais_csv

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs `python -m ais_outliers.cli ARGS` and writes the names of all
# loaded modules to OUT when the interpreter exits, however it exits.
PROBE = """
import atexit, json, runpy, sys
out = sys.argv.pop(1)

@atexit.register
def dump():
    with open(out, "w") as fh:
        json.dump(sorted(sys.modules), fh)

runpy.run_module("ais_outliers.cli", run_name="__main__", alter_sys=True)
"""


def loaded_modules(tmp_path, *args, expect_code=0) -> set[str]:
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE, str(out), *args],
                          capture_output=True, text=True, env=env)
    assert done.returncode == expect_code, done.stderr
    return set(json.loads(out.read_text()))


def under(modules: set[str], package: str) -> set[str]:
    return {m for m in modules if m == package or m.startswith(package + ".")}


@pytest.mark.parametrize("args, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["ingest", "--print-config"], 0),
    (["train", "--set", "hidden=abc"], 1),
])
def test_entry_point_loads_neither_numpy_nor_hashlib(tmp_path, args, code):
    modules = loaded_modules(tmp_path, *args, expect_code=code)
    assert "ais_outliers.config" in modules  # the probe sees the CLI's imports
    assert not {"numpy", "hashlib"} & modules
    assert under(modules, "ais_outliers") <= {
        "ais_outliers", "ais_outliers.atomic", "ais_outliers.config", "ais_outliers.errors"}


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory):
    """The modules each of ingest, preprocess and split loaded, run in order
    on one small corpus."""
    root = tmp_path_factory.mktemp("imports")
    write_ais_csv(generate_days(20, seed=3), root / "ais.csv")
    common = ["--input-glob", str(root / "ais.csv"), "--run-dir", str(root / "run")]
    return {stage: loaded_modules(root, stage, *common)
            for stage in ("ingest", "preprocess", "split")}


@pytest.mark.parametrize("stage", ["ingest", "preprocess", "split"])
def test_data_stages_load_no_network_code(stage_modules, stage):
    modules = stage_modules[stage]
    assert {"numpy", "hashlib", "ais_outliers.manifest"} <= modules  # the stage recorded itself
    assert not under(modules, "ais_outliers.nn")


def test_ingest_loads_neither_detect_nor_geojson(stage_modules):
    modules = stage_modules["ingest"]
    assert "ais_outliers.ingest" in modules
    # numpy.ma comes in through a flagless np.unique, such as np.union1d's.
    assert not {"ais_outliers.detect", "ais_outliers.geojson", "numpy.ma"} & modules


def test_split_loads_no_ingest_code(stage_modules):
    modules = stage_modules["split"]
    assert {"ais_outliers.preprocess", "ais_outliers.sequence"} <= modules
    assert "ais_outliers.ingest" not in modules


def test_preprocess_loads_the_track_store_but_no_ingest_code(stage_modules):
    modules = stage_modules["preprocess"]
    assert {"ais_outliers.preprocess", "ais_outliers.tracks"} <= modules
    assert "ais_outliers.ingest" not in modules
