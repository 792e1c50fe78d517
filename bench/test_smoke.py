"""Tests of the pipeline benchmark itself.

    python3 -m pytest -q bench/test_smoke.py

The smoke mode runs both workloads at tiny sizes, traced and
untraced, with every output check, and checks that BENCHMARK.json has its
fixed form. It takes about 30 s on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_passes():
    done = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert done.stdout.count("correct=True") == len(workloads)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_layer_reads_as_absent():
    sys.path.insert(0, str(ROOT / "bench"))
    import tracer

    recorder = tracer.Tracer()
    recorder.install([("json", "no_such_function", "ingest.parse_ais_csv", None)])
    assert recorder.absent == ["ingest.parse_ais_csv"]
    dumps = {stage: {"absent": recorder.absent, "spans": []} for stage in tracer.STAGES}
    metrics = tracer.layer_metrics(dumps)
    assert metrics["ingest.parse_ais_csv.s"] is None
    assert metrics["ingest.parse_rows_per_s"] is None
    assert metrics["ingest.group_and_sort.s"] == 0
