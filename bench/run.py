"""Pipeline benchmark for the ais-outliers CLI.

Timed run (end-to-end metrics):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0
Traced run (per-layer metrics):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 1
Smoke mode (all workloads at tiny sizes, every check, BENCHMARK.json form):
    python3 bench/run.py --smoke

The seed goes to the benchmark's own generator (bench/gen.py), never to
the program. Each round runs the six CLI stages, each as its own process
with one BLAS thread, one at a time, on the generated CSVs, timing every
stage from outside and taking its peak RSS from `os.wait4`. A stage that
is short on a workload runs several times in a row within a round (each
rerun rewrites the same artifacts), so that its rate rests on enough
samples of a noisy host. Rounds repeat while at least half of the next
one fits within --seconds of the start, input generation included. Each
stage's times are pooled over all rounds and every metric uses their
median.
The first round's outputs are checked by bench/check.py; later rounds must
reproduce its artifacts byte for byte. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; an operation is one
stage invocation.

This script uses the standard library only, so its own memory stays small:
a child's ru_maxrss starts from the parent's high-water mark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
STAGES = tracer.STAGES
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 3  # per batch: one batch before the first round and after each round
# Artifacts that carry wall times and so differ between identical rounds.
TIMED_ARTIFACTS = {"manifest.json", "history.csv"}

# Settings every workload relies on; the checks read them from the same file.
COMMON_CONFIG = {
    "min_length": 20.0, "tolerance_s": 60.0, "min_entries": 20, "max_fill": 20,
    "max_missing_fraction": 0.30, "test_fraction": 0.2, "val_fraction": 0.2,
    "cell_kind": "gru", "bidirectional": "true", "layers": 1,
    "recurrent_dropout_rate": 0.2, "dense_dropout_rate": 0.2,
    "sigma_k": 6.0, "threshold_scores": "test", "per_feature_rmse": "false",
    "seed": 20190306,
}

WORKLOADS = {
    "ingest-dense": {
        "why": "per-minute feed with planted faults: ingest, preprocess and the "
               "tracks.csv round trip do most of the work; training is brief",
        "gen": ["dense", "vessels=4", "days=14"],
        "smoke": ["dense", "vessels=3", "days=6"],
        "config": {"hidden": 8, "batch_size": 8, "epochs": 20, "learning_rate": 0.005},
        "repeat": {"train": 2},
        "auc_floor": None,
    },
    "train-small-batch": {
        "why": "acceptance model (bidirectional GRU, H 16, batch 8) with per-feature RMSE: "
               "training dominates with tiny GEMMs, so per-step numpy dispatch sets the speed",
        "gen": ["lanes", "days=600"],
        "smoke": ["lanes", "days=120"],
        "config": {"hidden": 16, "batch_size": 8, "epochs": 5, "learning_rate": 0.003,
                   "sigma_k": 3.0, "per_feature_rmse": "true"},
        "repeat": {},
        "auc_floor": 0.90,
    },
}

# name -> (unit, better)
END_TO_END = {
    "pipeline_s": ("s", "lower"),
    "ingest_rows_per_s": ("rows/s", "higher"),
    "preprocess_days_per_s": ("vessel-days/s", "higher"),
    "train_seq_per_s": ("seq/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "run_dir_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class Run:
    """One benchmark run: generated inputs, rounds, and their measurements."""

    def __init__(self, workload: str, seed: int, work: Path, smoke: bool = False):
        self.spec = WORKLOADS[workload]
        self.inputs = work / "inputs"
        self.config = work / "run.cfg"
        self.log = work / "stages.log"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.facts: dict = {}
        self.reference: dict[str, str] | None = None

        kind, *params = self.spec["smoke"] if smoke else self.spec["gen"]
        self._child([str(BENCH / "gen.py"), kind, "--seed", str(seed), "--out", str(self.inputs)]
                    + [a for p in params for a in ("--param", p)])
        self.tallies = json.loads((self.inputs / "tallies.json").read_text())
        settings = dict(COMMON_CONFIG, **self.spec["config"],
                        input_glob=str(self.inputs / "*.csv"))
        self.config.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        self.epochs = int(settings["epochs"])

    def _child(self, args: list[str]) -> str:
        done = subprocess.run([sys.executable] + args, env=self.env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if done.returncode != 0:
            raise RuntimeError(f"{args[0]} failed:\n{done.stderr}")
        return done.stdout

    def _launch(self, cmd: list[str]) -> tuple[float, float, int]:
        """Run one process; returns (wall s, peak RSS MB, exit code)."""
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_seconds(self, warm_up: bool = False) -> list[float]:
        """Fresh interpreter to ready: `--version` of the CLI. The warm-up
        call lets the byte-code cache fill, which users pay once."""
        cmd = [sys.executable, "-m", "ais_outliers.cli", "--version"]
        times = []
        for i in range(SETUP_REPEATS + warm_up):
            wall, _, code = self._launch(cmd)
            if code != 0:
                raise RuntimeError("`ais_outliers.cli --version` failed; see the stage log")
            if i or not warm_up:
                times.append(wall)
        return times

    def pipeline(self, run_dir: Path, spans_dir: Path | None = None) -> dict | None:
        """All six stages in order; None when a stage fails. Untraced rounds
        repeat some stages (each rerun rewrites the same artifacts) and keep
        every time, so that each rate rests on enough samples."""
        repeat = self.spec["repeat"] if spans_dir is None else {}
        ops = [stage for stage in STAGES for _ in range(repeat.get(stage, 1))]
        self.attempted += len(ops)
        times: dict[str, list[float]] = {stage: [] for stage in STAGES}
        rss: dict[str, float] = {}
        for i, stage in enumerate(ops):
            args = [stage, "--config", str(self.config), "--run-dir", str(run_dir)]
            if spans_dir is None:
                cmd = [sys.executable, "-m", "ais_outliers.cli"] + args
            else:
                cmd = [sys.executable, str(BENCH / "tracer.py"),
                       str(spans_dir / f"{stage}.json")] + args
            wall, peak, code = self._launch(cmd)
            if code != 0:
                self.failed += len(ops) - i
                self.failures.append(f"stage {stage} exited {code}; see {self.log}")
                return None
            times[stage].append(wall)
            rss[stage] = max(rss.get(stage, 0.0), peak)
        return {"walls": times, "rss": rss,
                "pipeline_s": sum(statistics.median(t) for t in times.values()),
                "run_dir_mb": _tree_bytes(run_dir) / 2**20}

    def verify(self, run_dir: Path) -> None:
        """Check the first round's outputs; later rounds must reproduce them."""
        digests = _digests(run_dir)
        if self.reference is None:
            self.reference = digests
            cmd = [str(BENCH / "check.py"), str(self.inputs), str(run_dir), str(self.config)]
            if self.spec["auc_floor"] is not None:
                cmd += ["--auc-floor", str(self.spec["auc_floor"])]
            try:
                result = json.loads(self._child(cmd).strip().splitlines()[-1])
            except RuntimeError as exc:  # the outputs could not even be read
                self.failures.append(str(exc))
                return
            self.failures += result["failures"]
            self.facts = result["facts"]
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            self.failures.append(f"{run_dir.name} artifacts differ from round 1: {changed}")

    def end_to_end(self, rounds: list[dict], setup: list[float]) -> dict[str, float]:
        """Stage times are pooled over all rounds; each is the median of its pool."""
        walls = {stage: statistics.median(t for r in rounds for t in r["walls"][stage])
                 for stage in STAGES}
        n = self.tallies["preprocess"]["days_kept"]
        n_test = int(n * COMMON_CONFIG["test_fraction"])
        n_train = n - n_test - int((n - n_test) * COMMON_CONFIG["val_fraction"])
        return {
            "pipeline_s": sum(walls.values()),
            "ingest_rows_per_s": self.tallies["ingest"]["rows_read"] / walls["ingest"],
            "preprocess_days_per_s": self.tallies["preprocess"]["days_total"]
                                     / walls["preprocess"],
            "train_seq_per_s": n_train * self.epochs / walls["train"],
            "peak_rss_mb": statistics.median(max(r["rss"].values()) for r in rounds),
            "run_dir_mb": statistics.median(r["run_dir_mb"] for r in rounds),
            "setup_s": statistics.median(setup),
        }


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _digests(path: Path) -> dict[str, str]:
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file() and p.name not in TIMED_ARTIFACTS:
            out[str(p.relative_to(path))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _median_or_none(values: list) -> float | None:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Returns (correct, attempted, failed, end-to-end metrics, per-layer metrics)."""
    started = time.monotonic()
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work, smoke)
        setup = run.setup_seconds(warm_up=True)
        rounds, traced, layers = [], [], []
        round_times = []
        while True:
            round_started = time.monotonic()
            run_dir = work / f"round{len(rounds) + 1}"
            result = run.pipeline(run_dir)
            if result is None:
                break
            rounds.append(result)
            check_started = time.monotonic()
            run.verify(run_dir)
            check_s = time.monotonic() - check_started
            shutil.rmtree(run_dir)
            if trace:
                spans_dir = work / "spans"
                spans_dir.mkdir(exist_ok=True)
                result = run.pipeline(run_dir, spans_dir)
                if result is None:
                    break
                traced.append(result)
                run.verify(run_dir)
                shutil.rmtree(run_dir)
                dumps = {s: json.loads((spans_dir / f"{s}.json").read_text()) for s in STAGES}
                layers.append(tracer.layer_metrics(dumps))
            setup += run.setup_seconds()
            # The next round repeats all of this except the first round's
            # output check, which runs once.
            round_s = time.monotonic() - round_started
            round_times.append(round_s - check_s if len(rounds) == 1 else round_s)
            # Start another round while at least half of one fits in the run's
            # time (generation and set-up included), so runs last --seconds
            # on average and overshoot it by at most half a round.
            if time.monotonic() + statistics.mean(round_times) / 2 > started + seconds:
                break
        correct = bool(rounds) and not run.failures
        print(f"{workload}: {len(rounds)} rounds; check facts {json.dumps(run.facts)}")
        for failure in run.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        if not rounds:
            return correct, run.attempted, run.failed, {}, {}

        e2e = run.end_to_end(rounds, setup)
        per_layer: dict[str, float | None] = {}
        if trace and traced:
            for stage in STAGES:
                per_layer[f"cli.{stage}.s"] = statistics.median(
                    t for r in rounds for t in r["walls"][stage])
                per_layer[f"cli.{stage}.peak_rss_mb"] = statistics.median(
                    r["rss"][stage] for r in rounds)
            for name in layers[0]:
                per_layer[name] = _median_or_none([m[name] for m in layers])
            per_layer["trace.overhead_s"] = (
                statistics.median(r["pipeline_s"] for r in traced) - e2e["pipeline_s"])
        return correct, run.attempted, run.failed, e2e, per_layer
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values.get(name), "unit": units[name][0]} for name in units}


def check_benchmark_json() -> list[str]:
    """BENCHMARK.json must have its fixed form and name this script's metrics."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"keys {sorted(spec)}")
    if spec.get("command") != ["python3", "bench/run.py"] or spec.get("paths") != ["bench"]:
        problems.append("command or paths")
    if not isinstance(spec.get("run_seconds"), int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds")
    workloads = spec.get("workloads", [])
    if [w.get("name") for w in workloads] != list(WORKLOADS) or any(
            set(w) != {"name", "why"} or w["why"] != WORKLOADS[w["name"]]["why"]
            for w in workloads):
        problems.append("workloads differ from run.py's")
    e2e = spec.get("end_to_end", [])
    if {m.get("name"): (m.get("unit"), m.get("better")) for m in e2e} != END_TO_END or any(
            set(m) != {"name", "unit", "better", "bound"}
            or not 0 < m["bound"] <= 0.25 for m in e2e):
        problems.append("end_to_end metrics, units or bounds")
    layer = spec.get("per_layer", [])
    if {m.get("name"): (m.get("unit"), m.get("better")) for m in layer} != \
            tracer.LAYER_METRICS or any(set(m) != {"name", "unit", "better"} for m in layer):
        problems.append("per_layer metrics or units")
    return problems


def smoke() -> int:
    """Every workload at tiny size, traced and untraced, with every check."""
    problems = [f"BENCHMARK.json: {p}" for p in check_benchmark_json()]
    for workload in WORKLOADS:
        correct, attempted, failed, e2e, layers = measure(workload, 1, 0.0, True, smoke=True)
        missing = [n for n in END_TO_END if not e2e.get(n)]
        missing += [n for n in tracer.LAYER_METRICS if layers.get(n) is None]
        if not correct or failed or missing:
            problems.append(f"{workload}: correct={correct} failed={failed}/{attempted} "
                            f"missing={missing}")
        print(f"smoke {workload}: {attempted} stage runs, correct={correct}")
    for problem in problems:
        print(f"smoke failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="ais-outliers pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "ais_outliers" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    correct, attempted, failed, e2e, layers = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    absent = [name for name, value in layers.items() if value is None]
    if absent:
        print(f"absent per-layer metrics: {absent}")
    metrics = (_metric_block(layers, tracer.LAYER_METRICS) if args.trace
               else _metric_block(e2e, END_TO_END))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
