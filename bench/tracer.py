"""Traced stage runner and the per-layer metrics derived from its spans.

Run one CLI stage under tracing:

    python3 bench/tracer.py SPANS_FILE STAGE [CLI ARGS...]

Before the stage runs, every public function listed in TARGETS is wrapped
with a span recorder. The CLI binds names at import (`from .ingest import
parse_ais_csv`), so each wrapper is bound in the defining module and in
every program module that holds the same function object under any name.
Spans (name, start, end, parent, counts) stay in memory and are written to
SPANS_FILE as JSON when the stage ends. A target that no longer exists is
listed as absent instead of failing the stage, so a later change that
renames or removes a layer still runs under this benchmark; the metrics
that depend on it are then reported as absent.

Nothing is added inside `src/`. This module imports the program only in
`main`, so `run.py` can import it for `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

STAGES = ("ingest", "preprocess", "split", "train", "score", "export-geojson")
BATCH = "nn.model.loss_and_gradients"


# ---------------------------------------------------------------------------
# Probes: record counts for a span from its arguments and result. A probe
# returns a `finish(result) -> dict` closure; its cost falls outside the span.
# ---------------------------------------------------------------------------

def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _probe_parse(args, kwargs):
    before = _maxrss_kb()
    return lambda result: {"rows": result[1].rows_read,
                           "rss_growth_bytes": (_maxrss_kb() - before) * 1024}


def _probe_resample(args, kwargs):
    scanned = len(args[0].records)
    return lambda result: {"records_scanned": scanned,
                           "slots_filled": int(result.mask.sum())}


def _probe_unroll(args, kwargs):
    batch, steps, inputs = args[0].shape
    cell = args[1]
    hidden = cell.hidden_size
    gates = 3 if type(cell).__name__.lower().startswith("gru") else 1
    # GEMM FLOPs computed from the shapes: input and recurrent projections.
    flops = 2 * batch * steps * (inputs + hidden) * gates * hidden
    return lambda result: {"flops": flops}


def _probe_sequences(args, kwargs):  # (self or model, batch or set, ...)
    sequences = len(args[1])
    return lambda result: {"sequences": sequences}


def _probe_record_stage(args, kwargs):
    hashed = sum(os.path.getsize(p) for p in list(args[4]) + list(args[5]))
    return lambda result: {"bytes_hashed": hashed}


def _run_probe(call):
    # A probe reads the program's arguments and results; if a later change
    # alters them, the counts go missing (and their metrics read as absent)
    # but the stage still runs.
    try:
        return call()
    except Exception:
        return None


# (module, attribute path, span name, probe)
TARGETS = [
    ("ais_outliers.cli", "cmd_ingest", "cli.ingest", None),
    ("ais_outliers.cli", "cmd_preprocess", "cli.preprocess", None),
    ("ais_outliers.cli", "cmd_split", "cli.split", None),
    ("ais_outliers.cli", "cmd_train", "cli.train", None),
    ("ais_outliers.cli", "cmd_score", "cli.score", None),
    ("ais_outliers.cli", "cmd_export_geojson", "cli.export-geojson", None),
    ("ais_outliers.ingest", "parse_ais_csv", "ingest.parse_ais_csv", _probe_parse),
    ("ais_outliers.ingest", "filter_by_length", "ingest.filter_by_length", None),
    ("ais_outliers.ingest", "group_and_sort", "ingest.group_and_sort", None),
    ("ais_outliers.preprocess", "build_daily_grids", "preprocess.build_daily_grids", None),
    ("ais_outliers.preprocess", "resample_daily", "preprocess.resample_daily", _probe_resample),
    ("ais_outliers.preprocess", "interpolate_gaps", "preprocess.interpolate_gaps", None),
    ("ais_outliers.preprocess", "normalize_corpus", "preprocess.normalize_corpus", None),
    ("ais_outliers.preprocess", "save_corpus", "preprocess.save_corpus", None),
    ("ais_outliers.sequence", "split", "sequence.split", None),
    ("ais_outliers.sequence", "save_set", "sequence.save_set", None),
    ("ais_outliers.sequence", "load_set", "sequence.load_set", None),
    ("ais_outliers.nn.dropout", "sample_masks", "nn.dropout.sample_masks", None),
    ("ais_outliers.nn.layers", "unroll", "nn.layers.unroll", _probe_unroll),
    ("ais_outliers.nn.layers", "unroll_backward", "nn.layers.unroll_backward", None),
    ("ais_outliers.nn.layers", "dense_per_timestep", "nn.layers.dense_per_timestep", None),
    ("ais_outliers.nn.layers", "dense_backward", "nn.layers.dense_backward", None),
    ("ais_outliers.nn.model", "loss_and_gradients", BATCH, None),
    ("ais_outliers.nn.model", "RecurrentAutoencoder.reconstruct", "nn.model.reconstruct",
     _probe_sequences),
    ("ais_outliers.nn.adam", "adam_update", "nn.adam.adam_update", None),
    ("ais_outliers.nn.checkpoint", "save_checkpoint", "nn.checkpoint.save_checkpoint", None),
    ("ais_outliers.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load_checkpoint", None),
    ("ais_outliers.detect", "score_set", "detect.score_set", _probe_sequences),
    ("ais_outliers.detect", "fit_distribution", "detect.fit_distribution", None),
    ("ais_outliers.detect", "flag_outliers", "detect.flag_outliers", None),
    ("ais_outliers.geojson", "export_days", "geojson.export_days", None),
    ("ais_outliers.manifest", "RunManifest.record_stage", "manifest.record_stage",
     _probe_record_stage),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, counts]
        self.stack: list[int] = []
        self.absent: list[str] = []

    def install(self, targets) -> None:
        for module_name, path, span_name, probe in targets:
            *owner_path, attr = path.split(".")
            try:
                owner = module = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(span_name)
                continue
            wrapped = self.wrap(span_name, original, probe)
            setattr(owner, attr, wrapped)
            if owner is not module:
                continue
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith("ais_outliers"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    def wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = _run_probe(lambda: probe(args, kwargs)) if probe else None
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(index)
            span = [index, parent, name, time.perf_counter(), None, None]
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            if finish is not None:
                span[5] = _run_probe(lambda: finish(result))
            return result
        return traced

    def dump(self, path, stage: str) -> None:
        with open(path, "w") as fh:
            json.dump({"stage": stage, "absent": self.absent, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from ais_outliers import cli

    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, cli_args[0])


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pipeline (one spans file per stage)
# ---------------------------------------------------------------------------

# name -> (unit, better)
LAYER_METRICS = {}
for _stage in STAGES:
    LAYER_METRICS[f"cli.{_stage}.s"] = ("s", "lower")
    LAYER_METRICS[f"cli.{_stage}.peak_rss_mb"] = ("MB", "lower")
LAYER_METRICS.update({
    "cli.ingest.self_s": ("s", "lower"),
    "cli.preprocess.self_s": ("s", "lower"),
    "ingest.parse_ais_csv.s": ("s", "lower"),
    "ingest.parse_rows_per_s": ("rows/s", "higher"),
    "ingest.filter_by_length.s": ("s", "lower"),
    "ingest.group_and_sort.s": ("s", "lower"),
    "ingest.rss_bytes_per_row": ("B/row", "lower"),
    "preprocess.build_daily_grids.s": ("s", "lower"),
    "preprocess.resample_daily.calls": ("count", "lower"),
    "preprocess.resample_daily.s": ("s", "lower"),
    "preprocess.resample_daily.slots_filled_per_record_scanned": ("ratio", "higher"),
    "preprocess.interpolate_gaps.s": ("s", "lower"),
    "preprocess.normalize_corpus.s": ("s", "lower"),
    "preprocess.save_corpus.s": ("s", "lower"),
    "sequence.split.s": ("s", "lower"),
    "sequence.save_set.s": ("s", "lower"),
    "sequence.load_set.s": ("s", "lower"),
    "nn.train.batches": ("count", "lower"),
    "nn.dropout.sample_masks.ms_per_batch": ("ms/batch", "lower"),
    "nn.layers.unroll.ms_per_batch": ("ms/batch", "lower"),
    "nn.layers.unroll_backward.ms_per_batch": ("ms/batch", "lower"),
    "nn.layers.dense_per_timestep.ms_per_batch": ("ms/batch", "lower"),
    "nn.layers.dense_backward.ms_per_batch": ("ms/batch", "lower"),
    "nn.model.loss_and_gradients.ms_per_batch": ("ms/batch", "lower"),
    "nn.model.loss_and_gradients.self_ms_per_batch": ("ms/batch", "lower"),
    "nn.adam.adam_update.ms_per_batch": ("ms/batch", "lower"),
    "nn.layers.unroll.gflop_per_s": ("GFLOP/s", "higher"),
    "nn.model.reconstruct.s": ("s", "lower"),
    "nn.model.reconstruct.seq_per_s": ("seq/s", "higher"),
    "nn.checkpoint.save_checkpoint.s": ("s", "lower"),
    "nn.checkpoint.load_checkpoint.s": ("s", "lower"),
    "detect.score_set.s": ("s", "lower"),
    "detect.score_seq_per_s": ("seq/s", "higher"),
    "detect.fit_distribution.s": ("s", "lower"),
    "detect.flag_outliers.s": ("s", "lower"),
    "geojson.export_days.s": ("s", "lower"),
    "manifest.record_stage.s": ("s", "lower"),
    "manifest.bytes_hashed": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class _Spans:
    """Sums over the spans of one traced pipeline; None marks absent."""

    def __init__(self, stage_dumps: dict[str, dict]):
        self.absent = set()
        self.rows = []  # (stage, span, spans of that stage)
        for stage, dump in stage_dumps.items():
            self.absent.update(dump["absent"])
            spans = dump["spans"]
            self.rows += [(stage, span, spans) for span in spans]

    def _select(self, name, stage=None, under=None):
        if name in self.absent:
            return None
        picked = []
        for span_stage, span, spans in self.rows:
            if span[2] != name or (stage and span_stage != stage):
                continue
            if under and not self._has_ancestor(span, spans, under):
                continue
            picked.append((span, spans))
        return picked

    @staticmethod
    def _has_ancestor(span, spans, name):
        parent = span[1]
        while parent is not None:
            if spans[parent][2] == name:
                return True
            parent = spans[parent][1]
        return False

    def seconds(self, name, stage=None, under=None):
        picked = self._select(name, stage, under)
        return None if picked is None else sum(s[4] - s[3] for s, _ in picked)

    def self_seconds(self, name, stage=None, under=None):
        picked = self._select(name, stage, under)
        if picked is None:
            return None
        total = 0.0
        for span, spans in picked:
            children = sum(c[4] - c[3] for c in spans if c[1] == span[0])
            total += (span[4] - span[3]) - children
        return total

    def calls(self, name, stage=None, under=None):
        picked = self._select(name, stage, under)
        return None if picked is None else len(picked)

    def count(self, name, key, stage=None, under=None):
        picked = self._select(name, stage, under)
        if picked is None or any(s[5] is None for s, _ in picked):
            return None
        return sum(s[5][key] for s, _ in picked)


def _ratio(numerator, denominator, scale=1.0):
    if numerator is None or denominator is None or denominator == 0:
        return None
    return numerator * scale / denominator


def layer_metrics(stage_dumps: dict[str, dict]) -> dict[str, float | None]:
    """Span-derived per-layer metrics of one traced pipeline (stage -> dump).

    The cli.<stage>.s / .peak_rss_mb and trace.overhead_s entries are
    measured from outside the program and filled in by `run.py`.
    """
    sp = _Spans(stage_dumps)
    m: dict[str, float | None] = {
        "cli.ingest.self_s": sp.self_seconds("cli.ingest"),
        "cli.preprocess.self_s": sp.self_seconds("cli.preprocess"),
    }
    for name in ("ingest.parse_ais_csv", "ingest.filter_by_length", "ingest.group_and_sort",
                 "preprocess.build_daily_grids", "preprocess.resample_daily",
                 "preprocess.interpolate_gaps", "preprocess.normalize_corpus",
                 "sequence.split", "sequence.save_set", "sequence.load_set",
                 "nn.model.reconstruct", "nn.checkpoint.save_checkpoint",
                 "nn.checkpoint.load_checkpoint", "detect.score_set",
                 "detect.fit_distribution", "detect.flag_outliers", "geojson.export_days",
                 "manifest.record_stage"):
        m[f"{name}.s"] = sp.seconds(name)
    m["preprocess.save_corpus.s"] = sp.seconds("preprocess.save_corpus", stage="preprocess")

    m["ingest.parse_rows_per_s"] = _ratio(sp.count("ingest.parse_ais_csv", "rows"),
                                          m["ingest.parse_ais_csv.s"])
    m["ingest.rss_bytes_per_row"] = _ratio(
        sp.count("ingest.parse_ais_csv", "rss_growth_bytes"),
        sp.count("ingest.parse_ais_csv", "rows"))
    m["preprocess.resample_daily.calls"] = sp.calls("preprocess.resample_daily")
    m["preprocess.resample_daily.slots_filled_per_record_scanned"] = _ratio(
        sp.count("preprocess.resample_daily", "slots_filled"),
        sp.count("preprocess.resample_daily", "records_scanned"))

    batches = sp.calls(BATCH, stage="train")
    m["nn.train.batches"] = batches
    per_batch = {
        "nn.dropout.sample_masks": sp.seconds("nn.dropout.sample_masks", stage="train"),
        "nn.adam.adam_update": sp.seconds("nn.adam.adam_update", stage="train"),
        BATCH: sp.seconds(BATCH, stage="train"),
    }
    for name in ("nn.layers.unroll", "nn.layers.unroll_backward",
                 "nn.layers.dense_per_timestep", "nn.layers.dense_backward"):
        per_batch[name] = sp.seconds(name, stage="train", under=BATCH)
    for name, seconds in per_batch.items():
        m[f"{name}.ms_per_batch"] = _ratio(seconds, batches, 1e3)
    m[f"{BATCH}.self_ms_per_batch"] = _ratio(sp.self_seconds(BATCH, stage="train"),
                                             batches, 1e3)
    m["nn.layers.unroll.gflop_per_s"] = _ratio(
        sp.count("nn.layers.unroll", "flops", stage="train", under=BATCH),
        per_batch["nn.layers.unroll"], 1e-9)

    m["nn.model.reconstruct.seq_per_s"] = _ratio(
        sp.count("nn.model.reconstruct", "sequences"), m["nn.model.reconstruct.s"])
    m["detect.score_seq_per_s"] = _ratio(sp.count("detect.score_set", "sequences"),
                                         m["detect.score_set.s"])
    m["manifest.bytes_hashed"] = sp.count("manifest.record_stage", "bytes_hashed")
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
