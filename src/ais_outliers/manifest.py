"""Run manifest: one JSON file per run directory recording, for every
stage, the effective configuration, input/output checksums, tool version,
and wall time. A run is reconstructible from this file plus the inputs."""

from __future__ import annotations

import hashlib
import json
import math
import resource
from pathlib import Path

from .atomic import atomic_write
from .errors import DataError

MANIFEST_NAME = "manifest.json"
# Pipeline order: a stage's rerun leaves the entries of the stages after it stale.
STAGES = ("ingest", "preprocess", "split", "train", "score", "export-geojson")


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux reports
    `ru_maxrss` in KB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def file_sha256(path) -> str:
    """SHA-256 of a file, read through one reused 64 KiB buffer (not a new
    `bytes` object per read; `hashlib.file_digest` needs Python 3.11)."""
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            digest.update(buffer[:n])
    return digest.hexdigest()


class RunManifest:
    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / MANIFEST_NAME
        self.data = {"stages": {}}
        if self.path.exists():
            try:
                # A bare NaN that an older writer left reads as null.
                self.data = json.loads(self.path.read_text(), parse_constant=lambda _: None)
            except ValueError:  # not UTF-8 or not JSON, e.g. truncated
                self.data = None
            if not isinstance(self.data, dict) or not isinstance(self.data.get("stages"), dict):
                raise DataError(f"{self.path} is truncated or not a run manifest "
                                f"(a JSON object with a 'stages' object)")

    def record_stage(self, name: str, config_text: str, version: str,
                     inputs: list, outputs: list, wall_seconds: float,
                     extra: dict | None = None) -> None:
        """Record (or replace, on rerun) one stage's provenance, and drop the
        entries of the stages after it. A path inside the run directory is
        recorded relative to it, any other as an absolute path. A non-finite
        float in `extra` (a loss with no validation set, say) is written as
        null, so the file stays JSON."""
        root = self.run_dir.resolve()

        def as_key(path) -> str:
            path = Path(path).resolve()
            return str(path.relative_to(root) if path.is_relative_to(root) else path)

        entry = {
            "tool_version": version,
            "wall_seconds": round(wall_seconds, 3),
            "config": config_text,
            "inputs": {as_key(p): file_sha256(p) for p in inputs},
            "outputs": {as_key(p): file_sha256(p) for p in outputs},
        }
        if extra:
            entry["extra"] = {key: None if isinstance(value, float) and not math.isfinite(value)
                              else value for key, value in extra.items()}
        for later in STAGES[STAGES.index(name) + 1:]:
            self.data["stages"].pop(later, None)
        self.data["stages"][name] = entry
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with atomic_write(self.path, "w") as fh:
            fh.write(json.dumps(self.data, indent=2, sort_keys=True, allow_nan=False) + "\n")
