"""Run manifest: one JSON file per run directory recording, for every
stage, the effective configuration, input/output checksums, tool version,
and wall time. A run is reconstructible from this file plus the inputs."""

from __future__ import annotations

import hashlib
import json
import resource
from pathlib import Path

from .atomic import atomic_write
from .errors import DataError

MANIFEST_NAME = "manifest.json"


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
                self.data = json.loads(self.path.read_text())
            except ValueError:  # not UTF-8 or not JSON, e.g. truncated
                self.data = None
            if not isinstance(self.data, dict) or not isinstance(self.data.get("stages"), dict):
                raise DataError(f"{self.path} is truncated or not a run manifest "
                                f"(a JSON object with a 'stages' object)")

    def record_stage(self, name: str, config_text: str, version: str,
                     inputs: list, outputs: list, wall_seconds: float,
                     extra: dict | None = None) -> None:
        """Record (or replace, on rerun) one stage's provenance."""
        entry = {
            "tool_version": version,
            "wall_seconds": round(wall_seconds, 3),
            "config": config_text,
            "inputs": {str(p): file_sha256(p) for p in inputs},
            "outputs": {str(p): file_sha256(p) for p in outputs},
        }
        if extra:
            entry["extra"] = extra
        self.data["stages"][name] = entry
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with atomic_write(self.path, "w") as fh:
            fh.write(json.dumps(self.data, indent=2, sort_keys=True) + "\n")
