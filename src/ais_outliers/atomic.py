"""Atomic artifact writes.

An artifact is written to a temporary file beside it and then renamed over
it, so a stage that fails or is killed mid-write leaves the previous file
(or none), never a half-written one that a later stage would trust.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "wb", newline: str | None = None):
    """Open a temporary file next to `path`; replace `path` with it on success.

    `mode` and `newline` are as for `open`. On any exception the temporary
    file is removed and `path` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
