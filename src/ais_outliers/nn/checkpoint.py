"""Versioned binary checkpoints.

Layout: magic, format version, config JSON, then every parameter tensor in
declaration order as little-endian float64.

Version 2, the only one read, stores each cell's fused tensors (w_x, w_h, b).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import ConfigError, DataError
from .model import ModelConfig, ModelParams, RecurrentAutoencoder

MAGIC = b"AISRAE\x00\x01"
FORMAT_VERSION = 2


def save_checkpoint(path, model: RecurrentAutoencoder) -> None:
    """Write the model's config and weights to `path`."""
    flat = model.params.flat()
    config_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(flat)))
        for name, arr in flat.items():
            blob = name.encode()
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> RecurrentAutoencoder:
    """Rebuild a model bit-exactly from a checkpoint file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    data = path.read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path} is not a model checkpoint (bad magic)")
    try:
        return _decode(data)
    except (struct.error, ValueError, TypeError, KeyError, ConfigError) as exc:
        raise DataError(f"checkpoint {path} is truncated or corrupt: {exc} "
                        "(run `train` again)") from None


def _decode(data: bytes) -> RecurrentAutoencoder:
    offset = len(MAGIC)

    def take(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        values = struct.unpack_from(fmt, data, offset)
        offset += size
        return values

    (version,) = take("<I")
    if version != FORMAT_VERSION:
        raise DataError(f"checkpoint format {version} is not read; "
                        f"only format {FORMAT_VERSION} is (run `train` again)")
    (config_len,) = take("<I")
    config = ModelConfig.from_dict(json.loads(data[offset:offset + config_len]))
    offset += config_len

    loaded: dict[str, np.ndarray] = {}
    (n_tensors,) = take("<I")
    for _ in range(n_tensors):
        (name_len,) = take("<I")
        name = data[offset:offset + name_len].decode()
        offset += name_len
        (ndim,) = take("<I")
        shape = take(f"<{ndim}I")
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        loaded[name] = arr.reshape(shape)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} bytes follow its last tensor")

    # Layout from config, then fill every tensor by stored name.
    params = ModelParams.zeros(config)
    flat = params.flat()
    if set(loaded) != set(flat):
        raise DataError(
            f"checkpoint tensors do not match the config: missing "
            f"{sorted(set(flat) - set(loaded))}, unexpected {sorted(set(loaded) - set(flat))}")
    for name, arr in flat.items():
        if loaded[name].shape != arr.shape:
            raise DataError(
                f"tensor {name} has shape {loaded[name].shape}, expected {arr.shape}")
        arr[...] = loaded[name]
    return RecurrentAutoencoder(config, params)
