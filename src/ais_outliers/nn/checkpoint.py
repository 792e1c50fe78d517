"""Versioned binary checkpoints.

Layout: magic, format version, config JSON, then every parameter tensor in
declaration order as little-endian float64. A human-readable JSON manifest
(config, seed, epoch, losses) is written next to the binary.

Version 2 stores each cell's fused tensors (w_x, w_h, b). Version 1 stored
the GRU gates separately and the config carried a `dtype` key; it is still
read, by concatenating the per-gate tensors and dropping that key.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError
from .model import ModelConfig, RecurrentAutoencoder, init_params

MAGIC = b"AISRAE\x00\x01"
FORMAT_VERSION = 2
# Fused tensor -> the version-1 GRU tensors it concatenates, in gate order.
_V1_GRU_PARTS = {"w_x": ("w_xz", "w_xr", "w_xh"),
                 "w_h": ("w_hz", "w_hr", "w_hh"),
                 "b": ("b_z", "b_r", "b_h")}


def save_checkpoint(path, model: RecurrentAutoencoder,
                    manifest: dict | None = None) -> None:
    """Write the model to `path` and its manifest to `path + '.manifest.json'`."""
    path = Path(path)
    flat = model.params.flat()
    config_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    with open(path, "wb") as fh:
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

    meta = {"config": model.config.to_dict(), "format_version": FORMAT_VERSION}
    if manifest:
        meta.update(manifest)
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


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
        raise DataError(f"checkpoint {path} is truncated or corrupt: {exc}") from None


def _decode(data: bytes) -> RecurrentAutoencoder:
    offset = len(MAGIC)

    def take(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        values = struct.unpack_from(fmt, data, offset)
        offset += size
        return values

    (version,) = take("<I")
    if version not in (1, FORMAT_VERSION):
        raise DataError(f"unsupported checkpoint version {version}")
    (config_len,) = take("<I")
    config_dict = json.loads(data[offset:offset + config_len])
    offset += config_len
    if version == 1:
        config_dict.pop("dtype", None)
    config = ModelConfig.from_dict(config_dict)

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
        loaded[name] = arr.reshape(shape).astype(np.float64)
    if version == 1:
        loaded = _fuse_v1_gates(loaded)

    # Structure from config, then overwrite every tensor by stored name.
    params = init_params(config, np.random.default_rng(0))
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


def _fuse_v1_gates(loaded: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Concatenate version-1 per-gate GRU tensors into the fused ones."""
    for fused, parts in _V1_GRU_PARTS.items():
        for name in [n for n in loaded if n.endswith("." + parts[0])]:
            prefix = name[: -len(parts[0])]
            loaded[prefix + fused] = np.concatenate(
                [loaded.pop(prefix + part) for part in parts], axis=-1)
    return loaded
