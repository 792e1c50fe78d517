import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import DataError
from ais_outliers.nn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder


def build_model(seed=4):
    cfg = ModelConfig(cell_kind="gru", bidirectional=True, layers=1, hidden=5,
                      timesteps=6, features=4, recurrent_dropout_rate=0.2)
    return RecurrentAutoencoder.initialize(cfg, seed)


def test_roundtrip_is_bit_exact(tmp_path, rng):
    model = build_model()
    batch = rng.uniform(0, 1, (3, 6, 4))
    before = model.forward(batch)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    after = loaded.forward(batch)
    npt.assert_array_equal(before, after)
    assert loaded.config == model.config


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_truncated_file_rejected(tmp_path):
    model = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    data = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", data, len(MAGIC) + 4)
    header_only = len(MAGIC) + 8 + config_len
    for cut in (data[:-100], data[:40], data[:header_only], data[: len(data) // 2]):
        path.write_bytes(cut)
        with pytest.raises(DataError, match="truncated or corrupt"):
            load_checkpoint(path)


def _v1_checkpoint_bytes(config: dict, tensors: dict) -> bytes:
    """A checkpoint in the version-1 layout: per-gate GRU tensors and a
    config that still carries `dtype`."""
    blob = json.dumps(dict(config, dtype="float64"), sort_keys=True).encode()
    out = [MAGIC, struct.pack("<II", 1, len(blob)), blob, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        out += [struct.pack("<I", len(name)), name.encode(),
                struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
                arr.astype("<f8").tobytes()]
    return b"".join(out)


@pytest.mark.parametrize("cell_kind, v1_names", [
    ("gru", ["w_xz", "w_hz", "b_z", "w_xr", "w_hr", "b_r", "w_xh", "w_hh", "b_h"]),
    ("simple_rnn", ["w_x", "w_h", "b"]),
])
def test_version_1_checkpoint_loads_into_fused_tensors(tmp_path, rng, cell_kind, v1_names):
    cfg = ModelConfig(cell_kind=cell_kind, bidirectional=True, hidden=3,
                      timesteps=6, features=4)
    tensors = {}
    for tag in ("fwd", "bwd"):
        for name in v1_names:
            shape = {"w_x": (4, 3), "w_h": (3, 3)}.get(name[:3], (3,))
            tensors[f"layer0.{tag}.{name}"] = rng.uniform(-1, 1, shape)
    tensors["dense.w"] = rng.uniform(-1, 1, (6, 4))
    tensors["dense.b"] = rng.uniform(-1, 1, 4)
    path = tmp_path / "v1.ckpt"
    path.write_bytes(_v1_checkpoint_bytes(cfg.to_dict(), tensors))

    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    flat = loaded.params.flat()
    for tag in ("fwd", "bwd"):
        for fused in ("w_x", "w_h", "b"):
            parts = [tensors[f"layer0.{tag}.{n}"] for n in v1_names if n.startswith(fused)]
            npt.assert_array_equal(flat[f"layer0.{tag}.{fused}"],
                                   np.concatenate(parts, axis=-1))
    npt.assert_array_equal(flat["dense.w"], tensors["dense.w"])
    assert len(flat) == 2 * 3 + 2


def test_reload_then_retrain_consistency(tmp_path, rng):
    # Loaded parameters must be genuinely independent arrays.
    model = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    for (name_a, a), (name_b, b) in zip(model.params.flat().items(),
                                        loaded.params.flat().items()):
        assert name_a == name_b
        npt.assert_array_equal(a, b)
        assert a is not b
