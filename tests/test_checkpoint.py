import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import DataError
from ais_outliers.nn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ais_outliers.nn.dropout import sample_masks
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder

from oracles import reference_loss_and_gradients


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


def _checkpoint_bytes(version: int, config: dict, tensors: dict) -> bytes:
    """A checkpoint of `version` holding `config` and `tensors` as given."""
    blob = json.dumps(config, sort_keys=True).encode()
    out = [MAGIC, struct.pack("<II", version, len(blob)), blob,
           struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        out += [struct.pack("<I", len(name)), name.encode(),
                struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
                arr.astype("<f8").tobytes()]
    return b"".join(out)


def _v1_checkpoint_bytes(config: dict, tensors: dict) -> bytes:
    """A checkpoint in the version-1 layout: per-gate GRU tensors and a
    config that still carries `dtype`."""
    return _checkpoint_bytes(1, dict(config, dtype="float64"), tensors)


_V1_PARTS = {"w_x": ("w_xz", "w_xr", "w_xh"), "w_h": ("w_hz", "w_hr", "w_hh"),
             "b": ("b_z", "b_r", "b_h")}


def _v1_gate_tensors(flat: dict) -> dict:
    """Fused tensors split into the version-1 per-gate GRU names."""
    out = {}
    for name, arr in flat.items():
        prefix, _, fused = name.rpartition(".")
        if name.startswith("layer"):
            for part, block in zip(_V1_PARTS[fused], np.split(arr, 3, axis=-1)):
                out[f"{prefix}.{part}"] = block
        else:
            out[name] = arr
    return out


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


# -- checkpoints whose config names the GRU update rule ----------------------
# Older configs carry `gru_convention`. "z_gates_state" (h = z * h_prev +
# (1 - z) * h~) loads as today's rule with the update gate negated.

def _convention_checkpoint(path, model, version, convention):
    config = dict(model.config.to_dict(), gru_convention=convention)
    flat = model.params.flat()
    if version == 1:
        config["dtype"] = "float64"
        if model.config.cell_kind == "gru":
            flat = _v1_gate_tensors(flat)
    path.write_bytes(_checkpoint_bytes(version, config, flat))


def _stacked_two_layer(cell_kind):
    cfg = ModelConfig(cell_kind=cell_kind, bidirectional=True, layers=2, hidden=5,
                      timesteps=6, features=4)
    return RecurrentAutoencoder.initialize(cfg, 8)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("cell_kind, convention", [
    ("gru", "z_gates_candidate"), ("simple_rnn", "z_gates_candidate"),
    ("simple_rnn", "z_gates_state")])
def test_convention_that_changes_nothing_loads_bitwise(tmp_path, version, cell_kind,
                                                       convention):
    model = _stacked_two_layer(cell_kind)
    path = tmp_path / "old.ckpt"
    _convention_checkpoint(path, model, version, convention)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    npt.assert_array_equal(loaded.params.vector, model.params.vector)


@pytest.mark.parametrize("version", [1, 2])
def test_z_gates_state_checkpoint_reconstructs_as_stored(tmp_path, rng, version):
    model = _stacked_two_layer("gru")
    path = tmp_path / "old.ckpt"
    _convention_checkpoint(path, model, version, "z_gates_state")
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    batch = rng.uniform(0, 1, (7, 6, 4))
    expected = reference_loss_and_gradients(model.params, model.config, batch, None,
                                            "z_gates_state")[0]
    npt.assert_allclose(loaded.reconstruct(batch), expected, rtol=0, atol=1e-12)
    for (name, a), b in zip(loaded.params.flat().items(), model.params.flat().values()):
        if name.startswith("layer"):  # every block but the update gate's as stored
            h = model.config.hidden
            npt.assert_array_equal(a[..., :h], -b[..., :h])
            npt.assert_array_equal(a[..., h:], b[..., h:])
        else:
            npt.assert_array_equal(a, b)


@pytest.mark.parametrize("batch_size", [1, 8, 64])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_z_gates_state_checkpoint_trains_as_stored(tmp_path, bidirectional, n_layers,
                                                   dropout, batch_size):
    # Through every scan path (one stacked scan up to batch 32, one per
    # direction above it; stacked layers; dropout masks), the loaded model's
    # forward pass is the stored model's, and its gradients are the stored
    # model's with the update gate's blocks negated.
    rate = 0.3 if dropout else 0.0
    cfg = ModelConfig(cell_kind="gru", bidirectional=bidirectional, layers=n_layers,
                      hidden=4, timesteps=20, features=4, dropout_rate=rate,
                      recurrent_dropout_rate=rate, input_dropout_rate=rate,
                      dense_dropout_rate=rate)
    stored = RecurrentAutoencoder.initialize(cfg, 41)
    path = tmp_path / "old.ckpt"
    _convention_checkpoint(path, stored, 2, "z_gates_state")
    loaded = load_checkpoint(path)
    rng = np.random.default_rng(43)
    batch = rng.uniform(0, 1, (batch_size, cfg.timesteps, cfg.features))
    masks = sample_masks(cfg, batch_size, rng) if dropout else None
    pred, _, ref_grads = reference_loss_and_gradients(stored.params, cfg, batch, masks,
                                                      "z_gates_state")
    mode = "train" if masks else "eval"
    npt.assert_allclose(loaded.forward(batch, mode=mode, masks=masks), pred,
                        rtol=0, atol=1e-12)
    _, grads = loaded.loss_and_gradients(batch, masks)
    for name, arr in grads.flat().items():
        expected = ref_grads[name].copy()
        if name.startswith("layer"):
            expected[..., :cfg.hidden] *= -1.0
        npt.assert_allclose(arr, expected, rtol=1e-9, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("version", [1, 2])
def test_unknown_convention_is_one_line_data_error(tmp_path, version):
    path = tmp_path / "old.ckpt"
    _convention_checkpoint(path, _stacked_two_layer("gru"), version, "mystery")
    with pytest.raises(DataError, match="gru_convention") as info:
        load_checkpoint(path)
    assert "\n" not in str(info.value)
