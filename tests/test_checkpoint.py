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


# -- other formats and other config keys --------------------------------------

_V1_PARTS = {"w_x": ("w_xz", "w_xr", "w_xh"), "w_h": ("w_hz", "w_hr", "w_hh"),
             "b": ("b_z", "b_r", "b_h")}


def _v1_gate_tensors(flat: dict) -> dict:
    """Fused GRU tensors split into format 1's per-gate names."""
    out = {}
    for name, arr in flat.items():
        prefix, _, fused = name.rpartition(".")
        if name.startswith("layer"):
            for part, block in zip(_V1_PARTS[fused], np.split(arr, 3, axis=-1)):
                out[f"{prefix}.{part}"] = block
        else:
            out[name] = arr
    return out


def _stacked_two_layer(cell_kind):
    cfg = ModelConfig(cell_kind=cell_kind, bidirectional=True, layers=2, hidden=5,
                      timesteps=6, features=4)
    return RecurrentAutoencoder.initialize(cfg, 8)


def _assert_one_line_refusal(path, named):
    with pytest.raises(DataError, match=named) as info:
        load_checkpoint(path)
    assert "\n" not in str(info.value) and "`train`" in str(info.value)


@pytest.mark.parametrize("version, extra, named", [
    (1, {"dtype": "float64"}, "format 1"),
    (3, {}, "format 3"),
    (2, {"gru_convention": "z_gates_state"}, "gru_convention"),
    (2, {"dtype": "float64"}, "dtype"),
], ids=["format_1", "format_3", "gru_convention_key", "dtype_key"])
def test_other_format_or_config_key_is_one_line_refusal(tmp_path, version, extra, named):
    model = build_model()
    path = tmp_path / "old.ckpt"
    path.write_bytes(_checkpoint_bytes(version, dict(model.config.to_dict(), **extra),
                                       model.params.flat()))
    _assert_one_line_refusal(path, named)


@pytest.mark.parametrize("cell_kind", ["gru", "simple_rnn"])
def test_version_1_checkpoint_with_its_own_tensor_names_is_refused(tmp_path, cell_kind):
    # A format-1 file as it was written: `dtype` in its config and, for a
    # GRU, the per-gate tensor names. It is refused on its version alone.
    model = _stacked_two_layer(cell_kind)
    flat = model.params.flat()
    if cell_kind == "gru":
        flat = _v1_gate_tensors(flat)
    path = tmp_path / "v1.ckpt"
    path.write_bytes(_checkpoint_bytes(1, dict(model.config.to_dict(), dtype="float64"),
                                       flat))
    _assert_one_line_refusal(path, "format 1")


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("cell_kind, convention", [
    ("gru", "z_gates_candidate"), ("gru", "z_gates_state"), ("gru", "mystery"),
    ("simple_rnn", "z_gates_candidate"), ("simple_rnn", "z_gates_state")])
def test_checkpoint_naming_a_gru_convention_is_refused(tmp_path, version, cell_kind,
                                                       convention):
    # Every value of the key, the one that changed nothing included, is
    # refused in one line: no such file loads as some other cell.
    model = _stacked_two_layer(cell_kind)
    config = dict(model.config.to_dict(), gru_convention=convention)
    flat = model.params.flat()
    if version == 1:
        config["dtype"] = "float64"
        if cell_kind == "gru":
            flat = _v1_gate_tensors(flat)
    path = tmp_path / "old.ckpt"
    path.write_bytes(_checkpoint_bytes(version, config, flat))
    _assert_one_line_refusal(path, "format 1" if version == 1 else "gru_convention")


@pytest.mark.parametrize("batch_size", [1, 8, 64])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_loaded_checkpoint_trains_as_stored(tmp_path, bidirectional, n_layers, dropout,
                                            batch_size):
    # Through every scan path (one stacked scan up to batch 32, one per
    # direction above it; stacked layers; dropout masks), a GRU saved and
    # loaded gives the stored model's forward pass and gradients.
    rate = 0.3 if dropout else 0.0
    cfg = ModelConfig(cell_kind="gru", bidirectional=bidirectional, layers=n_layers,
                      hidden=4, timesteps=20, features=4, dropout_rate=rate,
                      recurrent_dropout_rate=rate, input_dropout_rate=rate,
                      dense_dropout_rate=rate)
    stored = RecurrentAutoencoder.initialize(cfg, 41)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, stored)
    loaded = load_checkpoint(path)
    rng = np.random.default_rng(43)
    batch = rng.uniform(0, 1, (batch_size, cfg.timesteps, cfg.features))
    masks = sample_masks(cfg, batch_size, rng) if dropout else None
    pred, _, ref_grads = reference_loss_and_gradients(stored.params, cfg, batch, masks)
    mode = "train" if masks else "eval"
    npt.assert_allclose(loaded.forward(batch, mode=mode, masks=masks), pred,
                        rtol=0, atol=1e-12)
    _, grads = loaded.loss_and_gradients(batch, masks)
    _, stored_grads = stored.loss_and_gradients(batch, masks)
    for name, arr in grads.flat().items():
        npt.assert_allclose(arr, ref_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)
        npt.assert_array_equal(arr, stored_grads.flat()[name], err_msg=name)


@pytest.mark.parametrize("config", [5, "x", None])
def test_config_not_an_object_is_data_error(tmp_path, config):
    path = tmp_path / "model.ckpt"
    path.write_bytes(_checkpoint_bytes(2, config, build_model().params.flat()))
    with pytest.raises(DataError, match="truncated or corrupt"):
        load_checkpoint(path)
