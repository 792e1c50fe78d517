import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ConfigError, NumericError, ShapeError
from ais_outliers.nn.dropout import sample_masks
from ais_outliers.nn.layers import dense_per_timestep, unroll
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder, mse_loss

from oracles import finite_difference_gradients, max_relative_error, mse_loop


def toy_config(**kw):
    base = dict(cell_kind="gru", bidirectional=False, layers=1, hidden=3,
                timesteps=4, features=4)
    base.update(kw)
    return ModelConfig(**base)


def make_model(cfg, seed=0):
    return RecurrentAutoencoder.initialize(cfg, seed)


def batch_for(cfg, rng, batch=2):
    return rng.uniform(0, 1, size=(batch, cfg.timesteps, cfg.features))


# -- configuration validation ------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(cell_kind="lstm"),
    dict(layers=0),
    dict(dropout_rate=1.0),
    dict(recurrent_dropout_rate=-0.1),
    dict(gru_convention="mystery"),
])
def test_bad_configs_rejected(kw):
    with pytest.raises(ConfigError):
        toy_config(**kw)


def test_variant_presets_match_documented_defaults():
    stacked = ModelConfig.stacked_default()
    assert (stacked.layers, stacked.hidden, stacked.dropout_rate) == (2, 64, 0.2)
    assert not stacked.bidirectional
    bidir = ModelConfig.bidirectional_default()
    assert bidir.bidirectional and bidir.layers == 1 and bidir.hidden == 32
    assert bidir.recurrent_dropout_rate == 0.2
    assert bidir.dense_dropout_rate == 0.2


# -- forward -----------------------------------------------------------------

def test_eval_forward_is_deterministic(rng):
    cfg = toy_config(recurrent_dropout_rate=0.5, dense_dropout_rate=0.5)
    model = make_model(cfg)
    batch = batch_for(cfg, rng)
    a = model.forward(batch, mode="eval")
    b = model.forward(batch, mode="eval")
    npt.assert_array_equal(a, b)


def test_zero_initialized_model_reconstructs_zeros(rng):
    cfg = toy_config()
    model = make_model(cfg)
    for arr in model.params.flat().values():
        arr[...] = 0.0
    out = model.forward(batch_for(cfg, rng))
    npt.assert_array_equal(out, np.zeros_like(out))


def test_two_layer_forward_composes_from_single_layers(rng):
    cfg = toy_config(layers=2, hidden=3)
    model = make_model(cfg, seed=5)
    batch = batch_for(cfg, rng, batch=3)
    pred = model.forward(batch)
    l0 = model.params.layers[0].forward_cell
    l1 = model.params.layers[1].forward_cell
    h1 = unroll(batch, l0)[0]
    h2 = unroll(h1, l1)[0]
    expected = dense_per_timestep(h2, model.params.w_out, model.params.b_out)
    npt.assert_allclose(pred, expected, atol=1e-15)


def test_bidirectional_forward_composes(rng):
    cfg = toy_config(bidirectional=True)
    model = make_model(cfg, seed=6)
    batch = batch_for(cfg, rng)
    pred = model.forward(batch)
    layer = model.params.layers[0]
    fwd = unroll(batch, layer.forward_cell, "forward")[0]
    bwd = unroll(batch, layer.backward_cell, "backward")[0]
    stacked = np.concatenate([fwd, bwd], axis=-1)
    expected = dense_per_timestep(stacked, model.params.w_out, model.params.b_out)
    npt.assert_allclose(pred, expected, atol=1e-15)


def test_eval_mode_ignores_dropout_rates(rng):
    batch = None
    outputs = []
    for rate in (0.0, 0.5):
        cfg = toy_config(recurrent_dropout_rate=rate, dense_dropout_rate=rate,
                         input_dropout_rate=rate)
        model = make_model(cfg, seed=3)
        if batch is None:
            batch = batch_for(cfg, rng)
        outputs.append(model.forward(batch, mode="eval"))
    npt.assert_array_equal(outputs[0], outputs[1])


def test_train_mode_requires_rng_or_masks(rng):
    cfg = toy_config(recurrent_dropout_rate=0.5)
    model = make_model(cfg)
    with pytest.raises(ConfigError):
        model.forward(batch_for(cfg, rng), mode="train")


def test_nonfinite_input_raises_with_layer_name(rng):
    cfg = toy_config()
    model = make_model(cfg)
    batch = batch_for(cfg, rng)
    batch[0, 0, 0] = np.inf
    with pytest.raises(NumericError, match="layer 0"):
        model.forward(batch)


def test_nonfinite_intermediate_raises_with_layer_index(rng):
    cfg = toy_config(layers=2)
    model = make_model(cfg)
    model.params.layers[1].forward_cell.b_z[...] = np.nan
    with pytest.raises(NumericError, match="layer 1"):
        model.forward(batch_for(cfg, rng))


def test_batch_shape_validated(rng):
    cfg = toy_config()
    model = make_model(cfg)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 5, 4)))


def test_reconstruct_is_row_equivariant(rng):
    cfg = toy_config()
    model = make_model(cfg, seed=21)
    batch = batch_for(cfg, rng, batch=5)
    perm = np.array([3, 0, 4, 1, 2])
    npt.assert_array_equal(model.reconstruct(batch)[perm],
                           model.reconstruct(batch[perm]))


def test_reconstruct_keeps_no_bptt_cache():
    # Eval mode holds the input projection and the states, not the per-step
    # training cache. With the cache, the peak was over 7x the (B, T, 2H)
    # hidden states; without it, under 3x.
    cfg = ModelConfig(cell_kind="gru", bidirectional=True, hidden=16)
    model = make_model(cfg)
    batch = np.random.default_rng(0).uniform(0, 1, (1280, cfg.timesteps, cfg.features))
    hidden_bytes = batch.shape[0] * cfg.timesteps * 2 * cfg.hidden * 8
    tracemalloc.start()
    try:
        model.reconstruct(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * hidden_bytes, f"peak {peak / 1e6:.1f} MB"


# -- loss ----------------------------------------------------------------------

def test_mse_zero_when_equal(rng):
    x = rng.uniform(-1, 1, (2, 4, 4))
    assert mse_loss(x, x) == 0.0


def test_mse_constant_offset():
    pred = np.zeros((2, 48, 4)) + 0.1
    target = np.zeros((2, 48, 4))
    assert mse_loss(pred, target) == pytest.approx(0.01, abs=1e-15)


def test_mse_matches_scalar_loop(rng):
    pred = rng.uniform(-1, 1, (3, 5, 4))
    target = rng.uniform(-1, 1, (3, 5, 4))
    assert mse_loss(pred, target) == pytest.approx(mse_loop(pred, target), abs=1e-15)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 4, 4)), np.zeros((2, 5, 4)))


# -- gradients -----------------------------------------------------------------

def gradient_check(cfg, seed, batch_size=2, with_dropout=False, floor=1e-6):
    rng = np.random.default_rng(seed)
    model = make_model(cfg, seed=seed)
    batch = rng.uniform(0, 1, size=(batch_size, cfg.timesteps, cfg.features))
    masks = None
    if with_dropout:
        masks = sample_masks(cfg, batch_size, rng)
    _, analytic = model.loss_and_gradients(batch, masks)
    flat = model.params.flat()
    numeric = finite_difference_gradients(
        lambda: model.loss_and_gradients(batch, masks)[0], flat, step=1e-5)
    return max_relative_error(analytic, numeric, floor=floor)


def test_zero_loss_point_has_zero_gradients():
    cfg = toy_config()
    model = make_model(cfg)
    for arr in model.params.flat().values():
        arr[...] = 0.0
    batch = np.zeros((2, cfg.timesteps, cfg.features))
    loss, grads = model.loss_and_gradients(batch, None)
    assert loss == 0.0
    for g in grads.values():
        npt.assert_array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("cell", ["simple_rnn", "gru"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_gradients_match_finite_differences(cell, bidirectional):
    cfg = toy_config(cell_kind=cell, bidirectional=bidirectional, hidden=3,
                     timesteps=4)
    assert gradient_check(cfg, seed=13) < 1e-4


def test_gradients_with_frozen_dropout_masks():
    cfg = toy_config(cell_kind="gru", bidirectional=True, hidden=2, timesteps=3,
                     recurrent_dropout_rate=0.4, input_dropout_rate=0.3,
                     dense_dropout_rate=0.3)
    assert gradient_check(cfg, seed=17, with_dropout=True) < 1e-4


def test_gradients_stacked_with_interlayer_dropout():
    cfg = toy_config(cell_kind="gru", layers=2, hidden=2, timesteps=3,
                     dropout_rate=0.4)
    assert gradient_check(cfg, seed=19, with_dropout=True) < 1e-4


def test_gradients_opposite_gru_convention():
    cfg = toy_config(cell_kind="gru", gru_convention="z_gates_state",
                     hidden=2, timesteps=3)
    assert gradient_check(cfg, seed=23) < 1e-4


def test_masked_loss_ignores_sentinel_cells(rng):
    cfg = toy_config()
    model = make_model(cfg, seed=8)
    batch = batch_for(cfg, rng)
    batch[0, 1, :] = -1.0
    pred = model.forward(batch)
    keep = batch != -1.0
    expected = float(((pred - batch)[keep] ** 2).mean())
    assert mse_loss(pred, batch, mask_sentinel=True) == pytest.approx(expected, abs=1e-15)
    assert mse_loss(pred, batch, mask_sentinel=True) != mse_loss(pred, batch)


def test_gradients_with_masked_sentinel_loss(rng):
    cfg = toy_config(cell_kind="gru", hidden=2, timesteps=4)
    model = make_model(cfg, seed=29)
    batch = rng.uniform(0, 1, (2, cfg.timesteps, cfg.features))
    batch[0, 0, :] = -1.0
    batch[1, 2, :] = -1.0
    _, analytic = model.loss_and_gradients(batch, None, mask_sentinel=True)
    numeric = finite_difference_gradients(
        lambda: model.loss_and_gradients(batch, None, mask_sentinel=True)[0],
        model.params.flat(), step=1e-5)
    assert max_relative_error(analytic, numeric, floor=1e-6) < 1e-4
