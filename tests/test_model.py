import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.config import RunConfig
from ais_outliers.errors import ConfigError, NumericError, ShapeError
from ais_outliers.nn import layers
from ais_outliers.nn.dropout import sample_masks
from ais_outliers.nn.layers import dense_per_timestep, unroll, unroll_backward
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder, mse_loss

from oracles import (finite_difference_gradients, max_relative_error, mse_loop,
                     reference_init_params, reference_layer, reference_layer_backward,
                     reference_loss_and_gradients)


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
])
def test_bad_configs_rejected(kw):
    with pytest.raises(ConfigError):
        toy_config(**kw)


def test_default_model_matches_documented_defaults():
    bidir = RunConfig().model_config()
    assert bidir.cell_kind == "gru" and bidir.bidirectional
    assert bidir.layers == 1 and bidir.hidden == 32
    assert bidir.recurrent_dropout_rate == 0.2
    assert bidir.dense_dropout_rate == 0.2
    assert bidir.dropout_rate == bidir.input_dropout_rate == 0.0


# -- parameter layout --------------------------------------------------------

def _assert_tiles_vector(params, cfg):
    """Every named tensor and every layer tensor is a view of
    `params.vector`; the named ones keep the checkpoint names and order, and
    together they cover every element of the vector exactly once."""
    tags = ("fwd", "bwd")[:cfg.directions]
    expected = [f"layer{i}.{tag}.{name}" for i in range(cfg.layers) for tag in tags
                for name in ("w_x", "w_h", "b")] + ["dense.w", "dense.b"]
    flat = params.flat()
    assert list(flat) == expected
    assert params.vector.dtype == np.float64 and params.vector.ndim == 1
    for i, cell in enumerate(params.layers):
        for name, arr in cell.tensors():
            assert arr.shape[0] == cfg.directions, (i, name)
            assert np.shares_memory(arr, params.vector), (i, name)
    for name, arr in flat.items():
        assert np.shares_memory(arr, params.vector), name
        assert arr.flags.c_contiguous, name
    saved = params.vector.copy()
    params.vector[:] = np.arange(params.vector.size)
    covered = np.sort(np.concatenate([arr.ravel() for arr in flat.values()]))
    params.vector[:] = saved
    npt.assert_array_equal(covered, np.arange(params.vector.size))


@pytest.mark.parametrize("cell", ["simple_rnn", "gru"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_weights_and_gradients_tile_one_vector(rng, cell, bidirectional):
    cfg = toy_config(cell_kind=cell, bidirectional=bidirectional, layers=2)
    model = make_model(cfg)
    _assert_tiles_vector(model.params, cfg)
    _, grads = model.loss_and_gradients(batch_for(cfg, rng), None)
    _assert_tiles_vector(grads, cfg)
    model.params.vector[0] = 7.0  # the views see writes to the vector
    assert model.params.layers[0].w_x[0, 0, 0] == 7.0


@pytest.mark.parametrize("cell", ["simple_rnn", "gru"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_init_matches_per_gate_reference_bitwise(cell, bidirectional):
    cfg = toy_config(cell_kind=cell, bidirectional=bidirectional, layers=2)
    params = make_model(cfg, seed=11).params
    reference = reference_init_params(cfg, np.random.default_rng(11))
    assert list(params.flat()) == list(reference)
    for name, arr in params.flat().items():
        npt.assert_array_equal(arr, reference[name], err_msg=name)


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
    h1 = unroll(batch, model.params.layers[0])[0]
    h2 = unroll(h1, model.params.layers[1])[0]
    expected = dense_per_timestep(h2, model.params.w_out, model.params.b_out)
    npt.assert_allclose(pred, expected, atol=1e-15)


def test_bidirectional_forward_composes(rng):
    cfg = toy_config(bidirectional=True)
    model = make_model(cfg, seed=6)
    batch = batch_for(cfg, rng)
    pred = model.forward(batch)
    layer = model.params.layers[0]
    both = unroll(batch, layer)[0]
    fwd = unroll(batch, layer[0:1])[0]
    # the backward direction is the forward scan of the time-reversed input
    bwd = unroll(batch[:, ::-1], layer[1:2])[0][:, ::-1]
    npt.assert_allclose(both, np.concatenate([fwd, bwd], axis=-1), atol=1e-15)
    expected = dense_per_timestep(both, model.params.w_out, model.params.b_out)
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
    model.params.layers[1].b[..., :cfg.hidden] = np.nan  # the update gate's bias
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


def chunk_rows(model):
    """Rows in each full chunk of `model`'s eval passes."""
    return next(model.row_chunks(1 << 30)).stop


def traced_peak(call):
    """The peak of the memory `tracemalloc` sees allocated during `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak growth an eval pass may show beyond its output: allocator noise and
# small Python objects, well under one chunk's prediction (384 KiB at H 16).
EVAL_PEAK_SLACK = 64 << 10


def test_reconstruct_peak_grows_by_its_output_alone():
    # Eval keeps no BPTT cache and runs in row chunks, so 4N rows peak
    # above N rows by the 3N extra output rows, however large N is. With
    # the whole set as one batch the states grew the peak by 25 KB a row.
    cfg = ModelConfig(cell_kind="gru", bidirectional=True, hidden=16)
    model = make_model(cfg)
    n = chunk_rows(model)
    batch = np.random.default_rng(0).uniform(0, 1, (4 * n, cfg.timesteps, cfg.features))
    small, large = (traced_peak(lambda: model.reconstruct(batch[:rows])) for rows in (n, 4 * n))
    row_bytes = cfg.timesteps * cfg.features * 8
    assert large - small <= 3 * n * row_bytes + EVAL_PEAK_SLACK, (small, large)


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("cell_kind", ["gru", "simple_rnn"])
def test_chunked_reconstruct_is_bitwise_one_batch(rng, cell_kind, bidirectional):
    # Sizes around the chunk, and a one-row tail, which joins the chunk
    # before it: alone it would take BLAS's matrix-vector path.
    cfg = ModelConfig(cell_kind=cell_kind, bidirectional=bidirectional, hidden=16, layers=2)
    model = make_model(cfg, seed=3)
    chunk = chunk_rows(model)
    assert chunk == (256 if bidirectional else 512)
    batch = rng.uniform(-1, 1, (2 * chunk + 1, cfg.timesteps, cfg.features))
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        npt.assert_array_equal(model.reconstruct(batch[:n]), model.forward(batch[:n]),
                               err_msg=f"{n} rows")
    assert [(s.start, s.stop) for s in model.row_chunks(2 * chunk + 1)] == [
        (0, chunk), (chunk, 2 * chunk + 1)]
    assert [(s.start, s.stop) for s in model.row_chunks(chunk + 1)] == [(0, chunk + 1)]
    assert list(model.row_chunks(0)) == []


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
    return max_relative_error(analytic.flat(), numeric, floor=floor)


def test_zero_loss_point_has_zero_gradients():
    cfg = toy_config()
    model = make_model(cfg)
    for arr in model.params.flat().values():
        arr[...] = 0.0
    batch = np.zeros((2, cfg.timesteps, cfg.features))
    loss, grads = model.loss_and_gradients(batch, None)
    assert loss == 0.0
    for g in grads.flat().values():
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


def test_gradients_two_layer_bidirectional_gru_all_dropout():
    cfg = toy_config(cell_kind="gru", bidirectional=True, layers=2, hidden=2, timesteps=3,
                     dropout_rate=0.3, recurrent_dropout_rate=0.4, input_dropout_rate=0.3,
                     dense_dropout_rate=0.3)
    assert gradient_check(cfg, seed=31, with_dropout=True) < 1e-4


def test_gradients_two_layer_bidirectional_simple_rnn():
    cfg = toy_config(cell_kind="simple_rnn", bidirectional=True, layers=2, hidden=2,
                     timesteps=3)
    assert gradient_check(cfg, seed=37) < 1e-4


# -- the stacked scan against each direction scanned on its own -------------

def _dropout_rates(on):
    rate = 0.3 if on else 0.0
    return dict(dropout_rate=rate, recurrent_dropout_rate=rate, input_dropout_rate=rate,
                dense_dropout_rate=rate)


@pytest.mark.parametrize("batch_size", [1, 8, 64])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("cell", ["gru", "simple_rnn"])
def test_stacked_scan_matches_per_direction_reference(cell, bidirectional, n_layers, dropout,
                                                       batch_size):
    cfg = toy_config(cell_kind=cell, bidirectional=bidirectional,
                     layers=n_layers, hidden=4, timesteps=20, **_dropout_rates(dropout))
    model = make_model(cfg, seed=41)
    rng = np.random.default_rng(43)
    batch = rng.uniform(0, 1, (batch_size, cfg.timesteps, cfg.features))
    masks = sample_masks(cfg, batch_size, rng) if dropout else None
    pred, outputs, ref_grads = reference_loss_and_gradients(model.params, cfg, batch, masks)

    # Each layer alone, on the reference's input to it: output, input
    # gradient and parameter gradients of the layer's cell (one stacked
    # scan up to batch 32, one scan per direction above it), and of its
    # forward direction as a one-direction cell.
    seq = batch
    for i, layer in enumerate(model.params.layers):
        im = masks.input_masks[i] if masks else None
        rm = masks.recurrent_masks[i] if masks else None
        ref_out, ref_caches = reference_layer(seq, layer, im, rm)
        d_out = rng.normal(size=ref_out.shape)
        ref_dx, ref_g = reference_layer_backward(d_out, layer, ref_caches)
        out, cache = unroll(seq, layer, im, rm, True)
        assert len(cache) == (2 if bidirectional and batch_size > 32 else 1)
        npt.assert_array_equal(out, ref_out)
        d_x, g = unroll_backward(d_out, layer, cache)
        npt.assert_array_equal(d_x, ref_dx)
        for k, tag in enumerate(("fwd", "bwd")[:cfg.directions]):
            for name, arr in g.items():
                npt.assert_array_equal(arr[k], ref_g[f"{tag}.{name}"])
        if bidirectional:
            cols = slice(0, cfg.hidden)
            fwd = layer[0:1]
            out, cache = unroll(seq, fwd, None if im is None else im[:1],
                                None if rm is None else rm[:1], True)
            npt.assert_array_equal(out, ref_out[..., cols])
            _, g = unroll_backward(d_out[..., cols], fwd, cache)
            for name, arr in g.items():
                npt.assert_array_equal(arr[0], ref_g[f"fwd.{name}"])
        seq = outputs[i] if masks is None or i == n_layers - 1 else outputs[i] * masks.interlayer[i]

    # The whole model: train-mode forward (no cache) and every gradient.
    mode = "train" if masks else "eval"
    npt.assert_array_equal(model.forward(batch, mode=mode, masks=masks), pred)
    _, grads = model.loss_and_gradients(batch, masks)
    for name, arr in grads.flat().items():
        npt.assert_array_equal(arr, ref_grads[name], err_msg=name)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_chunked_input_projection_matches_reference(monkeypatch, bidirectional):
    # The input projection runs in chunks of timesteps; three steps a
    # chunk leaves a short last chunk over 20 steps.
    cfg = toy_config(bidirectional=bidirectional, hidden=4, timesteps=20)
    model = make_model(cfg, seed=47)
    batch = np.random.default_rng(53).uniform(0, 1, (8, cfg.timesteps, cfg.features))
    step_bytes = cfg.directions * 8 * 3 * cfg.hidden * 8
    monkeypatch.setattr(layers, "_CHUNK_BYTES", 3 * step_bytes)
    pred, _, ref_grads = reference_loss_and_gradients(model.params, cfg, batch, None)
    npt.assert_array_equal(model.reconstruct(batch), pred)
    _, grads = model.loss_and_gradients(batch, None)
    for name, arr in grads.flat().items():
        npt.assert_array_equal(arr, ref_grads[name], err_msg=name)


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
    assert max_relative_error(analytic.flat(), numeric, floor=1e-6) < 1e-4
