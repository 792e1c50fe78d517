from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.nn.dropout import bernoulli_mask, sample_masks
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder


def config(**kw):
    base = dict(cell_kind="gru", bidirectional=True, layers=1, hidden=4,
                timesteps=8, features=4)
    base.update(kw)
    return ModelConfig(**base)


def test_rate_zero_gives_identity_masks(rng):
    # A zero-rate mask is None, and sampling it draws nothing.
    state = rng.bit_generator.state
    masks = sample_masks(config(), batch_size=3, rng=rng)
    assert masks.input_masks == [None] and masks.recurrent_masks == [None]
    assert masks.dense is None
    assert masks.interlayer == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("batch_size", [8, 64])
def test_none_masks_match_all_ones_masks(batch_size):
    # Outputs and gradients with the zero-rate masks left out are bitwise
    # those with all-ones masks, for stacked and split training scans.
    cfg = config(layers=2, hidden=3, dropout_rate=0.3, dense_dropout_rate=0.3)
    model = RecurrentAutoencoder.initialize(cfg, 5)
    rng = np.random.default_rng(7)
    batch = rng.uniform(0, 1, (batch_size, cfg.timesteps, cfg.features))
    masks = sample_masks(cfg, batch_size, rng)
    ones = replace(
        masks,
        input_masks=[np.ones((2, batch_size, cfg.layer_input_size(i))) for i in range(2)],
        recurrent_masks=[np.ones((2, batch_size, cfg.hidden)) for _ in range(2)])
    npt.assert_array_equal(model.forward(batch, "train", masks=masks),
                           model.forward(batch, "train", masks=ones))
    loss, grads = model.loss_and_gradients(batch, masks)
    ones_loss, ones_grads = model.loss_and_gradients(batch, ones)
    assert loss == ones_loss
    npt.assert_array_equal(grads.vector, ones_grads.vector)


def test_fixed_seed_reproducible():
    cfg = config(recurrent_dropout_rate=0.5, dense_dropout_rate=0.3)
    a = sample_masks(cfg, 4, np.random.default_rng(99))
    b = sample_masks(cfg, 4, np.random.default_rng(99))
    for x, y in zip(a.recurrent_masks[0], b.recurrent_masks[0]):
        npt.assert_array_equal(x, y)
    npt.assert_array_equal(a.dense, b.dense)


def test_mask_values_are_zero_or_scaled(rng):
    mask = bernoulli_mask((1000,), 0.25, rng)
    assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}


def test_monte_carlo_keep_fraction(rng):
    draws = bernoulli_mask((100_000,), 0.5, rng)
    keep_fraction = float((draws > 0).mean())
    assert abs(keep_fraction - 0.5) < 0.01


def test_mask_geometry_matches_model():
    cfg = config(bidirectional=True, layers=2, hidden=4, dropout_rate=0.2,
                 recurrent_dropout_rate=0.2, input_dropout_rate=0.2,
                 dense_dropout_rate=0.2, timesteps=8)
    masks = sample_masks(cfg, 3, np.random.default_rng(0))
    assert masks.input_masks[0][0].shape == (3, 4)       # layer 0 sees features
    assert masks.input_masks[1][0].shape == (3, 8)       # layer 1 sees 2H
    assert masks.recurrent_masks[0][1].shape == (3, 4)   # per direction, H units
    assert len(masks.interlayer) == 1
    assert masks.interlayer[0].shape == (3, 8, 8)        # fresh per timestep
    assert masks.dense.shape == (3, 8, 8)


def test_recurrent_mask_is_single_timestep_constant_object():
    # The variational masks carry no time axis at all: one (B, H) draw is
    # reused for all timesteps, unlike the (B, T, D) conventional masks.
    cfg = config(recurrent_dropout_rate=0.4, dense_dropout_rate=0.4)
    masks = sample_masks(cfg, 2, np.random.default_rng(1))
    assert masks.recurrent_masks[0][0].ndim == 2
    assert masks.dense.ndim == 3
    slices = [masks.dense[:, t, :] for t in range(cfg.timesteps)]
    assert any(not np.array_equal(slices[0], s) for s in slices[1:])
