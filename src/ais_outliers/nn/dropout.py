"""Dropout mask sampling.

Two regimes coexist, mirroring the two model variants:

* variational masks (input + recurrent): sampled once per sequence and
  reused at every timestep, so the same units stay dropped for the whole
  pass. These regularize the recurrent cells.
* conventional masks (between stacked layers and before the dense output):
  fresh Bernoulli draws for every timestep and unit.

All masks use inverted dropout: surviving units are scaled by 1/keep so
eval mode needs no rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def bernoulli_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate)."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


@dataclass
class DropoutMasks:
    """Realized masks for one training forward/backward pass.

    `input_masks[layer]` is (K, B, D_in) and `recurrent_masks[layer]` is
    (K, B, H), one (B, .) mask per direction stacked as the layer's scan
    takes them; both are constant across all timesteps of the sequence.
    `interlayer[boundary]` and `dense` are (B, T, D) per-timestep
    conventional masks. Every mask is None when its rate is zero.
    """

    input_masks: list[np.ndarray | None]
    recurrent_masks: list[np.ndarray | None]
    interlayer: list[np.ndarray | None]
    dense: np.ndarray | None


def sample_masks(config, batch_size: int, rng: np.random.Generator) -> DropoutMasks:
    """Draw every mask the configured model needs for one training pass.

    Sampling order is fixed (layers ascending, forward before backward,
    input before recurrent, then interlayer boundaries, then dense) so a
    given generator state always yields the same masks. A zero-rate mask
    draws nothing.
    """
    directions = 2 if config.bidirectional else 1
    input_masks, recurrent_masks = [], []
    for layer in range(config.layers):
        d_in = config.features if layer == 0 else config.hidden * directions
        per_dir_in, per_dir_rec = [], []
        for _ in range(directions):
            if config.input_dropout_rate > 0.0:
                per_dir_in.append(bernoulli_mask((batch_size, d_in),
                                                 config.input_dropout_rate, rng))
            if config.recurrent_dropout_rate > 0.0:
                per_dir_rec.append(bernoulli_mask((batch_size, config.hidden),
                                                  config.recurrent_dropout_rate, rng))
        input_masks.append(np.stack(per_dir_in) if per_dir_in else None)
        recurrent_masks.append(np.stack(per_dir_rec) if per_dir_rec else None)

    interlayer: list[np.ndarray | None] = []
    for _ in range(config.layers - 1):
        if config.dropout_rate > 0.0:
            interlayer.append(bernoulli_mask(
                (batch_size, config.timesteps, config.hidden * directions),
                config.dropout_rate, rng))
        else:
            interlayer.append(None)

    dense = None
    if config.dense_dropout_rate > 0.0:
        dense = bernoulli_mask(
            (batch_size, config.timesteps, config.hidden * directions),
            config.dense_dropout_rate, rng)

    return DropoutMasks(input_masks=input_masks, recurrent_masks=recurrent_masks,
                        interlayer=interlayer, dense=dense)
