"""Model assembly: stacked (optionally bidirectional) recurrent layers with
a per-timestep tanh dense head, MSE loss, and full backpropagation.

The reconstruction target of every forward pass is its own input window;
the model never predicts future timesteps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..config import ModelConfig
from ..errors import ConfigError, NumericError, ShapeError
from .cells import CellParams, GruCellParams, SimpleRnnCellParams
from .dropout import DropoutMasks, sample_masks
from .layers import dense_backward, dense_per_timestep, unroll, unroll_backward

CELLS = {"simple_rnn": SimpleRnnCellParams, "gru": GruCellParams}
# One eval chunk's (B, T, K·H) state sequence: 256 rows at H 16 and 128 at
# H 32 for a bidirectional layer, the fastest chunks measured at either.
_EVAL_CHUNK_BYTES = 3 << 20


@dataclass
class ModelParams:
    """All weights of a configured model as views into one float64 `vector`,
    which they tile without gaps: layer ascending, each layer one cell whose
    tensors carry the direction axis K the scan reads (w_x (K, D, G·H),
    w_h (K, H, G·H), b (K, G·H), forward then backward), the dense head
    last. `flat()` names each direction's slice of the same views, so
    in-place optimizer updates of `vector` are visible to the model.
    """

    vector: np.ndarray
    layers: list[CellParams]
    w_out: np.ndarray
    b_out: np.ndarray

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """The zero-filled layout of `config`'s weights."""
        cell = CELLS[config.cell_kind]
        k, h = config.directions, config.hidden
        width = cell.gates * h
        shapes = []
        for layer in range(config.layers):
            shapes += [(k, config.layer_input_size(layer), width), (k, h, width), (k, width)]
        shapes += [(h * k, config.features), (config.features,)]
        ends = np.cumsum([math.prod(s) for s in shapes])
        vector = np.zeros(ends[-1])
        views = iter([part.reshape(s) for part, s in zip(np.split(vector, ends[:-1]), shapes)])
        layers = [cell(next(views), next(views), next(views)) for _ in range(config.layers)]
        return cls(vector, layers, next(views), next(views))

    def flat(self) -> dict[str, np.ndarray]:
        """Every tensor by checkpoint name: per layer, each direction's cell
        tensors in field order (`layer0.fwd.w_x`, ...), then the dense head."""
        out: dict[str, np.ndarray] = {}
        for i, cell in enumerate(self.layers):
            for k, tag in enumerate(("fwd", "bwd")[:len(cell.w_x)]):
                for name, arr in cell.tensors():
                    out[f"layer{i}.{tag}.{name}"] = arr[k]
        out["dense.w"] = self.w_out
        out["dense.b"] = self.b_out
        return out


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _orthogonal(rng: np.random.Generator, size: int) -> np.ndarray:
    a = rng.standard_normal((size, size))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))  # fix signs so the draw is unique


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Fan-based uniform input kernels, orthogonal recurrent kernels,
    zero biases. Draw order is fixed for reproducibility: per gate, the
    input kernel, then the recurrent kernel."""
    params = ModelParams.zeros(config)
    h = config.hidden
    for cell in params.layers:
        for k in range(config.directions):
            for gate in range(cell.gates):
                block = slice(gate * h, (gate + 1) * h)
                cell.w_x[k, :, block] = _glorot_uniform(rng, cell.input_size, h)
                cell.w_h[k, :, block] = _orthogonal(rng, h)
    params.w_out[...] = _glorot_uniform(rng, *params.w_out.shape)
    return params


def mse_loss(pred: np.ndarray, target: np.ndarray,
             mask_sentinel: bool = False) -> float:
    """Mean over all elements of squared difference.

    Sentinel (-1) target cells are included by default, mirroring the
    training objective; `mask_sentinel` restricts the mean to observed
    cells (ablation mode).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    if mask_sentinel:
        keep = target != -1.0
        if not keep.any():
            raise ShapeError("masked loss undefined: all target cells are sentinels")
        return float(np.mean((pred[keep] - target[keep]) ** 2))
    return float(np.mean((pred - target) ** 2))


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {where}")


def _forward_full(params: ModelParams, config: ModelConfig, batch: np.ndarray,
                  masks: DropoutMasks | None, want_cache: bool):
    """Forward pass returning (pred, caches, dense_input). `caches[i]` is
    layer i's BPTT cache, None unless `want_cache` is set. `masks=None`
    means eval mode."""
    if batch.ndim != 3 or batch.shape[1] != config.timesteps or batch.shape[2] != config.features:
        raise ShapeError(
            f"batch must be Bx{config.timesteps}x{config.features}, got {batch.shape}")
    seq = np.asarray(batch, dtype=np.float64)
    # Saturating activations can silently absorb an inf input, so the
    # batch itself is part of the finiteness contract.
    _check_finite(seq, "model input (layer 0 input)")
    caches = []
    for i, cell in enumerate(params.layers):
        out, cache = unroll(seq, cell, masks.input_masks[i] if masks else None,
                            masks.recurrent_masks[i] if masks else None, want_cache)
        caches.append(cache)
        _check_finite(out, f"recurrent layer {i}")
        if i < config.layers - 1 and masks is not None and masks.interlayer[i] is not None:
            out = out * masks.interlayer[i]
        seq = out

    if masks is not None and masks.dense is not None:
        seq = seq * masks.dense
    pred = dense_per_timestep(seq, params.w_out, params.b_out)
    _check_finite(pred, "dense output layer")
    return pred, caches, seq


def forward(params: ModelParams, config: ModelConfig, batch: np.ndarray,
            mode: str = "eval", rng: np.random.Generator | None = None,
            masks: DropoutMasks | None = None) -> np.ndarray:
    """Reconstruct a (B, T, F) batch.

    Train mode applies dropout masks (fresh ones are sampled from `rng`
    when not supplied); eval mode ignores dropout entirely. Neither keeps
    a BPTT cache.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and masks is None:
        if rng is None:
            raise ConfigError("train mode needs an rng or explicit masks")
        masks = sample_masks(config, batch.shape[0], rng)
    if mode == "eval":
        masks = None
    pred, _, _ = _forward_full(params, config, batch, masks, want_cache=False)
    return pred


def loss_and_gradients(params: ModelParams, config: ModelConfig, batch: np.ndarray,
                       masks: DropoutMasks | None,
                       mask_sentinel: bool = False) -> tuple[float, ModelParams]:
    """MSE of reconstructing `batch` plus its gradients, laid out as `params`.

    The same `masks` must be used for any paired loss evaluation (e.g.
    finite differences); passing None differentiates the eval-mode path.
    `mask_sentinel` drops -1 target cells from the objective.
    """
    batch = np.asarray(batch, dtype=np.float64)
    pred, caches, dense_input = _forward_full(params, config, batch, masks,
                                              want_cache=True)
    loss = mse_loss(pred, batch, mask_sentinel)

    grads = ModelParams.zeros(config)
    if mask_sentinel:
        keep = (batch != -1.0).astype(np.float64)
        d_pred = 2.0 * keep * (pred - batch) / keep.sum()
    else:
        d_pred = 2.0 * (pred - batch) / pred.size
    d_seq, grads.w_out[...], grads.b_out[...] = dense_backward(
        d_pred, dense_input, pred, params.w_out)
    if masks is not None and masks.dense is not None:
        d_seq = d_seq * masks.dense

    for i in range(config.layers - 1, -1, -1):
        if i < config.layers - 1 and masks is not None and masks.interlayer[i] is not None:
            d_seq = d_seq * masks.interlayer[i]
        d_seq, g = unroll_backward(d_seq, params.layers[i], caches[i])
        for name, arr in g.items():
            getattr(grads.layers[i], name)[...] = arr

    if not np.all(np.isfinite(grads.vector)):
        bad = next(name for name, g in grads.flat().items() if not np.all(np.isfinite(g)))
        raise NumericError(f"non-finite gradient for {bad}")
    return loss, grads


class RecurrentAutoencoder:
    """Config + parameters bundle with the operations the pipeline needs."""

    def __init__(self, config: ModelConfig, params: ModelParams):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int | np.random.Generator) -> "RecurrentAutoencoder":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return cls(config, init_params(config, rng))

    def sample_masks(self, batch_size: int, rng: np.random.Generator) -> DropoutMasks:
        return sample_masks(self.config, batch_size, rng)

    def forward(self, batch: np.ndarray, mode: str = "eval",
                rng: np.random.Generator | None = None,
                masks: DropoutMasks | None = None) -> np.ndarray:
        return forward(self.params, self.config, batch, mode, rng, masks)

    def row_chunks(self, n: int) -> Iterator[slice]:
        """Consecutive slices covering n rows, `_EVAL_CHUNK_BYTES` of states
        each. A one-row tail joins the chunk before it: BLAS runs a one-row
        batch as matrix-vector products, which round differently, while
        every larger chunk reconstructs each row bit for bit as one batch
        of the whole set would."""
        cfg = self.config
        size = max(2, _EVAL_CHUNK_BYTES // (cfg.timesteps * cfg.directions * cfg.hidden * 8))
        starts = list(range(0, n, size))
        if n > 1 and n - starts[-1] == 1:
            starts.pop()
        yield from map(slice, starts, [*starts[1:], n])

    def reconstruct(self, batch: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode reconstruction, row-aligned with input.

        The rows run in `row_chunks` into one output array, so the pass
        holds the input, the output and one chunk's states, however many
        rows there are; the result is bitwise that of one batch."""
        batch = np.asarray(batch, dtype=np.float64)
        out = np.empty_like(batch)
        for rows in self.row_chunks(len(batch)):
            out[rows] = forward(self.params, self.config, batch[rows], mode="eval")
        return out

    def loss_and_gradients(self, batch: np.ndarray, masks: DropoutMasks | None,
                           mask_sentinel: bool = False) -> tuple[float, ModelParams]:
        return loss_and_gradients(self.params, self.config, batch, masks, mask_sentinel)
