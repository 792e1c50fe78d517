"""Model assembly: stacked (optionally bidirectional) recurrent layers with
a per-timestep tanh dense head, MSE loss, and full backpropagation.

The reconstruction target of every forward pass is its own input window;
the model never predicts future timesteps.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
import numpy as np

from ..errors import ConfigError, NumericError, ShapeError
from .cells import GRU_CONVENTIONS, CellParams, GruCellParams, SimpleRnnCellParams
from .dropout import DropoutMasks, sample_masks
from .layers import dense_backward, dense_per_timestep, unroll, unroll_backward

CELLS = {"simple_rnn": SimpleRnnCellParams, "gru": GruCellParams}
CELL_KINDS = tuple(CELLS)


@dataclass
class ModelConfig:
    cell_kind: str = "gru"
    bidirectional: bool = False
    layers: int = 1
    hidden: int = 32
    dropout_rate: float = 0.0            # conventional, between stacked layers
    recurrent_dropout_rate: float = 0.0  # per-sequence mask on h_prev
    input_dropout_rate: float = 0.0      # per-sequence mask on layer input
    dense_dropout_rate: float = 0.0      # conventional, before the output head
    timesteps: int = 48
    features: int = 4
    gru_convention: str = "z_gates_candidate"

    def __post_init__(self):
        if self.cell_kind not in CELL_KINDS:
            raise ConfigError(f"cell_kind must be one of {CELL_KINDS}, got {self.cell_kind!r}")
        if self.gru_convention not in GRU_CONVENTIONS:
            raise ConfigError(f"gru_convention must be one of {GRU_CONVENTIONS}")
        if self.layers < 1:
            raise ConfigError("model needs at least one recurrent layer")
        if self.hidden < 1 or self.timesteps < 1 or self.features < 1:
            raise ConfigError("hidden, timesteps and features must be >= 1")
        for name in ("dropout_rate", "recurrent_dropout_rate",
                     "input_dropout_rate", "dense_dropout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")

    @property
    def directions(self) -> int:
        return 2 if self.bidirectional else 1

    def layer_input_size(self, layer: int) -> int:
        return self.features if layer == 0 else self.hidden * self.directions

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)

    @classmethod
    def stacked_default(cls, cell_kind: str = "gru") -> "ModelConfig":
        """Deeper unidirectional variant with conventional dropout."""
        return cls(cell_kind=cell_kind, bidirectional=False, layers=2,
                   hidden=64, dropout_rate=0.2)

    @classmethod
    def bidirectional_default(cls, cell_kind: str = "gru") -> "ModelConfig":
        """Single bidirectional layer with recurrent + pre-dense dropout."""
        return cls(cell_kind=cell_kind, bidirectional=True, layers=1,
                   hidden=32, recurrent_dropout_rate=0.2, dense_dropout_rate=0.2)


@dataclass
class LayerParams:
    forward_cell: CellParams
    backward_cell: CellParams | None = None

    def directions(self) -> list[tuple[str, str, CellParams]]:
        """(scan direction, parameter-name tag, cell) for each direction the
        layer runs; their outputs are concatenated in this order."""
        out = [("forward", "fwd", self.forward_cell)]
        if self.backward_cell is not None:
            out.append(("backward", "bwd", self.backward_cell))
        return out


@dataclass
class ModelParams:
    """All weights of a configured model.

    `flat()` exposes the underlying arrays by dotted name in declaration
    order (layer ascending, forward before backward, cell tensors in field
    order, dense head last); the arrays are shared, not copied, so in-place
    optimizer updates are visible to the model.
    """

    layers: list[LayerParams] = field(default_factory=list)
    w_out: np.ndarray | None = None
    b_out: np.ndarray | None = None

    def flat(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for _, tag, cell in layer.directions():
                for name, arr in cell.tensors():
                    out[f"layer{i}.{tag}.{name}"] = arr
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


def _init_cell(kind: str, rng: np.random.Generator, d_in: int, hidden: int) -> CellParams:
    # Each gate draws its own input and recurrent kernel (z, r, h~ order);
    # the fused tensors are their concatenation.
    cls = CELLS[kind]
    w_x, w_h = [], []
    for _ in range(cls.gates):
        w_x.append(_glorot_uniform(rng, d_in, hidden))
        w_h.append(_orthogonal(rng, hidden))
    return cls(np.concatenate(w_x, axis=1), np.concatenate(w_h, axis=1),
               np.zeros(cls.gates * hidden))


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Fan-based uniform input kernels, orthogonal recurrent kernels,
    zero biases. Draw order is fixed for reproducibility."""
    params = ModelParams()
    for layer in range(config.layers):
        d_in = config.layer_input_size(layer)
        fwd = _init_cell(config.cell_kind, rng, d_in, config.hidden)
        bwd = _init_cell(config.cell_kind, rng, d_in, config.hidden) if config.bidirectional else None
        params.layers.append(LayerParams(forward_cell=fwd, backward_cell=bwd))
    top = config.hidden * config.directions
    params.w_out = _glorot_uniform(rng, top, config.features)
    params.b_out = np.zeros(config.features)
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
    """Forward pass returning (pred, caches, dense_input). `caches[i][k]` is
    the BPTT cache of layer i, direction k, or None unless `want_cache` is
    set. `masks=None` means eval mode."""
    if batch.ndim != 3 or batch.shape[1] != config.timesteps or batch.shape[2] != config.features:
        raise ShapeError(
            f"batch must be Bx{config.timesteps}x{config.features}, got {batch.shape}")
    seq = np.asarray(batch, dtype=np.float64)
    # Saturating activations can silently absorb an inf input, so the
    # batch itself is part of the finiteness contract.
    _check_finite(seq, "model input (layer 0 input)")
    caches = []

    for i, layer in enumerate(params.layers):
        outs, layer_caches = [], []
        for k, (direction, _, cell) in enumerate(layer.directions()):
            im = masks.input_masks[i][k] if masks else None
            rm = masks.recurrent_masks[i][k] if masks else None
            out, cache = unroll(seq, cell, direction, im, rm, config.gru_convention,
                                want_cache)
            outs.append(out)
            layer_caches.append(cache)
        out = np.concatenate(outs, axis=-1)
        caches.append(layer_caches)
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
                       mask_sentinel: bool = False) -> tuple[float, dict[str, np.ndarray]]:
    """MSE of reconstructing `batch` plus gradients for every parameter.

    The same `masks` must be used for any paired loss evaluation (e.g.
    finite differences); passing None differentiates the eval-mode path.
    `mask_sentinel` drops -1 target cells from the objective.
    """
    batch = np.asarray(batch, dtype=np.float64)
    pred, caches, dense_input = _forward_full(params, config, batch, masks,
                                              want_cache=True)
    loss = mse_loss(pred, batch, mask_sentinel)

    grads: dict[str, np.ndarray] = {}
    if mask_sentinel:
        keep = (batch != -1.0).astype(np.float64)
        d_pred = 2.0 * keep * (pred - batch) / keep.sum()
    else:
        d_pred = 2.0 * (pred - batch) / pred.size
    d_seq, d_w, d_b = dense_backward(d_pred, dense_input, pred, params.w_out)
    grads["dense.w"] = d_w
    grads["dense.b"] = d_b
    if masks is not None and masks.dense is not None:
        d_seq = d_seq * masks.dense

    h = config.hidden
    for i in range(config.layers - 1, -1, -1):
        if i < config.layers - 1 and masks is not None and masks.interlayer[i] is not None:
            d_seq = d_seq * masks.interlayer[i]
        d_input = 0.0
        for k, (_, tag, cell) in enumerate(params.layers[i].directions()):
            d_x, g = unroll_backward(d_seq[..., k * h:(k + 1) * h], cell, caches[i][k])
            d_input = d_input + d_x
            for name, arr in g.items():
                grads[f"layer{i}.{tag}.{name}"] = arr
        d_seq = d_input

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
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

    def reconstruct(self, batch: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode reconstruction, row-aligned with input."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[0] == 0:
            return np.zeros_like(batch)
        return forward(self.params, self.config, batch, mode="eval")

    def loss_and_gradients(self, batch: np.ndarray, masks: DropoutMasks | None,
                           mask_sentinel: bool = False) -> tuple[float, dict[str, np.ndarray]]:
        return loss_and_gradients(self.params, self.config, batch, masks, mask_sentinel)

    def config_json(self) -> str:
        return json.dumps(self.config.to_dict(), sort_keys=True)
