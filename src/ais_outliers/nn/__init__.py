"""Self-contained recurrent network engine: SimpleRNN/GRU cells,
bidirectional unrolling, variational and conventional dropout, BPTT,
Adam, and checkpointing. No autodiff framework; gradients are hand-derived
and finite-difference checked."""

from .adam import AdamState, adam_update
from .cells import (
    GruCellParams,
    SimpleRnnCellParams,
    gru_step,
    sigmoid,
    simple_rnn_step,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .dropout import DropoutMasks, bernoulli_mask, sample_masks
from .layers import dense_per_timestep, unroll, unroll_backward
from .model import (
    ModelConfig,
    ModelParams,
    RecurrentAutoencoder,
    forward,
    init_params,
    loss_and_gradients,
    mse_loss,
)
from .train import TrainingHistory, train

__all__ = [
    "AdamState",
    "adam_update",
    "GruCellParams",
    "SimpleRnnCellParams",
    "gru_step",
    "sigmoid",
    "simple_rnn_step",
    "load_checkpoint",
    "save_checkpoint",
    "DropoutMasks",
    "bernoulli_mask",
    "sample_masks",
    "dense_per_timestep",
    "unroll",
    "unroll_backward",
    "ModelConfig",
    "ModelParams",
    "RecurrentAutoencoder",
    "forward",
    "init_params",
    "loss_and_gradients",
    "mse_loss",
    "TrainingHistory",
    "train",
]
