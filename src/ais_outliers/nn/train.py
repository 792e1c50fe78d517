"""Mini-batch training loop: shuffled batches, Adam updates, per-epoch
validation loss, and per-epoch checkpoints. Deterministic for a fixed seed
under single-threaded execution."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import ConfigError, NumericError, TrainingDivergedError
from .adam import AdamState, adam_update
from .checkpoint import save_checkpoint
from .model import RecurrentAutoencoder, mse_loss


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    wall_seconds: float
    seq_per_s: float  # training sequences over the epoch's wall time


@dataclass
class TrainingHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def final(self) -> EpochStats:
        return self.epochs[-1]

    def to_csv(self, path) -> None:
        with atomic_write(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "train_loss", "val_loss", "wall_seconds", "seq_per_s"])
            for e in self.epochs:
                writer.writerow([e.epoch, repr(e.train_loss), repr(e.val_loss),
                                 f"{e.wall_seconds:.3f}", f"{e.seq_per_s:.1f}"])


def train(
    model: RecurrentAutoencoder,
    train_set: np.ndarray,
    val_set: np.ndarray,
    epochs: int,
    batch_size: int,
    seed: int,
    learning_rate: float = 1e-3,
    checkpoint_dir=None,
    mask_sentinel_loss: bool = False,
) -> TrainingHistory:
    """Train the autoencoder to reconstruct its input windows.

    The epoch train loss is the mean of mini-batch losses; the validation
    loss is a full eval-mode pass at epoch end. When `checkpoint_dir` is
    set, `epoch_XXX.ckpt` files are written per epoch. A non-finite loss
    or gradient aborts with TrainingDivergedError naming the last good
    checkpoint. `mask_sentinel_loss` excludes -1 target cells from the
    objective (ablation mode; the default includes them).
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if not 0 < learning_rate < np.inf:
        raise ConfigError(f"learning_rate must be finite and > 0, got {learning_rate}")
    train_set = np.asarray(train_set, dtype=np.float64)
    val_set = np.asarray(val_set, dtype=np.float64)
    n = train_set.shape[0]
    if n == 0:
        raise ConfigError("training set is empty")

    rng = np.random.default_rng(seed)
    state = AdamState.for_params(model.params.vector, alpha=learning_rate)
    history = TrainingHistory()
    last_checkpoint: Path | None = None
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    for epoch in range(1, epochs + 1):
        started = time.monotonic()
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            batch = train_set[order[start:start + batch_size]]
            masks = model.sample_masks(batch.shape[0], rng)
            try:
                loss, grads = model.loss_and_gradients(batch, masks, mask_sentinel_loss)
            except NumericError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}: {exc}; last good checkpoint: "
                    f"{last_checkpoint or 'none'}") from exc
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"epoch {epoch}: non-finite training loss; last good "
                    f"checkpoint: {last_checkpoint or 'none'}")
            adam_update(model.params.vector, grads.vector, state)
            batch_losses.append(loss)

        val_loss = (mse_loss(model.reconstruct(val_set), val_set, mask_sentinel_loss)
                    if val_set.size else float("nan"))
        wall = time.monotonic() - started
        stats = EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(batch_losses)),
            val_loss=val_loss,
            wall_seconds=wall,
            seq_per_s=n / wall,
        )
        history.epochs.append(stats)

        if checkpoint_dir is not None:
            last_checkpoint = checkpoint_dir / f"epoch_{epoch:03d}.ckpt"
            save_checkpoint(last_checkpoint, model)
    return history
