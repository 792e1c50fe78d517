import csv

import numpy as np
import pytest

from ais_outliers.errors import ConfigError, TrainingDivergedError
from ais_outliers.nn.model import ModelConfig, RecurrentAutoencoder
from ais_outliers.nn.train import train


def tiny_model(seed=0, **kw):
    cfg = dict(cell_kind="gru", layers=1, hidden=6, timesteps=8, features=4)
    cfg.update(kw)
    return RecurrentAutoencoder.initialize(ModelConfig(**cfg), seed)


def toy_data(rng, n=16, t=8):
    return rng.uniform(0.1, 0.9, size=(n, t, 4))


def test_epochs_zero_rejected(rng):
    with pytest.raises(ConfigError):
        train(tiny_model(), toy_data(rng), toy_data(rng, 4), epochs=0,
              batch_size=4, seed=0)


def test_fixed_seed_reruns_identically(rng):
    data = toy_data(rng)
    val = toy_data(rng, 4)
    histories = []
    for _ in range(2):
        model = tiny_model(seed=1)
        histories.append(train(model, data, val, epochs=3, batch_size=4, seed=42))
    a, b = histories
    assert [e.train_loss for e in a.epochs] == [e.train_loss for e in b.epochs]
    assert [e.val_loss for e in a.epochs] == [e.val_loss for e in b.epochs]


def test_overfits_single_repeated_sequence(rng):
    # One sequence repeated as a batch; 200 mini-epochs must push the
    # reconstruction loss below 1e-3 on a toy model.
    seq = rng.uniform(0.2, 0.8, size=(1, 8, 4))
    batch = np.repeat(seq, 4, axis=0)
    model = tiny_model(seed=2, hidden=16)
    history = train(model, batch, batch, epochs=200, batch_size=4, seed=7,
                    learning_rate=0.03)
    assert history.final().train_loss < 1e-3
    assert all(np.isfinite(e.train_loss) for e in history.epochs)


def test_checkpoints_written_per_epoch(tmp_path, rng):
    model = tiny_model()
    train(model, toy_data(rng), toy_data(rng, 4), epochs=3, batch_size=8,
          seed=0, checkpoint_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.glob("*.ckpt"))
    assert files == ["epoch_001.ckpt", "epoch_002.ckpt", "epoch_003.ckpt"]


def test_divergence_aborts_with_checkpoint_reference(tmp_path, rng):
    model = tiny_model()
    model.params.w_out[...] = np.nan
    with pytest.raises(TrainingDivergedError, match="checkpoint"):
        train(model, toy_data(rng), toy_data(rng, 4), epochs=1, batch_size=8,
              seed=0, checkpoint_dir=tmp_path)


def test_history_csv_format(tmp_path, rng):
    model = tiny_model()
    history = train(model, toy_data(rng), toy_data(rng, 4), epochs=2,
                    batch_size=8, seed=0)
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,wall_seconds,seq_per_s"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert all(float(line.split(",")[-1]) > 0.0 for line in lines[1:])


def test_failed_history_write_keeps_previous_file(tmp_path, rng, monkeypatch):
    history = train(tiny_model(), toy_data(rng), toy_data(rng, 4), epochs=2,
                    batch_size=8, seed=0)
    path = tmp_path / "history.csv"
    history.to_csv(path)
    before = path.read_bytes()

    real_writer = csv.writer

    def writer_failing_at_epoch_2(fh, **kwargs):
        writer = real_writer(fh, **kwargs)

        class Failing:
            def writerow(self, row):
                if row[0] == 2:
                    raise OSError("disk full")
                writer.writerow(row)
        return Failing()

    monkeypatch.setattr(csv, "writer", writer_failing_at_epoch_2)
    history.epochs[0].train_loss = 99.0
    with pytest.raises(OSError, match="disk full"):
        history.to_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]


def test_validation_loss_tracks_eval_mode(rng):
    data = toy_data(rng)
    val = toy_data(rng, 4)
    model = tiny_model(seed=3)
    history = train(model, data, val, epochs=1, batch_size=8, seed=5)
    from ais_outliers.nn.model import mse_loss
    expected = mse_loss(model.reconstruct(val), val)
    assert history.final().val_loss == pytest.approx(expected, rel=1e-12)
