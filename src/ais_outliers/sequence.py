"""Hold the normalized days as one tensor and split it reproducibly.

The MMSI/day sidecar travels with every tensor row but is never a model
input. Shuffling uses numpy's PCG64 generator so splits are reproducible
from the recorded seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import ConfigError, DataError
from .preprocess import N_FEATURES, N_SLOTS, load_corpus, save_corpus

DEFAULT_TEST_FRACTION = 0.20
DEFAULT_VAL_FRACTION = 0.20


@dataclass
class SequenceSet:
    """N x 48 x 4 tensor plus the (mmsi, day) identity of each row."""

    tensor: np.ndarray
    ids: tuple[tuple[str, date], ...]

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.float64)
        self.ids = tuple(self.ids)
        if self.tensor.ndim != 3 or self.tensor.shape[1:] != (N_SLOTS, N_FEATURES):
            raise DataError(f"sequence tensor must be Nx{N_SLOTS}x{N_FEATURES}, "
                            f"got {self.tensor.shape}")
        if self.tensor.shape[0] != len(self.ids):
            raise DataError("tensor rows and id sidecar disagree in length")

    def __len__(self) -> int:
        return self.tensor.shape[0]

    def take(self, indices: np.ndarray) -> "SequenceSet":
        return SequenceSet(self.tensor[indices], tuple(self.ids[i] for i in indices))


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = DEFAULT_TEST_FRACTION
    val_fraction: float = DEFAULT_VAL_FRACTION  # fraction of the train side
    seed: int = 0

    def __post_init__(self):
        for name, value in (("test_fraction", self.test_fraction),
                            ("val_fraction", self.val_fraction)):
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be strictly inside (0, 1), got {value}")


def split(
    sset: SequenceSet, spec: SplitSpec, by_vessel: bool = False
) -> tuple[SequenceSet, SequenceSet, SequenceSet]:
    """Partition into (train, validation, test).

    Sizes follow the floor rule: floor(N * test_fraction) rows go to test,
    then floor(remaining * val_fraction) to validation. The permutation is
    a pure function of the seed (PCG64). `by_vessel` keeps each MMSI's
    rows in a single subset, so sizes then only approximate the fractions.
    """
    n = len(sset)
    if n < 5:
        raise DataError(f"need at least 5 sequences to split, got {n}")
    n_test = int(n * spec.test_fraction)
    n_val = int((n - n_test) * spec.val_fraction)
    rng = np.random.default_rng(spec.seed)

    if not by_vessel:
        perm = rng.permutation(n)
        test_idx = perm[:n_test]
        val_idx = perm[n_test:n_test + n_val]
        train_idx = perm[n_test + n_val:]
    else:
        vessels = sorted({mmsi for mmsi, _ in sset.ids})
        rng.shuffle(vessels)
        rows = {m: [] for m in vessels}
        for i, (mmsi, _) in enumerate(sset.ids):
            rows[mmsi].append(i)
        test_list, val_list, train_list = [], [], []
        for mmsi in vessels:
            if len(test_list) < n_test:
                test_list.extend(rows[mmsi])
            elif len(val_list) < n_val:
                val_list.extend(rows[mmsi])
            else:
                train_list.extend(rows[mmsi])
        test_idx = np.array(test_list, dtype=int)
        val_idx = np.array(val_list, dtype=int)
        train_idx = np.array(train_list, dtype=int)

    return sset.take(train_idx), sset.take(val_idx), sset.take(test_idx)


# ---------------------------------------------------------------------------
# Persistence: per-subset tensor + sidecar, in the corpus format.
# ---------------------------------------------------------------------------

def save_set(sset: SequenceSet, tensor_path, index_path) -> None:
    save_corpus(sset.tensor, sset.ids, tensor_path, index_path)


def load_set(tensor_path, index_path) -> SequenceSet:
    tensor, ids = load_corpus(tensor_path, index_path)
    return SequenceSet(tensor, tuple(ids))
