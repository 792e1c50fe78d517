import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ShapeError
from ais_outliers.nn.layers import dense_per_timestep, unroll

from oracles import (
    gru_step_loop,
    random_gru_params,
    random_rnn_params,
    rnn_step_loop,
    stack_cells,
    zero_gru_params,
    zero_rnn_params,
)


def run(seq, cell, direction="forward"):
    """Scan one (T, D) sequence in one direction; returns its (T, H) states.
    The backward direction is the second half of a bidirectional stack."""
    if direction == "forward":
        return unroll(seq[None], stack_cells(cell))[0][0]
    return unroll(seq[None], stack_cells(cell, cell))[0][0, :, cell.hidden_size:]


def test_stacked_directions_match_lone_directions(rng):
    # One stacked scan runs both directions: its halves equal each
    # direction scanned alone. A training scan of a batch above 32 runs
    # the directions as two one-direction scans, one cache each.
    fwd, bwd = random_gru_params(rng, 4, 3), random_gru_params(rng, 4, 3)
    seq = rng.uniform(-1, 1, (64, 10, 4))
    both = stack_cells(fwd, bwd)
    stacked, no_cache = unroll(seq, both)
    assert no_cache is None
    npt.assert_array_equal(stacked[..., :3], unroll(seq, stack_cells(fwd))[0])
    split, cache = unroll(seq, both, want_cache=True)
    assert [run["hs"].shape[1] for run in cache] == [1, 1]
    npt.assert_array_equal(split, stacked)
    _, cache = unroll(seq[:32], both, want_cache=True)
    assert [run["hs"].shape[1] for run in cache] == [2]


def test_zero_weights_give_zero_outputs(rng):
    seq = rng.uniform(-1, 1, (48, 4))
    for cell in (zero_rnn_params(4, 3), zero_gru_params(4, 3)):
        for direction in ("forward", "backward"):
            npt.assert_array_equal(run(seq, cell, direction), np.zeros((48, 3)))


def test_backward_of_reversed_input_mirrors_forward(rng):
    cell = random_gru_params(rng, 4, 3)
    seq = rng.uniform(-1, 1, (10, 4))
    fwd_on_reversed = run(seq[::-1].copy(), cell, "forward")
    bwd = run(seq, cell, "backward")
    npt.assert_allclose(bwd, fwd_on_reversed[::-1], atol=1e-15)


def test_three_step_manual_unroll(rng):
    cell = random_rnn_params(rng, 2, 3)
    seq = rng.uniform(-1, 1, (3, 2))
    out = run(seq, cell)
    h = np.zeros(3)
    for t in range(3):
        h = rnn_step_loop(seq[t], h, cell.w_x, cell.w_h, cell.b)
        npt.assert_allclose(out[t], h, atol=1e-12)


def test_gru_layer_manual_unroll(rng):
    cell = random_gru_params(rng, 2, 2)
    seq = rng.uniform(-1, 1, (4, 2))
    out = run(seq, cell)
    h = np.zeros(2)
    for t in range(4):
        h = gru_step_loop(seq[t], h, cell)
        npt.assert_allclose(out[t], h, atol=1e-12)


def test_dense_zero_weights(rng):
    hidden = rng.uniform(-1, 1, (48, 6))
    out = dense_per_timestep(hidden, np.zeros((6, 4)), np.zeros(4))
    npt.assert_array_equal(out, np.zeros((48, 4)))


def test_dense_saturates_toward_minus_one(rng):
    # tanh rounds to exactly -1.0 in float64 beyond |x| ~ 19, so stay below.
    hidden = rng.uniform(-1, 1, (48, 6))
    out = dense_per_timestep(hidden, np.zeros((6, 4)), np.full(4, -6.0))
    assert (out < -0.999).all()
    assert (out > -1.0).all()


def test_dense_matches_matrix_product(rng):
    hidden = rng.uniform(-1, 1, (48, 6))
    w = rng.uniform(-1, 1, (6, 4))
    b = rng.uniform(-1, 1, 4)
    npt.assert_array_equal(dense_per_timestep(hidden, w, b), np.tanh(hidden @ w + b))


def test_dense_outputs_strictly_inside_unit_interval(rng):
    hidden = rng.uniform(-1, 1, (48, 6))
    w = rng.uniform(-1, 1, (6, 4))
    out = dense_per_timestep(hidden, w, rng.uniform(-1, 1, 4))
    assert (out > -1.0).all() and (out < 1.0).all()


def test_dense_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        dense_per_timestep(np.zeros((48, 5)), np.zeros((6, 4)), np.zeros(4))


def test_masks_reapplied_every_step(rng):
    # With an input mask that zeroes one feature, the layer must behave as
    # if that feature never existed, at every timestep.
    cell = random_rnn_params(rng, 3, 2)
    seq = rng.uniform(-1, 1, (1, 6, 3))
    mask = np.array([[1.0, 0.0, 1.0]])
    stacked = stack_cells(cell)
    masked_out = unroll(seq, stacked, input_mask=mask[None])[0]
    zeroed = seq.copy()
    zeroed[:, :, 1] = 0.0
    npt.assert_allclose(masked_out, unroll(zeroed, stacked)[0], atol=1e-15)
