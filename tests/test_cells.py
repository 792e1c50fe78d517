import math

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ShapeError
from ais_outliers.nn.cells import GruCellParams, SimpleRnnCellParams, sigmoid
from ais_outliers.nn.layers import unroll

from oracles import (
    gate_tensors,
    gru_step_loop,
    random_gru_params,
    random_rnn_params,
    rnn_step_loop,
    sigmoid_scalar,
    stack_cells,
    step_once,
    zero_gru_params,
    zero_rnn_params,
)


def test_sigmoid_matches_scalar_form(rng):
    x = rng.uniform(-50, 50, 1000)
    expected = np.array([sigmoid_scalar(v) for v in x])
    npt.assert_allclose(sigmoid(x), expected, rtol=0, atol=1e-15)


def test_sigmoid_extremes_stay_finite():
    out = sigmoid(np.array([-1e4, 1e4]))
    assert out[0] == 0.0 and out[1] == 1.0


# -- SimpleRNN --------------------------------------------------------------

def test_rnn_zero_params_give_zero_state(rng):
    x = rng.uniform(-1, 1, 4)
    h = step_once(x, np.ones(3), zero_rnn_params(4, 3))
    npt.assert_array_equal(h, np.zeros(3))


def test_rnn_single_unit_bias_only():
    p = SimpleRnnCellParams(np.zeros((1, 1)), np.zeros((1, 1)), np.array([0.5]))
    h = step_once(np.zeros(1), np.zeros(1), p)
    assert h[0] == pytest.approx(math.tanh(0.5))
    assert h[0] == pytest.approx(0.462117, abs=1e-6)


def test_rnn_matches_affine_map(rng):
    p = random_rnn_params(rng, 4, 3)
    x = rng.uniform(-1, 1, 4)
    h_prev = rng.uniform(-1, 1, 3)
    expected = np.tanh(x @ p.w_x + h_prev @ p.w_h + p.b)
    npt.assert_allclose(step_once(x, h_prev, p), expected, atol=1e-15)


def test_rnn_scalar_loop_oracle(rng):
    for _ in range(100):
        d, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = random_rnn_params(rng, d, h, scale=1.0)
        x = rng.uniform(-2, 2, d)
        h_prev = rng.uniform(-1, 1, h)
        mine = step_once(x, h_prev, p)
        gold = rnn_step_loop(x, h_prev, p.w_x, p.w_h, p.b)
        npt.assert_allclose(mine, gold, rtol=0, atol=1e-12)


def test_rnn_shape_mismatch_raises(rng):
    p = random_rnn_params(rng, 4, 3)
    with pytest.raises(ShapeError):
        unroll(np.zeros((1, 2, 5)), stack_cells(p))
    with pytest.raises(ShapeError):
        SimpleRnnCellParams(np.zeros((4, 3)), np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ShapeError):
        SimpleRnnCellParams(np.zeros((4, 3)), np.zeros((3, 3)), np.zeros(2))


# -- GRU ---------------------------------------------------------------------

def test_gru_zero_params_halve_state(rng):
    h_prev = rng.uniform(-1, 1, 3)
    h = step_once(np.zeros(4), h_prev, zero_gru_params(4, 3))
    npt.assert_allclose(h, 0.5 * h_prev, atol=1e-15)


def test_gru_zero_state_is_fixed_point():
    h = step_once(np.zeros(4), np.zeros(3), zero_gru_params(4, 3))
    npt.assert_array_equal(h, np.zeros(3))


def test_gru_scalar_loop_oracle(rng):
    for _ in range(100):
        d, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = random_gru_params(rng, d, h, scale=1.0)
        x = rng.uniform(-2, 2, d)
        h_prev = rng.uniform(-1, 1, h)
        mine = step_once(x, h_prev, p)
        gold = gru_step_loop(x, h_prev, p)
        npt.assert_allclose(mine, gold, rtol=0, atol=1e-12)


def test_gru_batched_matches_rowwise(rng):
    p = random_gru_params(rng, 4, 3)
    x = rng.uniform(-1, 1, (5, 4))
    h_prev = rng.uniform(-1, 1, (5, 3))
    batched = step_once(x, h_prev, p)
    for i in range(5):
        npt.assert_allclose(batched[i], step_once(x[i], h_prev[i], p), atol=1e-15)


def test_gru_per_gate_tensors_are_views_of_fused(rng):
    p = random_gru_params(rng, 4, 3)
    assert [name for name, _ in p.tensors()] == ["w_x", "w_h", "b"]
    blocks = [gate_tensors(p, gate) for gate in range(3)]
    for i, fused in enumerate((p.w_x, p.w_h, p.b)):
        npt.assert_array_equal(np.concatenate([b[i] for b in blocks], axis=-1), fused)
    assert np.shares_memory(blocks[1][1], p.w_h)


def test_gru_shape_validation(rng):
    with pytest.raises(ShapeError):
        GruCellParams(np.zeros((4, 3)), np.zeros((3, 3)), np.zeros(3))
    p = random_gru_params(rng, 4, 3)
    with pytest.raises(ShapeError):
        unroll(np.zeros((1, 2, 3)), stack_cells(p))
