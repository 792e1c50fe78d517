import math

import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ShapeError
from ais_outliers.nn.cells import (
    GruCellParams,
    SimpleRnnCellParams,
    gru_step,
    sigmoid,
    simple_rnn_step,
)

from oracles import gru_step_loop, rnn_step_loop, sigmoid_scalar


def _random_fused(rng, d, h, gates, scale):
    # Per-gate draws in z, r, h~ order, concatenated into the fused layout.
    w_x, w_h, b = [], [], []
    for _ in range(gates):
        w_x.append(rng.uniform(-scale, scale, (d, h)))
        w_h.append(rng.uniform(-scale, scale, (h, h)))
        b.append(rng.uniform(-scale, scale, h))
    return np.concatenate(w_x, axis=1), np.concatenate(w_h, axis=1), np.concatenate(b)


def random_rnn_params(rng, d, h, scale=0.5):
    return SimpleRnnCellParams(*_random_fused(rng, d, h, 1, scale))


def random_gru_params(rng, d, h, scale=0.5):
    return GruCellParams(*_random_fused(rng, d, h, 3, scale))


def zero_rnn_params(d, h):
    return SimpleRnnCellParams(np.zeros((d, h)), np.zeros((h, h)), np.zeros(h))


def zero_gru_params(d, h):
    return GruCellParams(np.zeros((d, 3 * h)), np.zeros((h, 3 * h)), np.zeros(3 * h))


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
    h = simple_rnn_step(x, np.ones(3), zero_rnn_params(4, 3))
    npt.assert_array_equal(h, np.zeros(3))


def test_rnn_single_unit_bias_only():
    p = SimpleRnnCellParams(np.zeros((1, 1)), np.zeros((1, 1)), np.array([0.5]))
    h = simple_rnn_step(np.zeros(1), np.zeros(1), p)
    assert h[0] == pytest.approx(math.tanh(0.5))
    assert h[0] == pytest.approx(0.462117, abs=1e-6)


def test_rnn_matches_affine_map(rng):
    p = random_rnn_params(rng, 4, 3)
    x = rng.uniform(-1, 1, 4)
    h_prev = rng.uniform(-1, 1, 3)
    expected = np.tanh(x @ p.w_x + h_prev @ p.w_h + p.b)
    npt.assert_allclose(simple_rnn_step(x, h_prev, p), expected, atol=1e-15)


def test_rnn_scalar_loop_oracle(rng):
    for _ in range(100):
        d, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = random_rnn_params(rng, d, h, scale=1.0)
        x = rng.uniform(-2, 2, d)
        h_prev = rng.uniform(-1, 1, h)
        mine = simple_rnn_step(x, h_prev, p)
        gold = rnn_step_loop(x, h_prev, p.w_x, p.w_h, p.b)
        npt.assert_allclose(mine, gold, rtol=0, atol=1e-12)


def test_rnn_shape_mismatch_raises(rng):
    p = random_rnn_params(rng, 4, 3)
    with pytest.raises(ShapeError):
        simple_rnn_step(np.zeros(5), np.zeros(3), p)
    with pytest.raises(ShapeError):
        simple_rnn_step(np.zeros(4), np.zeros(2), p)
    with pytest.raises(ShapeError):
        SimpleRnnCellParams(np.zeros((4, 3)), np.zeros((2, 2)), np.zeros(3))


# -- GRU ---------------------------------------------------------------------

def test_gru_zero_params_halve_state(rng):
    h_prev = rng.uniform(-1, 1, 3)
    h = gru_step(np.zeros(4), h_prev, zero_gru_params(4, 3))
    npt.assert_allclose(h, 0.5 * h_prev, atol=1e-15)


def test_gru_zero_state_is_fixed_point():
    h = gru_step(np.zeros(4), np.zeros(3), zero_gru_params(4, 3))
    npt.assert_array_equal(h, np.zeros(3))


def test_gru_scalar_loop_oracle(rng):
    for _ in range(100):
        d, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = random_gru_params(rng, d, h, scale=1.0)
        x = rng.uniform(-2, 2, d)
        h_prev = rng.uniform(-1, 1, h)
        mine = gru_step(x, h_prev, p)
        gold = gru_step_loop(x, h_prev, p)
        npt.assert_allclose(mine, gold, rtol=0, atol=1e-12)


def test_gru_both_conventions(rng):
    p = random_gru_params(rng, 2, 2)
    x = rng.uniform(-1, 1, 2)
    h_prev = rng.uniform(-1, 1, 2)
    for convention in ("z_gates_candidate", "z_gates_state"):
        mine = gru_step(x, h_prev, p, convention)
        gold = gru_step_loop(x, h_prev, p, convention)
        npt.assert_allclose(mine, gold, atol=1e-12)
    a = gru_step(x, h_prev, p, "z_gates_candidate")
    b = gru_step(x, h_prev, p, "z_gates_state")
    assert not np.allclose(a, b)


def test_gru_batched_matches_rowwise(rng):
    p = random_gru_params(rng, 4, 3)
    x = rng.uniform(-1, 1, (5, 4))
    h_prev = rng.uniform(-1, 1, (5, 3))
    batched = gru_step(x, h_prev, p)
    for i in range(5):
        npt.assert_allclose(batched[i], gru_step(x[i], h_prev[i], p), atol=1e-15)


def test_gru_per_gate_tensors_are_views_of_fused(rng):
    p = random_gru_params(rng, 4, 3)
    assert [name for name, _ in p.tensors()] == ["w_x", "w_h", "b"]
    npt.assert_array_equal(np.concatenate([p.w_xz, p.w_xr, p.w_xh], axis=1), p.w_x)
    npt.assert_array_equal(np.concatenate([p.w_hz, p.w_hr, p.w_hh], axis=1), p.w_h)
    npt.assert_array_equal(np.concatenate([p.b_z, p.b_r, p.b_h]), p.b)
    assert np.shares_memory(p.w_hr, p.w_h)


def test_gru_shape_validation(rng):
    with pytest.raises(ShapeError):
        GruCellParams(np.zeros((4, 3)), np.zeros((3, 3)), np.zeros(3))
    p = random_gru_params(rng, 4, 3)
    with pytest.raises(ShapeError):
        gru_step(np.zeros(3), np.zeros(3), p)
