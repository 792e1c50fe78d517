import numpy as np
import numpy.testing as npt
import pytest

from ais_outliers.errors import ShapeError
from ais_outliers.nn.adam import AdamState, adam_update
from ais_outliers.nn.model import ModelConfig, ModelParams, RecurrentAutoencoder

from oracles import reference_adam_update


def test_zero_gradient_leaves_params_unchanged(rng):
    params = rng.uniform(-1, 1, 12)
    before = params.copy()
    state = AdamState.for_params(params)
    adam_update(params, np.zeros_like(params), state)
    npt.assert_array_equal(params, before)
    assert state.step == 1


def test_first_step_matches_closed_form(rng):
    # After bias correction, step 1 is exactly -alpha * g / (|g| + eps).
    params = rng.uniform(-1, 1, 8)
    grads = rng.uniform(-2, 2, 8)
    before = params.copy()
    state = AdamState.for_params(params, alpha=1e-3)
    adam_update(params, grads, state)
    expected = before - 1e-3 * grads / (np.abs(grads) + state.eps)
    npt.assert_allclose(params, expected, rtol=0, atol=1e-18)


def test_scalar_quadratic_converges():
    # Minimize f(x) = (x - 2)^2 from x = 10. Adam's momentum makes the raw
    # loss oscillate near the optimum, so monotonicity is asserted on the
    # windowed envelope.
    params = np.array([10.0])
    state = AdamState.for_params(params, alpha=0.1)
    losses = []
    for _ in range(300):
        adam_update(params, 2.0 * (params - 2.0), state)
        losses.append(float((params[0] - 2.0) ** 2))
    assert losses[-1] < 1e-3
    envelopes = [max(losses[i:i + 50]) for i in range(50, 300, 50)]
    assert all(b < a for a, b in zip(envelopes, envelopes[1:]))


def test_state_mirrors_param_shapes(rng):
    params = np.zeros(12)
    state = AdamState.for_params(params)
    assert state.m.shape == params.shape
    assert state.v.shape == params.shape
    assert state.step == 0


def test_mismatched_dicts_rejected():
    params = np.zeros(2)
    state = AdamState.for_params(params)
    with pytest.raises(ShapeError):
        adam_update(params, np.zeros(3), state)
    with pytest.raises(ShapeError):
        adam_update(np.zeros(3), np.zeros(3), state)
    assert state.step == 0


def test_updates_happen_in_place(rng):
    params = rng.uniform(-1, 1, 4)
    alias = params
    state = AdamState.for_params(params)
    adam_update(params, np.ones(4), state)
    assert params is alias


def test_vector_adam_matches_per_tensor_reference(rng):
    # A real model's tensors: the vector step over all of them at once must
    # be bitwise the per-tensor step, for several steps of bias correction.
    cfg = ModelConfig(cell_kind="gru", bidirectional=True, layers=2, hidden=3,
                      timesteps=5, features=4)
    model = RecurrentAutoencoder.initialize(cfg, 3)
    reference = {k: v.copy() for k, v in model.params.flat().items()}
    m = {k: np.zeros_like(v) for k, v in reference.items()}
    v = {k: np.zeros_like(a) for k, a in reference.items()}
    state = AdamState.for_params(model.params.vector, alpha=3e-3)
    for step in range(1, 6):
        grads = {k: rng.standard_normal(a.shape) for k, a in reference.items()}
        grad_params = ModelParams.zeros(cfg)
        for name, arr in grad_params.flat().items():
            arr[...] = grads[name]
        adam_update(model.params.vector, grad_params.vector, state)
        reference_adam_update(reference, grads, m, v, step, alpha=3e-3)
    for name, arr in model.params.flat().items():
        npt.assert_array_equal(arr, reference[name])
