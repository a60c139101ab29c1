import numpy as np
import pytest

from irunet import rng
from irunet.config import TrainConfig
from irunet.layers import ConvSpec, init_params
from irunet.model import ModelConfig, ParamStore, build_params
from irunet.optim import AdamState, adam_step

# beta1, beta2 and epsilon as a default training run passes them
ADAM = (TrainConfig().beta1, TrainConfig().beta2, TrainConfig().epsilon)


def single_param_store(values, dtype=np.float64):
    spec = ConvSpec(1, 1, kernel=1)
    lp = init_params(spec, 0, name="p", dtype=dtype)
    lp.weight.data[...] = np.asarray(values, dtype=dtype).reshape(1, 1, 1, 1)
    store = ParamStore()
    store.add(lp)
    return store, lp


def set_grads(store, weight_grad, bias_grad=0.0):
    for name, t in store.named_tensors().items():
        t.grad = np.full_like(t.data, bias_grad if name.endswith(".bias") else weight_grad)


def test_zero_gradient_leaves_parameters_unchanged():
    store, lp = single_param_store([0.7])
    before = lp.weight.data.copy()
    set_grads(store, 0.0, 0.0)
    state = AdamState.initial(store)
    adam_step(store, state, 1e-4, *ADAM)
    assert np.array_equal(lp.weight.data, before)
    assert state.t == 1


def test_first_step_closed_form():
    # t=1: mhat = g, vhat = g^2, delta = -lr * g / (|g| + eps)
    g = 0.37
    lr, eps = 1e-4, 1e-7
    store, lp = single_param_store([1.0])
    set_grads(store, g)
    adam_step(store, AdamState.initial(store), lr, 0.9, 0.999, eps)
    expected = 1.0 - lr * g / (abs(g) + eps)
    assert lp.weight.data.reshape(()) == pytest.approx(expected, abs=1e-15)


def test_first_step_approximates_sign_for_large_gradient():
    lr = 1e-4
    for g in (5.0, -5.0):
        store, lp = single_param_store([0.0])
        set_grads(store, g)
        adam_step(store, AdamState.initial(store), lr, *ADAM)
        assert lp.weight.data.reshape(()) == pytest.approx(-lr * np.sign(g), rel=1e-6)


def test_two_steps_descend_quadratic():
    # f(w) = 0.5 * w^2, grad = w
    store, lp = single_param_store([2.0])
    state = AdamState.initial(store)
    losses = []
    for _ in range(2):
        w = float(lp.weight.data.reshape(()))
        losses.append(0.5 * w * w)
        set_grads(store, w)
        adam_step(store, state, 0.05, *ADAM)
    w = float(lp.weight.data.reshape(()))
    losses.append(0.5 * w * w)
    assert losses[2] < losses[1] < losses[0]


def test_missing_gradient_rejected():
    store, lp = single_param_store([1.0])
    lp.weight.grad = np.zeros_like(lp.weight.data)
    lp.bias.grad = None
    with pytest.raises(ValueError, match="missing gradient"):
        adam_step(store, AdamState.initial(store), 1e-4, *ADAM)


def test_matches_scalar_reference_over_100_steps():
    # standalone scalar Adam, float64, agreement to 1e-12
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-7
    store, lp = single_param_store([0.5])
    state = AdamState.initial(store)

    theta = 0.5
    m = v = 0.0
    grads = rng.uniform(77, 100) * 4.0 - 2.0
    for t_idx, g in enumerate(grads, start=1):
        lp.weight.grad = np.full_like(lp.weight.data, g)
        lp.bias.grad = np.zeros_like(lp.bias.data)
        adam_step(store, state, lr, b1, b2, eps)

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t_idx)
        vhat = v / (1 - b2 ** t_idx)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        assert abs(float(lp.weight.data.reshape(())) - theta) < 1e-12
    assert state.t == 100


def test_moments_mirror_parameter_shapes():
    config = ModelConfig(input_channels=3, base_width=2, stage_widths=(2, 2, 2, 2),
                         branch_width=1)
    params = build_params(config, 1)
    state = AdamState.initial(params)
    for name, t in params.named_tensors().items():
        assert state.m[name].shape == t.shape
        assert state.v[name].shape == t.shape
        assert not state.m[name].any() and not state.v[name].any()
