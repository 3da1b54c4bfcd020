import numpy as np
import pytest

from vppdispatch.domain import TimeGrid
from vppdispatch.forecast import (
    ForecastModel,
    ModelSpec,
    Normalization,
    OnlineData,
    RecurrentNet,
    TrainConfig,
    UpdateScheme,
    apply_update,
    window_dataset_recurrent,
)
from vppdispatch.forecast.models import CELL_PARAMS, PARAM_NAMES, GateWeights, _sigmoid, recurrence
from vppdispatch.forecast.training import _gd_train

from oracles import LoopRecurrentNet, finite_difference_grads, masked_sigmoid


def test_zero_weights_output_equals_readout_bias():
    net = RecurrentNet(3, 4, 5, seed=0)
    for name in PARAM_NAMES:
        net.params[name][:] = 0.0
    net.params["bo"][:] = np.arange(5.0)
    y, h = net.forward(np.random.default_rng(0).standard_normal((6, 3))[None])
    assert np.array_equal(y[0], np.arange(5.0))
    assert np.array_equal(h[0], np.zeros(4))


def test_single_step_sequence_is_one_cell_application():
    net = RecurrentNet(2, 3, 2, seed=1)
    x = np.array([[0.5, -0.3]])
    y, h = net.forward(x[None])
    y, h = y[0], h[0]
    p = net.params

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h0 = np.zeros(3)
    z = sigmoid(p["Wz"] @ x[0] + p["Uz"] @ h0 + p["bz"])
    r = sigmoid(p["Wr"] @ x[0] + p["Ur"] @ h0 + p["br"])
    c = np.tanh(p["Wc"] @ x[0] + p["Uc"] @ (r * h0) + p["bc"])
    h_ref = (1 - z) * h0 + z * c
    assert np.allclose(h, h_ref, atol=1e-12)
    assert np.allclose(y, p["Wo"] @ h_ref + p["bo"], atol=1e-12)


def test_forward_rejects_bad_shapes():
    net = RecurrentNet(3, 4, 2, seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((5, 2))[None])
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 0, 3)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(6):
        net = RecurrentNet(input_dim=3, hidden_dim=5, output_horizon=4, seed=trial)
        X = rng.standard_normal((4, 7, 3))
        Y = rng.standard_normal((4, 4))
        _, grads = net.loss_and_grads(X, Y)
        fd = finite_difference_grads(net, X, Y)
        for name in PARAM_NAMES:
            num = np.abs(grads[name] - fd[name])
            den = np.maximum(1e-6, np.abs(grads[name]) + np.abs(fd[name]))
            worst = max(worst, float((num / den).max()))
    assert worst < 1e-4


def test_copy_is_independent():
    net = RecurrentNet(2, 3, 2, seed=0)
    dup = net.copy()
    dup.params["Wo"][:] += 1.0
    assert not np.array_equal(net.params["Wo"], dup.params["Wo"])


def test_cell_and_readout_partition():
    assert set(CELL_PARAMS) | {"Wo", "bo"} == set(PARAM_NAMES)


def test_sigmoid_matches_masked_form_bitwise():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2],
        rng.standard_normal(100_000),
        rng.normal(0.0, 30.0, 10_000),
    ])
    for arr in (x, x.reshape(-1, 10), x[:16].reshape(1, 16), x[10:74].reshape(4, 16)):
        got = _sigmoid(arr)
        ref = masked_sigmoid(arr)
        assert got.shape == arr.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("H", [1, 16])  # a one-unit cell's per-gate products are matrix-vector ones
@pytest.mark.parametrize("K", [1, 24])
@pytest.mark.parametrize("B", [1, 2, 64, 241])
def test_fused_cell_matches_the_per_gate_loop_bitwise(B, K, H):
    rng = np.random.default_rng(B * 31 + K + H)
    net = RecurrentNet(input_dim=7, hidden_dim=H, output_horizon=24, seed=B + K)
    loop = LoopRecurrentNet.of(net)
    X = rng.standard_normal((B, K, 7))
    Y = rng.standard_normal((B, 24))
    y, h = net.forward(X)
    y_ref, h_ref = loop.forward(X)
    assert _bits_equal(y, y_ref) and _bits_equal(h, h_ref)
    loss, grads = net.loss_and_grads(X, Y)
    loss_ref, grads_ref = loop.loss_and_grads(X, Y)
    assert _bits_equal(loss, loss_ref)
    assert list(grads) == list(PARAM_NAMES)
    for name in PARAM_NAMES:
        assert _bits_equal(grads[name], grads_ref[name]), name


@pytest.mark.parametrize("H", [1, 16])
@pytest.mark.parametrize("B", [1, 2, 64, 241])
@pytest.mark.parametrize("M", [1, 4])
def test_stacked_recurrence_matches_each_forward_bitwise(M, B, H):
    rng = np.random.default_rng(M * 1000 + B * 31 + H)
    nets = [RecurrentNet(input_dim=7, hidden_dim=H, output_horizon=24, seed=10 * M + m) for m in range(M)]
    X = rng.standard_normal((M, B, 24, 7))
    y, h = recurrence(X, GateWeights.stack(nets))
    assert y.shape == (M, B, 24) and h.shape == (M, B, H)
    for m, net in enumerate(nets):
        y_ref, h_ref = net.forward(X[m])
        assert _bits_equal(y[m], y_ref) and _bits_equal(h[m], h_ref), m


def _drift_series(T: int) -> np.ndarray:
    t = np.arange(T)
    noise = np.random.default_rng(7).normal(0.0, 0.3, T)
    return 5.0 + 3.0 * np.sin(2 * np.pi * t / 24) + 0.01 * t + noise


def test_training_matches_the_per_gate_loop_bitwise():
    grid = TimeGrid(0, 24 * 12)
    series = _drift_series(24 * 12)
    X, Y = window_dataset_recurrent(series, grid, 24, 24, 0, 24 * 8)
    norm = Normalization.fit(X, Y)
    Xn, Yn = norm.norm_x(X), norm.norm_y(Y)
    net = RecurrentNet(input_dim=7, hidden_dim=8, output_horizon=24, seed=4)
    loop = LoopRecurrentNet.of(net)
    hyper = TrainConfig(epochs=120, learning_rate=0.05, batch_size=32, seed=2)
    _gd_train(net, Xn, Yn, hyper, hyper.learning_rate)
    _gd_train(loop, Xn, Yn, hyper, hyper.learning_rate)
    for name in PARAM_NAMES:
        assert _bits_equal(net.params[name], loop.params[name]), name

    spec = ModelSpec(kind="recurrent", target="load", lag_K=24, horizon=24, hidden_dim=8)
    online = OnlineData(history=series, calendar=grid, now=24 * 11, online_window=72)
    fine = TrainConfig(epochs=20, learning_rate=0.05, batch_size=16, seed=9)
    for kind in ("smalllr", "freeze"):
        model = ForecastModel(spec=spec, norm=norm, net=net)
        model_ref = ForecastModel(spec=spec, norm=norm, net=loop)
        out = apply_update(model, UpdateScheme(kind), online, fine)
        out_ref = apply_update(model_ref, UpdateScheme(kind), online, fine)
        assert isinstance(out_ref.net, LoopRecurrentNet)
        assert not np.array_equal(out.net.params["Wo"], net.params["Wo"]), kind  # the fine-tune trained
        for name in PARAM_NAMES:
            assert _bits_equal(out.net.params[name], out_ref.net.params[name]), (kind, name)
