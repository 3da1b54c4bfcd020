from dataclasses import replace

import numpy as np
import pytest

from vppdispatch.domain import TimeGrid
from vppdispatch.evaluate import wmape
from vppdispatch.forecast import (
    DivergenceError,
    InsufficientHistoryError,
    ModelSpec,
    Normalization,
    OnlineData,
    TrainConfig,
    UpdateScheme,
    UpdateSchemeError,
    apply_update,
    estimate_variance,
    load_model,
    make_dataset,
    predict,
    save_model,
    train,
)
from vppdispatch.forecast.models import CELL_PARAMS, RecurrentNet, mse
from vppdispatch.forecast.training import _gd_train

from oracles import recursive_predict_linear, windowed_estimate_variance


GRID = TimeGrid(0, 24 * 30)


def _linear_spec(target="load", K=24):
    return ModelSpec(kind="linear", target=target, lag_K=K, horizon=24)


def _recurrent_spec(target="load", hidden=8, horizon=24):
    return ModelSpec(kind="recurrent", target=target, lag_K=24, horizon=horizon, hidden_dim=hidden)


def _sinusoid(T=24 * 30, amp=3.0, base=5.0):
    t = np.arange(T)
    return base + amp * np.sin(2 * np.pi * t / 24)


class TestTrainLinear:
    def test_exactly_linear_data_fit_below_one_percent(self):
        rng = np.random.default_rng(0)
        series = _sinusoid() + 0.5 * np.cos(2 * np.pi * np.arange(24 * 30) / 168)
        spec = _linear_spec()
        X, y = make_dataset(spec, series, GRID, 0, 24 * 20)
        model = train(spec, (X, y), TrainConfig(seed=0))
        preds = np.array([
            predict(model, series, GRID, t, 1)[0] for t in range(24 * 20, 24 * 25)
        ])
        acts = series[24 * 20 : 24 * 25]
        assert wmape(acts, preds) < 0.01

    def test_constant_series_prediction(self):
        series = np.full(24 * 10, 7.5)
        spec = _linear_spec()
        X, y = make_dataset(spec, series, GRID, 0, 24 * 8)
        model = train(spec, (X, y), TrainConfig(seed=0))
        out = predict(model, series, GRID, 24 * 8, 24)
        assert np.all(np.abs(out - 7.5) < 1e-6)

    def test_constant_feature_gets_unit_scale(self):
        X = np.ones((10, 3))
        y = np.arange(10.0)
        norm = Normalization.fit(X, y)
        assert np.all(norm.feat_scale == 1.0)
        model = train(_linear_spec(K=3), (X, y), TrainConfig(seed=0))
        assert model.norm.feat_scale.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "bad", [{"epochs": -1}, {"batch_size": 0}, {"learning_rate": 0.0}, {"learning_rate": float("nan")}]
)
def test_train_config_rejects_out_of_range_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        TrainConfig(**bad)
    TrainConfig(epochs=0, batch_size=1, learning_rate=1e-9)  # the edges are allowed


class TestTrainRecurrent:
    def test_sinusoid_benchmark_under_ten_percent(self):
        series = _sinusoid()
        spec = _recurrent_spec(hidden=16)
        X, Y = make_dataset(spec, series, GRID, 0, 24 * 20)
        model = train(spec, (X, Y), TrainConfig(epochs=150, learning_rate=0.15, batch_size=64, seed=0))
        preds, acts = [], []
        for t in range(24 * 20, 24 * 28, 12):
            preds.append(predict(model, series, GRID, t, 24))
            acts.append(series[t : t + 24])
        assert wmape(np.concatenate(acts), np.concatenate(preds)) < 0.10

    def test_loss_not_worse_than_initial(self):
        series = _sinusoid()
        spec = _recurrent_spec()
        X, Y = make_dataset(spec, series, GRID, 0, 24 * 10)
        hyper = TrainConfig(epochs=30, learning_rate=0.1, batch_size=32, seed=3)
        model = train(spec, (X, Y), hyper)
        Xn, Yn = model.norm.norm_x(X), model.norm.norm_y(Y)
        initial = RecurrentNet(7, spec.hidden_dim, spec.horizon, seed=hyper.seed)  # the net train starts from
        before = mse(initial.forward(Xn)[0], Yn)
        assert mse(model.net.forward(Xn)[0], Yn) < before

    def test_seed_determinism_is_bitwise(self):
        series = _sinusoid() + np.random.default_rng(5).normal(0, 0.3, 24 * 30)
        spec = _recurrent_spec()
        X, Y = make_dataset(spec, series, GRID, 0, 24 * 10)
        hyper = TrainConfig(epochs=10, learning_rate=0.1, batch_size=16, seed=11)
        m1 = train(spec, (X, Y), hyper)
        m2 = train(spec, (X, Y), hyper)
        for name in m1.net.params:
            assert np.array_equal(m1.net.params[name], m2.net.params[name])

    def test_divergent_learning_rate_reports_epoch(self):
        series = _sinusoid()
        spec = _recurrent_spec()
        X, Y = make_dataset(spec, series, GRID, 0, 24 * 10)
        with pytest.raises(DivergenceError):
            train(spec, (X, Y), TrainConfig(epochs=200, learning_rate=1e4, batch_size=32, seed=0))

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_training_makes_two_full_dataset_forwards(self, epochs, monkeypatch):
        series = _sinusoid() + np.random.default_rng(1).normal(0, 0.2, 24 * 30)
        X, Y = make_dataset(_recurrent_spec(hidden=4), series, GRID, 0, 24 * 6)
        norm = Normalization.fit(X, Y)
        Xn, Yn = norm.norm_x(X), norm.norm_y(Y)
        net = RecurrentNet(7, 4, 24, seed=2)
        batches = []
        forward = net.forward

        def counting(sequences, *args, **kwargs):
            batches.append(sequences.shape[0])
            return forward(sequences, *args, **kwargs)

        monkeypatch.setattr(net, "forward", counting)
        _gd_train(net, Xn, Yn, TrainConfig(epochs=epochs, learning_rate=0.1, batch_size=16, seed=4), 0.1)
        n = Xn.shape[0]
        assert n % 16 != 0  # no minibatch is the full dataset
        assert batches.count(n) == 2  # the losses before the first epoch and after the last
        assert len(batches) == 2 + epochs * -(-n // 16)

    def test_exploding_finite_weights_raise(self):
        series = _sinusoid()
        spec = _recurrent_spec(hidden=4)
        X, Y = make_dataset(spec, series, GRID, 0, 24 * 10)
        model = train(spec, (X, Y), TrainConfig(epochs=3, seed=0))
        online = OnlineData(history=series, calendar=GRID, now=24 * 12, online_window=40)
        hyper = TrainConfig(epochs=3, learning_rate=1e12, seed=0)
        with pytest.raises(DivergenceError, match="rose"):
            apply_update(model, UpdateScheme("smalllr", lr_multiplier=1.0), online, hyper)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(_recurrent_spec(), (np.zeros((0, 24, 7)), np.zeros((0, 24))), TrainConfig())


class TestPredict:
    def test_solar_floored_at_zero(self):
        series = np.full(24 * 10, 0.05)
        spec = ModelSpec(kind="linear", target="solar_capacity", lag_K=24, horizon=24)
        X, y = make_dataset(spec, series, GRID, 0, 24 * 8)
        model = train(spec, (X, y), TrainConfig(seed=0))
        model.correction = (1.0, -1.0)  # push raw output negative
        out = predict(model, series, GRID, 24 * 8, 24)
        assert np.all(out == 0.0)

    def test_horizon_one_matches_head_of_longer_forecast(self):
        series = _sinusoid()
        spec = _recurrent_spec(hidden=8)
        X, Y = make_dataset(spec, series, GRID, 0, 24 * 10)
        model = train(spec, (X, Y), TrainConfig(epochs=20, learning_rate=0.1, batch_size=32, seed=0))
        one = predict(model, series, GRID, 24 * 10, 1)
        full = predict(model, series, GRID, 24 * 10, 24)
        assert one.shape == (1,)
        assert one[0] == full[0]


class TestLinearPredictAgainstRecursion:
    """The linear forecast against the loop that rebuilds every feature
    vector (``tests/oracles.py``), bit for bit."""

    CALENDAR = TimeGrid(0, 24 * 40)

    @pytest.fixture(scope="class", params=[("load", 24), ("price", 24), ("load", 5)], ids=lambda p: f"{p[0]}-K{p[1]}")
    def setting(self, request):
        target, K = request.param
        rng = np.random.default_rng(K)
        # swings through zero, so the load floor acts
        series = _sinusoid(24 * 40, amp=3.0, base=0.2) + 0.3 * rng.standard_normal(24 * 40)
        spec = _linear_spec(target=target, K=K)
        model = train(spec, make_dataset(spec, series, self.CALENDAR, 0, 24 * 20), TrainConfig(seed=0))
        return model, series

    @pytest.mark.parametrize("correction", [(1.0, 0.0), (1.3, -0.7)])
    @pytest.mark.parametrize("horizon_T", [1, 24])
    def test_same_bits(self, setting, correction, horizon_T):
        model, series = setting
        model = replace(model, correction=correction)
        K = model.spec.lag_K
        # the first step with K lags, steps whose horizon crosses a month
        # boundary (step 720), and the end of the history
        for t in (K, 700, 715, 719, 720, len(series)):
            got = predict(model, series, self.CALENDAR, t, horizon_T)
            want = recursive_predict_linear(model, series, self.CALENDAR, t, horizon_T)
            assert got.shape == want.shape == (horizon_T,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), t
        if model.spec.target == "load" and correction != (1.0, 0.0):
            assert np.any(predict(model, series, self.CALENDAR, 700, 24) == 0.0)  # the floor acted

    def test_short_history_raises_as_the_loop(self, setting):
        model, series = setting
        K = model.spec.lag_K
        for t, history in ((K - 1, series), (len(series) + 1, series), (30, series[:20])):
            with pytest.raises(InsufficientHistoryError):
                recursive_predict_linear(model, history, self.CALENDAR, t, 24)
            with pytest.raises(InsufficientHistoryError):
                predict(model, history, self.CALENDAR, t, 24)


class TestEstimateVariance:
    def test_perfect_predictions_zero_sigma(self):
        series = np.full(24 * 10, 4.0)
        spec = _linear_spec()
        X, y = make_dataset(spec, series, GRID, 0, 24 * 6)
        model = train(spec, (X, y), TrainConfig(seed=0))
        est = estimate_variance(model, series, GRID, 24 * 6, 24 * 10)
        assert np.all(est.sigma < 1e-6)

    def test_alternating_unit_residuals(self):
        # piecewise-constant series the linear model fits exactly, then
        # perturbed actuals alternate +1/-1 around the prediction
        series = np.full(24 * 12, 4.0)
        spec = _linear_spec()
        X, y = make_dataset(spec, series, GRID, 0, 24 * 6)
        model = train(spec, (X, y), TrainConfig(seed=0))
        noisy = series.copy()
        idx = np.arange(24 * 6, 24 * 12)
        noisy[idx] += np.where(idx % 2 == 0, 1.0, -1.0)
        est = estimate_variance(model, noisy, GRID, 24 * 6, 24 * 12)
        # residual at each horizon offset alternates +-1 across windows
        assert np.all(np.abs(est.sigma - 1.0) < 0.35)

    def test_growing_noise_gives_nondecreasing_sigma(self):
        rng = np.random.default_rng(0)
        T = 24 * 16
        base = np.full(T, 10.0)
        spec = _linear_spec()
        X, y = make_dataset(spec, base, GRID, 0, 24 * 8)
        model = train(spec, (X, y), TrainConfig(seed=0))
        # noise grows with time so longer horizons see more spread
        drifty = base + rng.normal(0, 0.02, T) * np.arange(T)
        est = estimate_variance(model, drifty, GRID, 24 * 8, T)
        smooth = np.convolve(est.sigma, np.ones(6) / 6, mode="valid")
        assert smooth[-1] > smooth[0]

    def test_too_few_windows_rejected(self):
        series = np.full(24 * 3, 4.0)
        spec = _linear_spec()
        X, y = make_dataset(spec, series, GRID, 0, 48)
        model = train(spec, (X, y), TrainConfig(seed=0))
        with pytest.raises(ValueError, match="windows"):
            estimate_variance(model, series, GRID, 48, 72)


def _trained_recurrent(series, seed=0, epochs=25):
    spec = _recurrent_spec(hidden=8)
    X, Y = make_dataset(spec, series, GRID, 0, 24 * 10)
    return train(spec, (X, Y), TrainConfig(epochs=epochs, learning_rate=0.1, batch_size=32, seed=seed))


class TestBatchedEstimateVariance:
    """The recurrent estimate runs one forward over every window; the
    oracle makes one ``predict`` call per window."""

    T = 24 * 20

    @pytest.fixture(scope="class")
    def setting(self):
        t = np.arange(self.T)
        series = 4.0 + 3.0 * np.sin(2 * np.pi * t / 24) + np.random.default_rng(1).normal(0.0, 0.4, self.T)
        return _trained_recurrent(series, seed=2, epochs=10), series

    @staticmethod
    def _both(model, series, t_start, t_end):
        got, ref = [], []
        est = estimate_variance(model, series, GRID, t_start, t_end, got)
        est_ref = windowed_estimate_variance(model, series, GRID, t_start, t_end, ref)
        return est, est_ref, got, ref

    @staticmethod
    def _assert_close(est, est_ref, got, ref):
        assert np.allclose(est.sigma, est_ref.sigma, rtol=1e-12, atol=0.0)
        assert len(got) == len(ref)
        for (actual, pred), (actual_ref, pred_ref) in zip(got, ref):
            assert np.array_equal(actual, actual_ref)
            assert np.allclose(pred, pred_ref, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("t_start, t_end", [(24 * 12, 24 * 20), (0, 24 * 3), (24 * 18 - 1, 24 * 19 + 1)])
    def test_matches_one_forecast_per_window(self, setting, t_start, t_end):
        model, series = setting
        est, est_ref, got, ref = self._both(model, series, t_start, t_end)
        self._assert_close(est, est_ref, got, ref)
        first = max(t_start, model.spec.lag_K)
        assert len(got) == t_end - 24 - first + 1
        for i, (actual, _) in enumerate(got):  # in window order
            assert np.array_equal(actual, series[first + i : first + i + 24])

    def test_correction_and_floor_are_applied(self, setting):
        model, series = setting
        shifted = replace(model, correction=(0.9, -3.0))
        est, est_ref, got, ref = self._both(shifted, series, 24 * 12, 24 * 20)
        self._assert_close(est, est_ref, got, ref)
        preds = np.stack([pred for _, pred in got])
        assert preds.min() == 0.0 and np.mean(preds == 0.0) > 0.05  # load floors at zero
        unfloored = replace(shifted, spec=replace(shifted.spec, target="price"))
        est, est_ref, got, ref = self._both(unfloored, series, 24 * 12, 24 * 20)
        self._assert_close(est, est_ref, got, ref)
        assert np.stack([pred for _, pred in got]).min() < -0.5

    @pytest.mark.parametrize("t_end", [24 * 12 + 22, 24 * 12 + 23, 24 * 12 + 24])
    def test_fewer_than_two_windows_rejected(self, setting, t_end):
        model, series = setting
        got, ref = [], []
        with pytest.raises(ValueError, match="windows"):
            estimate_variance(model, series, GRID, 24 * 12, t_end, got)
        with pytest.raises(ValueError, match="windows"):
            windowed_estimate_variance(model, series, GRID, 24 * 12, t_end, ref)
        assert len(got) == len(ref) == max(0, t_end - 24 * 12 - 23)
        for (actual, pred), (actual_ref, pred_ref) in zip(got, ref):
            assert np.array_equal(actual, actual_ref)
            assert np.allclose(pred, pred_ref, rtol=1e-14, atol=1e-14)

    def test_short_history_raises(self, setting):
        model, series = setting
        with pytest.raises(InsufficientHistoryError):
            estimate_variance(model, series[: 24 * 15], GRID, 24 * 12, 24 * 16)

    def test_linear_models_match_bitwise(self):
        series = _sinusoid(24 * 16) + np.random.default_rng(3).normal(0.0, 0.2, 24 * 16)
        spec = _linear_spec()
        model = train(spec, make_dataset(spec, series, GRID, 0, 24 * 8), TrainConfig(seed=0))
        model = replace(model, correction=(1.1, -0.2))
        est, est_ref, got, ref = self._both(model, series, 24 * 8, 24 * 16)
        assert np.array_equal(est.sigma, est_ref.sigma)
        assert len(got) == len(ref)
        for (actual, pred), (actual_ref, pred_ref) in zip(got, ref):
            assert np.array_equal(actual, actual_ref) and np.array_equal(pred, pred_ref)


class TestApplyUpdate:
    def setup_method(self):
        self.series = _sinusoid(24 * 20)
        self.model = _trained_recurrent(self.series)
        self.online = OnlineData(
            history=self.series, calendar=GRID, now=24 * 16,
            predicted=self.series[24 * 12 : 24 * 16], actual=self.series[24 * 12 : 24 * 16],
        )
        self.hyper = TrainConfig(epochs=3, learning_rate=0.05, batch_size=32, seed=5)

    def test_noft_returns_parameters_bitwise_unchanged(self):
        before = {k: v.copy() for k, v in self.model.net.params.items()}
        out = apply_update(self.model, UpdateScheme("noft"), self.online, self.hyper)
        for name, arr in out.net.params.items():
            assert np.array_equal(arr, before[name])

    def test_selfadapt_identity_when_predictions_perfect(self):
        out = apply_update(
            self.model, UpdateScheme("selfadapt", correction_window=48), self.online, self.hyper
        )
        a, b = out.correction
        assert abs(a - 1.0) < 1e-8 and abs(b) < 1e-8

    def test_selfadapt_recovers_doubling(self):
        online = OnlineData(
            history=self.series, calendar=GRID, now=24 * 16,
            predicted=self.series[24 * 12 : 24 * 16],
            actual=2.0 * self.series[24 * 12 : 24 * 16],
        )
        out = apply_update(self.model, UpdateScheme("selfadapt", correction_window=48), online, self.hyper)
        a, b = out.correction
        assert abs(a - 2.0) < 1e-6 and abs(b) < 1e-6

    def test_selfadapt_window_exceeding_data_rejected(self):
        online = OnlineData(
            history=self.series, calendar=GRID, now=24 * 16,
            predicted=np.ones(10), actual=np.ones(10),
        )
        with pytest.raises(UpdateSchemeError, match="window"):
            apply_update(self.model, UpdateScheme("selfadapt", correction_window=72), online, self.hyper)

    def test_freeze_keeps_cell_parameters_bitwise(self):
        before = {k: v.copy() for k, v in self.model.net.params.items()}
        out = apply_update(self.model, UpdateScheme("freeze"), self.online, self.hyper)
        for name in CELL_PARAMS:
            assert np.array_equal(out.net.params[name], before[name])
        assert not np.array_equal(out.net.params["Wo"], before["Wo"])

    def test_smalllr_moves_all_parameters(self):
        out = apply_update(self.model, UpdateScheme("smalllr"), self.online, self.hyper)
        changed = [
            name for name in out.net.params
            if not np.array_equal(out.net.params[name], self.model.net.params[name])
        ]
        assert "Wz" in changed and "Wo" in changed

    def test_gradient_scheme_rejected_for_linear_model(self):
        spec = _linear_spec()
        X, y = make_dataset(spec, self.series, GRID, 0, 24 * 10)
        linear = train(spec, (X, y), TrainConfig(seed=0))
        with pytest.raises(UpdateSchemeError):
            apply_update(linear, UpdateScheme("smalllr"), self.online, self.hyper)

    def test_scratch_retrains_from_fresh_state(self):
        out = apply_update(self.model, UpdateScheme("scratch"), self.online, self.hyper)
        assert out.net is not self.model.net
        X, Y = make_dataset(out.spec, self.series, GRID, 0, self.online.now)
        Xn, Yn = out.norm.norm_x(X), out.norm.norm_y(Y)
        fresh = RecurrentNet(7, out.spec.hidden_dim, out.spec.horizon, seed=self.hyper.seed)
        assert mse(out.net.forward(Xn)[0], Yn) < mse(fresh.forward(Xn)[0], Yn)


class TestNormalizationRoundTrip:
    def test_round_trip_within_tolerance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.0, size=(50, 7))
        y = rng.normal(-1.0, 4.0, size=50)
        norm = Normalization.fit(X, y)
        assert np.all(np.abs(norm.denorm_y(norm.norm_y(y)) - y) < 1e-12)
        back = norm.norm_x(X) * norm.feat_scale + norm.feat_mean
        assert np.all(np.abs(back - X) < 1e-12)


class TestCheckpoints:
    def test_recurrent_round_trip(self, tmp_path):
        model = _trained_recurrent(_sinusoid(24 * 20), epochs=5)
        model.correction = (1.25, -0.5)
        path = tmp_path / "model.fcst"
        save_model(model, str(path))
        back = load_model(str(path))
        assert back.spec == model.spec
        assert back.correction == model.correction
        for name, arr in model.net.params.items():
            assert np.array_equal(back.net.params[name], arr)
        series = _sinusoid(24 * 20)
        assert np.array_equal(
            predict(model, series, GRID, 24 * 12, 24), predict(back, series, GRID, 24 * 12, 24)
        )

    def test_linear_round_trip(self, tmp_path):
        series = _sinusoid(24 * 20)
        spec = _linear_spec()
        X, y = make_dataset(spec, series, GRID, 0, 24 * 10)
        model = train(spec, (X, y), TrainConfig(seed=0))
        path = tmp_path / "linear.fcst"
        save_model(model, str(path))
        back = load_model(str(path))
        assert np.array_equal(back.linear.coef, model.linear.coef)
        assert back.linear.intercept == model.linear.intercept

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fcst"
        path.write_bytes(b"NOTAMODELxxxx")
        with pytest.raises(ValueError, match="checkpoint"):
            load_model(str(path))
