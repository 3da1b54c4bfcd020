"""Stacked recurrent inference against per-series ``predict``, bit for bit."""

import numpy as np
import pytest
from dataclasses import replace

from vppdispatch.controller import ControllerConfig, ModelProvider, Split
from vppdispatch.domain import TimeGrid
from vppdispatch.forecast import (
    ForecastModel,
    InsufficientHistoryError,
    ModelSpec,
    Normalization,
    RecurrentNet,
    TrainConfig,
    UpdateScheme,
    predict,
    predict_stacked,
    window_dataset_recurrent,
)
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic

GRID = TimeGrid(0, 24 * 10)
TARGETS = ("load", "solar_capacity", "price", "load")


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _series(m: int) -> np.ndarray:
    t = np.arange(GRID.horizon_T)
    noise = np.random.default_rng(m).normal(0.0, 0.3, t.size)
    return 2.0 + (m + 1) * np.sin(2 * np.pi * (t - 3 * m) / 24) + noise


def _model(m: int, H: int) -> ForecastModel:
    """An untrained net with the normalization of its own series and a correction."""
    spec = ModelSpec(kind="recurrent", target=TARGETS[m % 4], lag_K=24, horizon=24, hidden_dim=H)
    X, Y = window_dataset_recurrent(_series(m), GRID, 24, 24, 0, 24 * 6)
    net = RecurrentNet(input_dim=7, hidden_dim=H, output_horizon=24, seed=m)
    return ForecastModel(spec=spec, norm=Normalization.fit(X, Y), net=net, correction=(1.0 + 0.1 * m, -0.2 * m))


def _check_rows(models, histories, t, horizon_T):
    got = predict_stacked(models, histories, GRID, t, horizon_T)
    assert got.shape == (len(models), horizon_T)
    for model, history, row in zip(models, histories, got):
        assert np.array_equal(_bits(row), _bits(predict(model, history, GRID, t, horizon_T)))


@pytest.mark.parametrize("H", [1, 16])  # a one-unit cell's products are matrix-vector ones
@pytest.mark.parametrize("M", [1, 2, 4])
def test_stacked_predict_matches_each_predict_bitwise(M, H):
    models = [_model(m, H) for m in range(M)]
    histories = [_series(m) for m in range(M)]
    for t, horizon_T in [(24, 24), (100, 24), (200, 23), (239, 1)]:
        _check_rows(models, histories, t, horizon_T)


def test_a_shared_model_may_appear_twice():
    shared, other = _model(1, 16), _model(0, 16)
    histories = [_series(1), _series(2), _series(0)]
    _check_rows([shared, shared, other], histories, 150, 24)


def test_stacked_predict_keeps_the_per_series_checks():
    models = [_model(m, 4) for m in range(2)]
    histories = [_series(0), _series(1)]
    with pytest.raises(ValueError, match="cannot cover 25 steps"):
        predict_stacked(models, histories, GRID, 100, 25)
    with pytest.raises(InsufficientHistoryError):
        predict_stacked(models, [histories[0], histories[1][:50]], GRID, 100, 24)
    with pytest.raises(InsufficientHistoryError):
        predict_stacked(models, histories, GRID, 23, 24)


# ----------------------------------------------------------------------
# the provider's stacked forecasts
# ----------------------------------------------------------------------

INSTANCE = generate_synthetic(SyntheticSpec(
    days=6, n_buildings=2, noise_load=0.05, noise_solar=0.1,
    battery_hours=4.0, battery_c_rate=0.25, seed=11,
))
SPLIT = Split(train_end=3 * 24, val_end=4 * 24)
CONFIG = ControllerConfig(
    seed=3, n_scenarios=4, forecaster="recurrent", hidden_dim=4,
    train=TrainConfig(epochs=2, seed=0), finetune=TrainConfig(epochs=2, seed=0),
    scheme=UpdateScheme("smalllr"), T_ft=24, finetune_cooldown=24, val_window=48,
)


def _provider(config: ControllerConfig) -> ModelProvider:
    provider = ModelProvider(INSTANCE, SPLIT, config)
    provider.pretrain()
    return provider


def _assert_per_series(provider: ModelProvider, t: int, H: int) -> None:
    fc = provider.point_forecasts(t, H)
    grid, models, series = provider.grid, provider.models, provider.series
    price = np.maximum(predict(models["price"], series["price"][0], grid, t, H), 0.0)
    assert np.array_equal(_bits(fc.price), _bits(price))
    for g, history in enumerate(series["solar"]):
        assert np.array_equal(_bits(fc.solar[g]), _bits(predict(models["solar"], history, grid, t, H)))
    for u in range(len(INSTANCE.buildings)):
        ref = predict(models[f"load:{u}"], series[f"load:{u}"][0], grid, t, H)
        assert np.array_equal(_bits(fc.load[u]), _bits(ref))


@pytest.mark.parametrize("price_forecaster", ["linear", "recurrent"])
def test_point_forecasts_match_per_series_predict(price_forecaster):
    provider = _provider(replace(CONFIG, price_forecaster=price_forecaster))
    assert len(provider._stack_rows) == 4 + (price_forecaster == "recurrent")  # solar twice, two loads
    for t, H in [(SPLIT.val_end, 24), (SPLIT.val_end + 30, 24), (INSTANCE.n_steps - 5, 5)]:
        _assert_per_series(provider, t, H)


def test_a_fine_tune_moves_the_stacked_forecasts():
    provider = _provider(CONFIG)
    t = SPLIT.val_end + 24
    before = provider.point_forecasts(t, 24)
    assert provider.maybe_finetune(t, 24) is not None
    _assert_per_series(provider, t, 24)
    assert not np.array_equal(provider.point_forecasts(t, 24).load, before.load)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_fine_tune_keeps_the_stacked_forecasts():
    config = replace(CONFIG, finetune=TrainConfig(epochs=2, learning_rate=1e200, seed=0))
    provider = _provider(config)
    t = SPLIT.val_end + 24
    before = provider.point_forecasts(t, 24)
    assert provider.maybe_finetune(t, 24) is not None
    assert provider.divergences == 3  # solar and both loads; the linear price model refits
    after = provider.point_forecasts(t, 24)
    assert np.array_equal(_bits(after.load), _bits(before.load))
    assert np.array_equal(_bits(after.solar), _bits(before.solar))


def test_linear_forecasters_build_no_stack(monkeypatch):
    provider = _provider(replace(CONFIG, forecaster="linear"))
    assert provider._stack_rows == []
    monkeypatch.setattr("vppdispatch.controller.predict_stacked", None)  # calling it would raise
    _assert_per_series(provider, SPLIT.val_end, 24)
