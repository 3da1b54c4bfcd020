import logging

import numpy as np
import pytest
from dataclasses import replace

from vppdispatch.controller import (
    ControllerConfig,
    ModelProvider,
    Split,
    run_mpc,
    run_no_storage,
    run_rbc,
    run_sofo,
)
from vppdispatch.dispatch import build_deterministic, solve_lp
from vppdispatch.forecast import TrainConfig, UpdateScheme
from vppdispatch.scenario import Forecasts
from vppdispatch.simulator import PerturbationConfig
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic


def _small_instance(days=7, seed=5, noise=0.0):
    spec = SyntheticSpec(
        days=days, n_buildings=1, noise_load=noise, noise_solar=noise,
        battery_hours=4.0, battery_c_rate=0.25, seed=seed,
    )
    return generate_synthetic(spec)


ORACLE_CFG = ControllerConfig(
    forecaster="oracle", n_scenarios=3, seed=0, scheme=UpdateScheme("noft")
)


class TestRBC:
    def test_schedule_hours(self):
        inst = _small_instance(days=3)
        split = Split(0, 0)
        cfg = ControllerConfig(forecaster="oracle", seed=0)
        ep = run_rbc(inst, split, cfg)
        hours = inst.grid.hour_of_day
        e_max = inst.storages[0].e_max
        charge_expect = 0.10 * e_max
        # hour 11 charges at a tenth of capacity, hour 18 discharges it
        for t in range(ep.steps):
            if hours[t] == 11:
                assert ep.charge[0, t] == pytest.approx(charge_expect)
            if hours[t] == 3:
                assert ep.charge[0, t] == 0.0 and ep.discharge[0, t] == 0.0
        discharging = [ep.discharge[0, t] for t in range(ep.steps) if hours[t] == 18]
        assert any(d > 0 for d in discharging)
        assert max(discharging) <= charge_expect + 1e-12

    def test_soc_stays_in_bounds(self):
        inst = _small_instance(days=5)
        ep = run_rbc(inst, Split(0, 0), ORACLE_CFG)
        s = inst.storages[0]
        assert np.all(ep.soc >= s.e_min - 1e-9) and np.all(ep.soc <= s.e_max + 1e-9)


class TestPerfectInformationCollapse:
    def _clairvoyant_objective(self, inst, split):
        window = inst.slice(split.val_end, inst.n_steps - split.val_end)
        fc = Forecasts(
            solar=np.stack([b.solar_capacity for b in window.buildings]),
            load=np.stack([b.load for b in window.buildings]),
            price=window.market.price,
        )
        sol = solve_lp(build_deterministic(window, fc))
        assert sol.status == "optimal"
        return sol.objective

    def test_sofo_matches_clairvoyant_optimum(self):
        inst = _small_instance(days=3, noise=0.0)
        split = Split(0, 0)
        horizon = inst.n_steps
        cfg = replace(ORACLE_CFG, horizon_T=horizon, T_rl=24, n_scenarios=4)
        ep = run_sofo(inst, split, cfg)
        assert ep.price_paid.sum() == pytest.approx(self._clairvoyant_objective(inst, split), abs=1e-6)

    def test_mpc_matches_clairvoyant_optimum(self):
        inst = _small_instance(days=3, noise=0.0)
        split = Split(0, 0)
        cfg = replace(ORACLE_CFG, horizon_T=inst.n_steps)
        ep = run_mpc(inst, split, cfg)
        assert ep.price_paid.sum() == pytest.approx(self._clairvoyant_objective(inst, split), abs=1e-6)

    def test_planned_soc_equals_realized_at_unit_efficiency(self):
        inst = _small_instance(days=3, noise=0.0)
        split = Split(0, 0)
        cfg = replace(ORACLE_CFG, horizon_T=inst.n_steps, T_rl=24)
        ep = run_sofo(inst, split, cfg)
        # re-derive the planned trajectory from executed flows
        replayed = np.cumsum(ep.charge[0] - ep.discharge[0]) + inst.storages[0].e_initial
        assert np.allclose(ep.soc[0], replayed, atol=1e-9)


def _trained_setup(days=12, drift=None):
    spec = SyntheticSpec(
        days=days, n_buildings=1, drift=drift, noise_load=0.05, noise_solar=0.1,
        battery_hours=4.0, battery_c_rate=0.25, seed=11,
    )
    inst = generate_synthetic(spec)
    split = Split(train_end=7 * 24, val_end=9 * 24)
    cfg = ControllerConfig(
        seed=3, n_scenarios=8, forecaster="linear",
        train=TrainConfig(epochs=10, seed=0),
        finetune=TrainConfig(epochs=5, seed=0),
        scheme=UpdateScheme("selfadapt"), T_ft=48, finetune_cooldown=24,
    )
    return inst, split, cfg


class TestEpisodeEngine:
    def test_noft_leaves_models_identical(self):
        inst, split, cfg = _trained_setup()
        cfg = replace(cfg, scheme=UpdateScheme("noft"))
        ep = run_sofo(inst, split, cfg)
        assert ep.fine_tune_steps == []

    def test_bitwise_determinism(self):
        inst, split, cfg = _trained_setup()
        a = run_sofo(inst, split, cfg)
        b = run_sofo(inst, split, cfg)
        assert np.array_equal(a.charge, b.charge)
        assert np.array_equal(a.discharge, b.discharge)
        assert np.array_equal(a.consumption, b.consumption)
        assert np.array_equal(a.price_paid, b.price_paid)
        assert a.costs == b.costs
        for key in a.forecast_log:
            assert np.array_equal(a.forecast_log[key]["predicted"], b.forecast_log[key]["predicted"])

    def test_feasibility_of_every_executed_step(self):
        inst, split, cfg = _trained_setup()
        perturb = PerturbationConfig(efficiency_true={inst.storages[0].id: (0.9, 0.9)})
        ep = run_sofo(inst, split, cfg, perturb=perturb)
        s = inst.storages[0]
        assert np.all(ep.soc >= s.e_min - 1e-9)
        assert np.all(ep.soc <= s.e_max + 1e-9)
        both = (ep.charge > 0) & (ep.discharge > 0)
        assert not both.any()

    def test_forecast_log_covers_control_window(self):
        inst, split, cfg = _trained_setup()
        ep = run_sofo(inst, split, cfg)
        control_len = inst.n_steps - split.val_end
        assert ep.forecast_log["price"]["actual"].shape[0] == control_len
        assert ep.wmape_by_target["load"] >= 0.0

    def test_mpc_day_ahead_replans_daily(self):
        inst, split, cfg = _trained_setup()
        ep = run_mpc(inst, split, cfg)
        control_len = inst.n_steps - split.val_end
        assert len(ep.dispatch_seconds) == int(np.ceil(control_len / 24))

    def test_ampc_uses_selfadapt_and_rolls_hourly(self):
        inst, split, cfg = _trained_setup(days=14)
        ep = run_mpc(inst, split, cfg, adaptive=True)
        control_len = inst.n_steps - split.val_end
        assert len(ep.dispatch_seconds) == control_len
        assert ep.controller == "ampc"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(T_rl=0)
        with pytest.raises(ValueError):
            ControllerConfig(T_rl=48, horizon_T=24)
        with pytest.raises(ValueError):
            ControllerConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(forecaster="gbdt")


class TestDivergingFineTune:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_update_keeps_previous_model(self, caplog):
        inst = generate_synthetic(SyntheticSpec(
            days=6, n_buildings=1, noise_load=0.05, noise_solar=0.1,
            battery_hours=4.0, battery_c_rate=0.25, seed=11,
        ))
        split = Split(train_end=3 * 24, val_end=4 * 24)
        cfg = ControllerConfig(
            seed=3, n_scenarios=4, forecaster="recurrent", hidden_dim=4,
            train=TrainConfig(epochs=3, seed=0),
            finetune=TrainConfig(epochs=3, learning_rate=1e200, seed=0),  # overflows at once
            scheme=UpdateScheme("smalllr"), T_ft=24, finetune_cooldown=24, val_window=48,
        )
        provider = ModelProvider(inst, split, cfg)
        provider.pretrain()
        bundle = provider.bundle()
        with caplog.at_level(logging.WARNING, logger="vppdispatch"):
            ep = run_sofo(inst, split, cfg, pretrained=bundle)

        assert ep.steps == inst.n_steps - split.val_end
        assert ep.fine_tune_steps == [23, 47]
        # solar and load are recurrent and diverge; the linear price model refits
        assert ep.finetune_divergences == 4
        for key in ("solar", "load:0"):
            for name, value in bundle.models[key].net.params.items():
                assert np.array_equal(ep.models[key].net.params[name], value), (key, name)
        warned = [r for r in caplog.records if r.levelno == logging.WARNING and r.name.startswith("vppdispatch")]
        assert len(warned) == 4 and "diverged" in warned[0].getMessage()


class TestNoStorageBaseline:
    def test_zero_actions_and_raw_consumption(self):
        inst = _small_instance(days=4)
        ep = run_no_storage(inst, Split(0, 0), ORACLE_CFG)
        assert np.all(ep.charge == 0) and np.all(ep.discharge == 0)
        b = inst.buildings[0]
        assert np.allclose(ep.district, b.load - b.solar_capacity)
