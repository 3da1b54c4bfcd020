import logging
import os
import subprocess
import sys
from pathlib import Path

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
from vppdispatch import controller
from vppdispatch.dispatch import Basis, LPSolution, build_deterministic, extract_plan, shift_basis, solve_lp
from vppdispatch.dispatch.lp import BASIC
from vppdispatch.dispatch.simplex import SolveOptions
from vppdispatch.forecast import TrainConfig, UpdateScheme
from vppdispatch.scenario import Forecasts
from vppdispatch.simulator import PerturbationConfig
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic

from oracles import inverting_shift_logicals


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


class TestLPFallback:
    def test_non_optimal_solve_is_counted_and_logged(self, caplog, monkeypatch):
        inst = _small_instance(days=3)
        cfg = replace(ORACLE_CFG, horizon_T=24, T_rl=24)
        calls = []

        def second_solve_hits_limit(lp, options=None):
            calls.append(lp)
            if len(calls) == 2:
                return LPSolution("iteration_limit", np.zeros(lp.n_cols), 0.0, 17)
            return solve_lp(lp, options)

        monkeypatch.setattr(controller, "solve_lp", second_solve_hits_limit)
        with caplog.at_level(logging.DEBUG, logger="vppdispatch.controller"):
            ep = run_sofo(inst, Split(0, 0), cfg)

        assert len(calls) == 3 and ep.lp_fallbacks == 1
        assert np.all(ep.charge[:, 24:48] == 0) and np.all(ep.discharge[:, 24:48] == 0)
        logged = [r for r in caplog.records if r.name == "vppdispatch.controller"]
        assert [r.levelno for r in logged] == [logging.DEBUG]
        message = logged[0].getMessage()
        assert "step 24" in message and "iteration_limit" in message and "17 iterations" in message

    def test_replan_after_fallback_starts_cold(self, monkeypatch):
        inst = _small_instance(days=2)
        cfg = replace(ORACLE_CFG, horizon_T=12, T_rl=1)
        starts = []

        def second_solve_hits_limit(lp, options=None):
            starts.append(options.basis)
            if len(starts) == 2:
                return LPSolution("iteration_limit", np.zeros(lp.n_cols), 0.0, 17)
            return solve_lp(lp, options)

        monkeypatch.setattr(controller, "solve_lp", second_solve_hits_limit)
        ep = run_sofo(inst, Split(0, 0), cfg)
        assert ep.lp_fallbacks == 1 and len(starts) == 48
        assert starts[0] is None and starts[1] is not None
        assert starts[2] is None  # the fallback left no basis to shift
        assert all(start is not None for start in starts[3:])
        assert (ep.warm_starts, ep.cold_starts) == (45, 3)


class TestWarmStartedEpisodes:
    """Every re-plan warm-started from the previous plan's shifted basis
    against the same program solved cold, on small versions of the three
    benchmark workloads, and whole episodes against episodes that always
    start cold."""

    @staticmethod
    def _workloads():
        district = dict(n_buildings=2, noise_load=0.08, noise_solar=0.15, pv_scale=2.0, battery_hours=5.0)
        quick = dict(
            forecaster="linear", n_scenarios=50, lag_K=24, val_window=48, T_ft=999, finetune_cooldown=999,
            scheme=UpdateScheme("noft"),
        )
        return {
            "clairvoyant_rolling": (
                generate_synthetic(SyntheticSpec(days=4, battery_c_rate=0.2, seed=4, **district)),
                Split(0, 24),
                ControllerConfig(horizon_T=48, forecaster="oracle", use_scenarios=False, scheme=UpdateScheme("noft")),
                None,
            ),
            "sofo_wide": (
                generate_synthetic(SyntheticSpec(days=10, battery_c_rate=0.15, seed=21, **district)),
                Split(7 * 24, 8 * 24),
                ControllerConfig(**{**quick, "n_scenarios": 300}),
                None,
            ),
            "sofo_drift": (
                generate_synthetic(SyntheticSpec(days=10, battery_c_rate=0.3, seed=42, **district)),
                Split(7 * 24, 8 * 24),
                ControllerConfig(**quick),
                PerturbationConfig(efficiency_true={"bat_b0": (0.93, 0.93), "bat_b1": (0.93, 0.93)}),
            ),
        }

    @pytest.mark.parametrize("name", ["clairvoyant_rolling", "sofo_wide", "sofo_drift"])
    def test_warm_replans_match_cold_ones(self, name, monkeypatch):
        inst, split, cfg, perturb = self._workloads()[name]
        compared = []

        def solve_both(lp, options=None):
            got = solve_lp(lp, options)
            if options.basis is not None:
                cold = solve_lp(lp)
                assert got.status == cold.status == "optimal"
                assert abs(got.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
                plan, cold_plan = extract_plan(got, lp), extract_plan(cold, lp)
                for field in ("p_grid", "p_gen", "p_charge", "p_discharge", "soc"):
                    assert np.allclose(getattr(plan, field), getattr(cold_plan, field), rtol=0, atol=1e-9)
                compared.append(got.warm_start)
            return got

        with monkeypatch.context() as patched:
            patched.setattr(controller, "solve_lp", solve_both)
            warm = controller.run_episode(inst, split, cfg, name, perturb)
        with monkeypatch.context() as patched:
            patched.setattr(controller, "shift_basis", lambda *args: None)
            cold = controller.run_episode(inst, split, cfg, name, perturb)

        overlapping = len(warm.dispatch_seconds) - 1
        assert len(compared) == overlapping
        assert warm.warm_starts == compared.count("accepted") >= 0.95 * overlapping
        assert warm.warm_starts + warm.cold_starts == len(warm.dispatch_seconds)
        assert (cold.warm_starts, cold.cold_starts) == (0, len(cold.dispatch_seconds))
        for field in ("charge", "discharge", "soc", "consumption"):
            assert np.allclose(getattr(warm, field), getattr(cold, field), rtol=0, atol=1e-9), field
        for cost in ("emission", "price", "grid"):
            a, b = getattr(warm.costs, cost), getattr(cold.costs, cost)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), cost

    @pytest.mark.parametrize("name", ["clairvoyant_rolling", "sofo_wide", "sofo_drift"])
    def test_carried_inverses_match_inv(self, name, monkeypatch):
        """Every start basis that carries an inverse carries ``np.linalg.inv``
        of its basis matrix to 1e-10, and every warm start carries one that
        the solver takes, the crossing case included; the episode counts the
        warm starts that inverted their basis and sums the pivots of each
        phase."""
        inst, split, cfg, perturb = self._workloads()[name]
        solutions = []

        def check_inverse(lp, options=None):
            start = options.basis
            if start is not None and start.inverse is not None:
                B = np.concatenate([lp.dense()[:, start.cols == BASIC], -np.eye(lp.n_rows)[:, start.rows == BASIC]], axis=1)
                assert np.abs(start.inverse - np.linalg.inv(B)).max() <= 1e-10
            solutions.append(solve_lp(lp, options))
            return solutions[-1]

        monkeypatch.setattr(controller, "solve_lp", check_inverse)
        ep = controller.run_episode(inst, split, cfg, name, perturb)
        accepted = [s for s in solutions if s.warm_start == "accepted"]
        carried = sum(s.start_inverse == "carried" for s in accepted)
        assert ep.warm_starts == len(accepted) and ep.inverse_refusals == len(accepted) - carried
        assert ep.inverse_refusals == 0
        assert ep.phase_pivots == tuple(int(sum(p)) for p in zip(*(s.phase_iterations for s in solutions)))
        assert ep.phase_pivots[1] > 0 and ep.phase_pivots[2] > 0

    @pytest.mark.parametrize("name", ["clairvoyant_rolling", "sofo_wide", "sofo_drift"])
    def test_crossing_logicals_are_the_inverting_ones(self, name, monkeypatch):
        """Where a basic SOC column of the shifted-out step crosses into a
        kept row, ``shift_basis`` lets in the logicals that inverting each
        candidate start basis whole picks (``tests/oracles.py``).  On each
        workload some re-plan finds its first combination singular and takes
        a later one.  Shifted without its inverse, such a basis takes the
        first combination, and the solver sets it aside."""
        inst, split, cfg, perturb = self._workloads()[name]
        taken = []

        def checked(basis, source, target, k):
            start = shift_basis(basis, source, target, k)
            expected = inverting_shift_logicals(basis, source, target, k)
            if expected is not None:
                rows, pick = expected
                assert np.array_equal(start.rows, rows)
                taken.append(pick)
                if pick > 0:
                    bare = shift_basis(Basis(basis.cols, basis.rows), source, target, k)
                    assert solve_lp(target, SolveOptions(basis=bare)).warm_start == "singular"
            return start

        monkeypatch.setattr(controller, "shift_basis", checked)
        controller.run_episode(inst, split, cfg, name, perturb)
        assert max(taken, default=0) > 0

    def test_refused_inverse_is_counted_and_logged(self, caplog, monkeypatch):
        inst = _small_instance(days=2)
        cfg = replace(ORACLE_CFG, horizon_T=6, T_rl=1)

        def without_inverse(*args):
            basis = shift_basis(*args)
            return None if basis is None else Basis(basis.cols, basis.rows)

        monkeypatch.setattr(controller, "shift_basis", without_inverse)
        with caplog.at_level(logging.DEBUG, logger="vppdispatch.controller"):
            ep = run_sofo(inst, Split(0, 0), cfg)
        assert (ep.warm_starts, ep.inverse_refusals) == (47, 47)
        logged = [r for r in caplog.records if r.name == "vppdispatch.controller"]
        assert len(logged) == 47 and all(r.levelno == logging.DEBUG for r in logged)
        assert logged[0].getMessage() == "re-plan at step 1 inverts its warm basis: none carried"

    def test_day_ahead_replans_start_cold(self, monkeypatch):
        inst = _small_instance(days=3)
        starts = []

        def record(lp, options=None):
            starts.append(options.basis)
            return solve_lp(lp, options)

        monkeypatch.setattr(controller, "solve_lp", record)
        ep = run_mpc(inst, Split(0, 0), ORACLE_CFG)
        assert len(starts) == 3 and all(start is None for start in starts)
        assert (ep.warm_starts, ep.cold_starts) == (0, 3)

    def test_rejected_basis_is_logged(self, caplog, monkeypatch):
        inst = _small_instance(days=2)
        cfg = replace(ORACLE_CFG, horizon_T=6, T_rl=1)
        wrong = Basis(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
        monkeypatch.setattr(controller, "shift_basis", lambda *args: wrong)
        with caplog.at_level(logging.DEBUG, logger="vppdispatch.controller"):
            ep = run_sofo(inst, Split(0, 0), cfg)
        assert (ep.warm_starts, ep.cold_starts) == (0, 48)
        logged = [r for r in caplog.records if r.name == "vppdispatch.controller"]
        assert len(logged) == 47 and all(r.levelno == logging.DEBUG for r in logged)
        assert logged[0].getMessage() == "re-plan at step 1 starts cold: warm basis wrong size"


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


class TestSigmaEstimation:
    def test_series_without_two_windows_is_skipped_and_logged(self, caplog):
        inst, _, cfg = _trained_setup()
        split = Split(train_end=7 * 24, val_end=8 * 24)  # one 24-step validation window
        provider = ModelProvider(inst, split, cfg)
        with caplog.at_level(logging.DEBUG, logger="vppdispatch.controller"):
            provider.pretrain()
        skipped = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(skipped) == len(provider.specs)
        assert all(": 1 validation windows in [168, 192)" in m for m in skipped)
        assert {m.split()[2] for m in skipped} == set(provider.specs)
        for key in provider.specs:
            assert np.array_equal(provider.sigma[key].sigma, np.zeros(cfg.horizon_T))
            assert provider.val_wmape[key] == 0.0
        assert provider.sigma_skips == len(provider.specs)

    @pytest.mark.parametrize("forecaster", ["linear", "recurrent"])
    def test_episode_counts_skipped_series(self, forecaster):
        inst, _, cfg = _trained_setup()
        split = Split(train_end=7 * 24, val_end=8 * 24)  # one 24-step validation window
        cfg = replace(cfg, forecaster=forecaster, hidden_dim=4, train=TrainConfig(epochs=3, seed=0))
        series = 3  # price, solar, load:0
        ep = run_sofo(inst, split, replace(cfg, scheme=UpdateScheme("noft")))
        assert ep.fine_tune_steps == [] and ep.sigma_skips == series
        ep = run_sofo(inst, split, cfg)  # fine-tunes validate over 72 steps
        assert len(ep.fine_tune_steps) > 0 and ep.sigma_skips == series
        ep = run_sofo(inst, split, replace(cfg, val_window=24))  # and now over one window
        assert ep.sigma_skips == series * (1 + len(ep.fine_tune_steps))
        assert run_sofo(inst, Split(7 * 24, 9 * 24), cfg).sigma_skips == 0


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

    def test_exploding_but_finite_update_keeps_previous_model(self, caplog):
        # one GRU (a district without PV), fine-tuned once at a learning rate
        # that blows its weights up to ~1e91 while the loss stays finite
        inst = generate_synthetic(SyntheticSpec(
            days=6, n_buildings=1, noise_load=0.05, noise_solar=0.1,
            battery_hours=4.0, battery_c_rate=0.25, seed=11,
        ))
        inst = replace(inst, generators=())
        split = Split(train_end=inst.n_steps - 64, val_end=inst.n_steps - 40)
        cfg = ControllerConfig(
            seed=3, n_scenarios=4, forecaster="recurrent", hidden_dim=4,
            train=TrainConfig(epochs=3, seed=0),
            finetune=TrainConfig(epochs=3, learning_rate=1e12, seed=0),
            scheme=UpdateScheme("smalllr"), T_ft=24, finetune_cooldown=24, val_window=48,
        )
        provider = ModelProvider(inst, split, cfg)
        provider.pretrain()
        bundle = provider.bundle()
        with caplog.at_level(logging.WARNING, logger="vppdispatch"):
            ep = run_sofo(inst, split, cfg, pretrained=bundle)

        assert ep.steps == 40 and ep.fine_tune_steps == [23]
        assert ep.finetune_divergences == 1
        for name, value in bundle.models["load:0"].net.params.items():
            assert np.array_equal(ep.models["load:0"].net.params[name], value), name
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warned) == 1 and "load:0" in warned[0] and "rose" in warned[0]
        assert ep.wmape_by_target["load"] < 1.0


class TestNoStorageBaseline:
    def test_zero_actions_and_raw_consumption(self):
        inst = _small_instance(days=4)
        ep = run_no_storage(inst, Split(0, 0), ORACLE_CFG)
        assert np.all(ep.charge == 0) and np.all(ep.discharge == 0)
        b = inst.buildings[0]
        assert np.allclose(ep.district, b.load - b.solar_capacity)


def test_controller_import_leaves_scipy_out():
    """Importing the controller loads no SciPy: the set-up of a run is
    mostly imports, and SciPy alone would add a large share of them."""
    probe = "import sys, vppdispatch.controller; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(controller.__file__).resolve().parents[1])  # this package's, whatever the path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
