"""Each output check passes on genuine output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q

A short perfect-foresight episode (48 control steps, 12-step horizon) on a
small district whose batteries are less efficient than the planner assumes
supplies the genuine output.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from tracing import Recorder  # noqa: E402
from vppdispatch.controller import ControllerConfig, Split, run_episode  # noqa: E402
from vppdispatch.forecast import UpdateScheme  # noqa: E402
from vppdispatch.simulator import PerturbationConfig  # noqa: E402
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic  # noqa: E402

SPLIT = Split(train_end=0, val_end=24)
PERTURB = PerturbationConfig(efficiency_true={"bat_b0": (0.90, 0.95), "bat_b1": (0.92, 0.92)})


@pytest.fixture(scope="module")
def run():
    instance = generate_synthetic(SyntheticSpec(days=3, n_buildings=2, seed=5))
    config = ControllerConfig(
        horizon_T=12, T_rl=1, forecaster="oracle", use_scenarios=False, scheme=UpdateScheme("noft"),
    )
    recorder = Recorder(traced=False)
    with recorder.installed():
        recorder.begin_episode()
        ep = run_episode(instance, SPLIT, config, "clairvoyant", PERTURB)
    window = instance.slice(SPLIT.val_end, instance.n_steps - SPLIT.val_end)
    return window, ep, recorder.programs


def _trajectory_errors(window, ep, perturb=PERTURB, **override):
    arrays = {k: getattr(ep, k).copy() for k in ("charge", "discharge", "soc", "consumption")}
    arrays.update(override)
    return checks.check_trajectory(window, perturb, **arrays)


def test_genuine_output_passes(run):
    window, ep, programs = run
    assert ep.lp_fallbacks == 0 and programs
    assert np.any(ep.charge > 0) and np.any(ep.discharge > 0)  # the batteries do work
    assert _trajectory_errors(window, ep) == []
    assert checks.check_costs(window, ep.consumption, ep.costs) == []
    for p in programs:
        assert checks.check_program(p) == []
    optimum = checks.perfect_information_optimum(window, PERTURB)
    assert checks.check_price_bound(ep.costs.price, optimum) == []


def test_program_check_rejects_a_plan_off_its_rows(run):
    p = run[2][1]
    x = p.x.copy()
    x[np.argmax(p.col_up - p.col_lo < np.inf)] += 0.5  # move one bounded column
    errors = checks.check_program(dataclasses.replace(p, x=x))
    assert any("rows violated" in e for e in errors)


def test_program_check_rejects_a_plan_out_of_bounds(run):
    p = run[2][1]
    j = int(np.flatnonzero(np.isfinite(p.col_up))[0])
    x = p.x.copy()
    x[j] = p.col_up[j] + 1.0
    errors = checks.check_program(dataclasses.replace(p, x=x))
    assert any("column bounds violated" in e for e in errors)


def test_program_check_rejects_a_wrong_objective(run):
    p = run[2][1]
    errors = checks.check_program(dataclasses.replace(p, objective=p.objective * 1.01 + 1e-3))
    assert any("vs HiGHS" in e for e in errors)


def test_program_check_rejects_a_suboptimal_plan(run):
    # the first re-plan starts from an empty battery; leaving the batteries
    # idle, curtailing all solar and buying the whole load is feasible but
    # costs more than the optimum
    p = run[2][0]
    grid = np.flatnonzero(p.c > 0)
    x = np.clip(0.0, p.col_lo, p.col_up)
    balance = np.unique(p.a_rows[np.isin(p.a_cols, grid)])
    x[grid] = p.row_lo[balance]
    errors = checks.check_program(dataclasses.replace(p, x=x, objective=float(p.c @ x)))
    assert not any("violated" in e for e in errors)
    assert any("vs HiGHS" in e for e in errors)


def test_trajectory_check_rejects_soc_drift(run):
    window, ep, _ = run
    soc = ep.soc.copy()
    soc[0, 10] += 0.01
    assert any("SOC" in e and "recursion" in e for e in _trajectory_errors(window, ep, soc=soc))


def test_trajectory_check_uses_the_true_efficiencies(run):
    window, ep, _ = run
    assert any("recursion" in e for e in _trajectory_errors(window, ep, perturb=PerturbationConfig()))


def test_trajectory_check_rejects_simultaneous_flows(run):
    window, ep, _ = run
    t = int(np.argmax(ep.charge[0] > 0))
    discharge = ep.discharge.copy()
    discharge[0, t] = 0.1
    assert any("together" in e for e in _trajectory_errors(window, ep, discharge=discharge))


def test_trajectory_check_rejects_soc_out_of_bounds(run):
    window, ep, _ = run
    s = window.storages[1]
    charge = ep.charge.copy()
    charge[1, :] = s.p_charge_max  # the SOC recursion then overruns e_max
    soc = ep.soc.copy()
    level, eta_c = s.e_initial, PERTURB.efficiency_true[s.id][0]
    for t in range(soc.shape[1]):
        level += eta_c * charge[1, t] - ep.discharge[1, t] / PERTURB.efficiency_true[s.id][1]
        soc[1, t] = level
    errors = _trajectory_errors(window, ep, charge=charge, soc=soc)
    assert any("SOC outside" in e for e in errors)


def test_trajectory_check_rejects_wrong_consumption(run):
    window, ep, _ = run
    consumption = ep.consumption.copy()
    consumption[1, 5] += 0.1
    assert any("consumption" in e for e in _trajectory_errors(window, ep, consumption=consumption))


@pytest.mark.parametrize("component", ["emission", "price", "grid"])
def test_cost_check_rejects_a_wrong_cost(run, component):
    window, ep, _ = run
    costs = dataclasses.replace(ep.costs, **{component: getattr(ep.costs, component) * (1 + 1e-6)})
    assert any(component in e for e in checks.check_costs(window, ep.consumption, costs))


def test_price_bound_rejects_a_cost_below_the_optimum(run):
    window, ep, _ = run
    optimum = checks.perfect_information_optimum(window, PERTURB)
    assert optimum > 0
    assert checks.check_price_bound(optimum * 0.99, optimum) != []
    assert checks.check_price_bound(optimum, optimum) == []
