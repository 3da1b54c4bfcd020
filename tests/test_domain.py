import numpy as np
import pytest

from vppdispatch.domain import (
    DispatchPlan,
    MarketSeries,
    ProblemInstance,
    StorageDevice,
    TimeGrid,
    validate_instance,
    validate_plan,
)


def test_well_formed_instance_has_no_violations(two_building_instance):
    assert validate_instance(two_building_instance) == []


def test_overfull_initial_soc_is_flagged(two_building_instance):
    bad = StorageDevice("bat_bad", 0.0, 4.0, 1.0, 1.0, e_initial=5.0)
    inst = ProblemInstance(
        two_building_instance.grid,
        two_building_instance.buildings,
        two_building_instance.generators,
        (bad,),
        two_building_instance.market,
    )
    violations = validate_instance(inst)
    assert len(violations) == 1
    assert "bat_bad" in violations[0]


def test_short_price_series_is_flagged(two_building_instance):
    inst = ProblemInstance(
        two_building_instance.grid,
        two_building_instance.buildings,
        two_building_instance.generators,
        two_building_instance.storages,
        MarketSeries(np.ones(47), np.ones(48) * 0.4),
    )
    violations = validate_instance(inst)
    assert any("market.price" in v and "length" in v for v in violations)


def test_calendar_labels_follow_modulo_arithmetic():
    grid = TimeGrid(start_index=30, horizon_T=100)
    assert grid.hour_of_day[0] == 6
    assert np.all(grid.hour_of_day == (np.arange(30, 130) % 24))
    assert np.all(grid.month_index == np.arange(30, 130) // 720)


def test_time_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        TimeGrid(0, 0)
    with pytest.raises(ValueError):
        TimeGrid(0, 5, step_hours=0.0)


def test_slice_preserves_devices(two_building_instance):
    sliced = two_building_instance.slice(10, 20)
    assert sliced.n_steps == 20
    assert sliced.grid.start_index == 10
    assert sliced.storages == two_building_instance.storages
    assert np.array_equal(sliced.buildings[0].load, two_building_instance.buildings[0].load[10:30])


def _plan_for(instance, charge, discharge):
    T = instance.n_steps
    S = len(instance.storages)
    soc = np.zeros((S, T))
    for i, s in enumerate(instance.storages):
        level = s.e_initial
        for t in range(T):
            level += charge[i, t] - discharge[i, t]
            soc[i, t] = level
    return DispatchPlan(
        p_grid=np.ones(T),
        p_gen=np.zeros((len(instance.generators), T)),
        p_charge=charge,
        p_discharge=discharge,
        soc=soc,
    )


def test_validate_plan_accepts_feasible_plan(two_building_instance):
    T = two_building_instance.n_steps
    charge = np.zeros((2, T))
    discharge = np.zeros((2, T))
    charge[0, 0] = 1.0
    discharge[0, 5] = 0.5
    plan = _plan_for(two_building_instance, charge, discharge)
    assert validate_plan(plan, two_building_instance) == []


def test_validate_plan_rejects_simultaneous_flows(two_building_instance):
    T = two_building_instance.n_steps
    charge = np.zeros((2, T))
    discharge = np.zeros((2, T))
    charge[0, 3] = 0.5
    discharge[0, 3] = 0.5
    plan = _plan_for(two_building_instance, charge, discharge)
    assert any("simultaneous" in v for v in validate_plan(plan, two_building_instance))


def test_validate_plan_rejects_soc_excursion(two_building_instance):
    T = two_building_instance.n_steps
    charge = np.zeros((2, T))
    discharge = np.zeros((2, T))
    charge[0, :10] = 1.5  # 2.0 initial + 15 kWh charged > 5 kWh cap
    plan = _plan_for(two_building_instance, charge, discharge)
    assert any("state-of-charge" in v for v in validate_plan(plan, two_building_instance))
