import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vppdispatch.domain import StorageDevice
from vppdispatch.simulator import (
    ComplementarityError,
    PerturbationConfig,
    SimState,
    Simulator,
    step_battery,
    step_environment,
)

NO_PERTURB = PerturbationConfig()


def _device(e_max=10.0, p=5.0, eta_c=1.0, eta_d=1.0, e_initial=0.0):
    return StorageDevice("s", 0.0, e_max, p, p, e_initial, eta_c, eta_d)


class TestStepBattery:
    def test_unit_efficiency_charge(self):
        soc, ac, ad = step_battery(5.0, 2.0, 0.0, _device(), NO_PERTURB)
        assert (soc, ac, ad) == (7.0, 2.0, 0.0)

    def test_charge_efficiency_scales_stored_energy(self):
        soc, ac, ad = step_battery(5.0, 2.0, 0.0, _device(eta_c=0.9), NO_PERTURB)
        assert soc == pytest.approx(6.8)
        assert (ac, ad) == (2.0, 0.0)

    def test_charge_clipped_to_headroom(self):
        soc, ac, ad = step_battery(9.5, 2.0, 0.0, _device(), NO_PERTURB)
        assert (soc, ac, ad) == (10.0, 0.5, 0.0)

    def test_discharge_clipped_to_available_energy(self):
        soc, ac, ad = step_battery(1.0, 0.0, 5.0, _device(), NO_PERTURB)
        assert (soc, ac, ad) == (0.0, 0.0, 1.0)

    def test_simultaneous_actions_rejected(self):
        with pytest.raises(ComplementarityError):
            step_battery(5.0, 1.0, 1.0, _device(), NO_PERTURB)

    def test_negative_action_rejected(self):
        with pytest.raises(ValueError):
            step_battery(5.0, -1.0, 0.0, _device(), NO_PERTURB)

    def test_perturbation_overrides_device_efficiency(self):
        perturb = PerturbationConfig(efficiency_true={"s": (0.5, 1.0)})
        soc, _, _ = step_battery(0.0, 2.0, 0.0, _device(), perturb)
        assert soc == pytest.approx(1.0)

    def test_capacity_scale_shrinks_headroom(self):
        perturb = PerturbationConfig(capacity_scale=0.5)
        soc, ac, _ = step_battery(4.0, 5.0, 0.0, _device(e_max=10.0), perturb)
        assert soc == pytest.approx(5.0)
        assert ac == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        actions=st.lists(
            st.tuples(st.floats(0, 8), st.floats(0, 8), st.booleans()), min_size=1, max_size=40
        ),
        eta_c=st.floats(0.5, 1.0),
        eta_d=st.floats(0.5, 1.0),
    )
    def test_soc_stays_in_bounds_for_any_action_sequence(self, actions, eta_c, eta_d):
        dev = _device(eta_c=eta_c, eta_d=eta_d, e_initial=3.0)
        soc = dev.e_initial
        for charge, discharge, pick_charge in actions:
            if pick_charge:
                soc, _, _ = step_battery(soc, charge, 0.0, dev, NO_PERTURB)
            else:
                soc, _, _ = step_battery(soc, 0.0, discharge, dev, NO_PERTURB)
            assert dev.e_min - 1e-12 <= soc <= dev.e_max + 1e-12

    def test_reversible_at_unit_efficiency(self):
        dev = _device(e_initial=3.0)
        soc, ac, _ = step_battery(3.0, 2.0, 0.0, dev, NO_PERTURB)
        soc2, _, ad = step_battery(soc, 0.0, 2.0, dev, NO_PERTURB)
        assert soc2 == pytest.approx(3.0)
        assert ad == pytest.approx(2.0)

    def test_round_trip_loss_below_unit_efficiency(self):
        dev = _device(eta_c=0.9, eta_d=0.8, e_initial=0.0)
        soc, _, _ = step_battery(0.0, 2.0, 0.0, dev, NO_PERTURB)
        _, _, recovered = step_battery(soc, 0.0, 10.0, dev, NO_PERTURB)
        assert recovered == pytest.approx(0.9 * 0.8 * 2.0)


class TestStepEnvironment:
    def test_consumption_formula(self, two_building_instance):
        state = SimState(t=0, soc=np.array([2.0, 0.0]))
        _, consumption, district = step_environment(
            state, np.zeros((2, 2)), two_building_instance, NO_PERTURB
        )
        b = two_building_instance.buildings
        assert consumption[0] == pytest.approx(b[0].load[0] - b[0].solar_capacity[0])
        assert district == pytest.approx(consumption.sum())
        assert state.t == 1

    def test_discharge_reduces_consumption(self, two_building_instance):
        state = SimState(t=0, soc=np.array([2.0, 0.0]))
        actions = np.array([[0.0, 1.0], [0.0, 0.0]])
        _, consumption, _ = step_environment(state, actions, two_building_instance, NO_PERTURB)
        base = two_building_instance.buildings[0]
        assert consumption[0] == pytest.approx(base.load[0] - base.solar_capacity[0] - 1.0)

    def test_step_beyond_horizon_raises(self, two_building_instance):
        state = SimState(t=48, soc=np.array([0.0, 0.0]))
        with pytest.raises(IndexError):
            step_environment(state, np.zeros((2, 2)), two_building_instance, NO_PERTURB)


class TestSimulator:
    def test_trajectory_is_deterministic(self, two_building_instance):
        def run():
            sim = Simulator(two_building_instance)
            rng = np.random.default_rng(0)
            while not sim.done:
                actions = np.abs(rng.normal(size=(2, 2)))
                actions[:, 1] = 0.0
                sim.step(actions)
            return sim.consumption_matrix()

        assert np.array_equal(run(), run())
