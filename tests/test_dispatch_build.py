import numpy as np
import pytest

from vppdispatch.domain import (
    BuildingSeries,
    GenerationDevice,
    MarketSeries,
    ProblemInstance,
    StorageDevice,
    TimeGrid,
    validate_plan,
)
from vppdispatch.dispatch import (
    build_deterministic,
    build_stochastic,
    extract_plan,
    solve_lp,
)
from vppdispatch.dispatch.lp import LPSolution
from vppdispatch.scenario import Forecasts, ScenarioSet, Uncertainty, sample_scenarios
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic

from oracles import arbitrage_grid_search, expand_stochastic, reduce_program


def _instance(loads, solar=None, price=None, storage=None, gen_cap=100.0):
    T = len(loads)
    solar = solar if solar is not None else [0.0] * T
    price = price if price is not None else [1.0] * T
    gens = (GenerationDevice("pv", np.zeros(T), gen_cap),) if any(solar) else ()
    stores = (storage,) if storage is not None else ()
    return ProblemInstance(
        grid=TimeGrid(0, T),
        buildings=(BuildingSeries("b0", loads, solar),),
        generators=gens,
        storages=stores,
        market=MarketSeries(price, [0.5] * T),
    )


def _forecasts(instance):
    return Forecasts(
        solar=np.stack([b.solar_capacity for b in instance.buildings])
        if instance.generators
        else np.zeros((0, instance.n_steps)),
        load=np.stack([b.load for b in instance.buildings]),
        price=instance.market.price,
    )


class TestDeterministicBuild:
    def test_single_step_balance_forces_grid_residual(self):
        inst = _instance([10.0], solar=[4.0])
        lp = build_deterministic(inst, _forecasts(inst))
        s = solve_lp(lp)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(6.0, abs=1e-9)
        plan = extract_plan(s, lp)
        assert plan.p_grid[0] == pytest.approx(6.0, abs=1e-9)
        assert plan.p_gen[0, 0] == pytest.approx(4.0, abs=1e-9)

    def test_all_zero_instance(self):
        inst = _instance([0.0])
        s = solve_lp(build_deterministic(inst, _forecasts(inst)))
        assert s.status == "optimal"
        assert s.objective == pytest.approx(0.0, abs=1e-12)

    def test_two_step_arbitrage_matches_grid_search(self):
        storage = StorageDevice("s0", 0.0, 5.0, 5.0, 5.0, 0.0)
        inst = _instance([0.0, 5.0], price=[1.0, 10.0], storage=storage)
        lp = build_deterministic(inst, _forecasts(inst))
        s = solve_lp(lp)
        brute = arbitrage_grid_search((1.0, 10.0), (0.0, 5.0), e_max=5.0, p_max=5.0)
        assert brute == 5.0
        assert s.status == "optimal"
        assert abs(s.objective - brute) < 1e-9
        plan = extract_plan(s, lp)
        assert np.allclose(plan.soc[0], [5.0, 0.0], atol=1e-9)

    def test_horizon_mismatch_rejected(self):
        inst = _instance([1.0, 2.0])
        bad = Forecasts(solar=np.zeros((0, 3)), load=np.ones((1, 3)), price=np.ones(3))
        with pytest.raises(ValueError, match="length"):
            build_deterministic(inst, bad)


class TestStochasticBuild:
    def test_identical_scenarios_collapse_to_deterministic(self, two_building_instance):
        inst = two_building_instance.slice(0, 24)
        fc = _forecasts(inst)
        det = solve_lp(build_deterministic(inst, fc))
        scen = sample_scenarios(fc, Uncertainty.zero(), N=7, seed=0)
        sto = solve_lp(build_stochastic(inst, scen))
        assert det.status == sto.status == "optimal"
        assert sto.objective == pytest.approx(det.objective, abs=1e-7)

    def test_mean_price_objective(self):
        inst = _instance([10.0], price=[2.0])
        scen = ScenarioSet(
            solar=np.zeros((2, 0, 1)),
            load=np.full((2, 1, 1), 10.0),
            price=np.array([[1.0], [3.0]]),
            seed=0,
        )
        s = solve_lp(build_stochastic(inst, scen))
        assert s.status == "optimal"
        assert s.objective == pytest.approx(20.0, abs=1e-9)

    def test_generation_bound_is_scenario_minimum(self):
        inst = _instance([10.0], solar=[5.0])
        scen = ScenarioSet(
            solar=np.array([[[4.0]], [[2.0]]]),
            load=np.full((2, 1, 1), 10.0),
            price=np.full((2, 1), 1.0),
            seed=0,
        )
        lp = build_stochastic(inst, scen)
        s = solve_lp(lp)
        plan = extract_plan(s, lp)
        assert plan.p_gen[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_empty_scenario_set_rejected(self):
        inst = _instance([1.0])
        scen = ScenarioSet(
            solar=np.zeros((0, 0, 1)), load=np.zeros((0, 1, 1)), price=np.zeros((0, 1)), seed=0
        )
        with pytest.raises(ValueError):
            build_stochastic(inst, scen)

    def test_uniform_price_shift_keeps_dispatch(self, two_building_instance):
        inst = two_building_instance.slice(0, 24)
        fc = _forecasts(inst)
        unc = Uncertainty(
            solar=np.full(24, 0.2), load=np.full(24, 0.15), price=np.full(24, 0.01)
        )
        scen = sample_scenarios(fc, unc, N=10, seed=3)
        lp = build_stochastic(inst, scen)
        plan = extract_plan(solve_lp(lp), lp)
        shifted = ScenarioSet(
            solar=scen.solar, load=scen.load, price=scen.price + 5.0, seed=scen.seed
        )
        lp2 = build_stochastic(inst, shifted)
        plan2 = extract_plan(solve_lp(lp2), lp2)
        assert np.allclose(plan.p_charge, plan2.p_charge, atol=1e-6)
        assert np.allclose(plan.p_discharge, plan2.p_discharge, atol=1e-6)
        assert np.allclose(plan.p_gen, plan2.p_gen, atol=1e-6)


class TestCollapseAgainstExpansion:
    """The collapsed program against the N*T two-stage program written out.

    The expansion is reduced by a textbook presolve (singleton substitution
    plus merging identical rows) and solved with the same simplex, so the
    two solves walk the same pivot path and their plans agree bit for bit.
    """

    WINDOWS = (0, 19, 42, 67)
    COUNTS = (1, 10, 75, 300)

    @pytest.fixture(scope="class")
    def district(self):
        return generate_synthetic(SyntheticSpec(
            days=4, n_buildings=2, noise_price=0.05, pv_scale=1.8,
            battery_hours=4.0, battery_c_rate=0.15, seed=21,
        ))

    def _scenarios(self, inst, N, seed):
        unc = Uncertainty(solar=np.full(24, 0.2), load=np.full(24, 0.15), price=np.full(24, 0.02))
        return sample_scenarios(_forecasts(inst), unc, N=N, seed=seed)

    def test_plans_and_objectives_match(self, district):
        for start in self.WINDOWS:
            inst = district.slice(start, 24)
            for N in self.COUNTS:
                scen = self._scenarios(inst, N, seed=start + N)
                collapse = build_stochastic(inst, scen)
                expansion = expand_stochastic(inst, scen)
                reduced, recover = reduce_program(expansion)
                # the same reduction of both programs leaves the same program
                collapse_reduced, _ = reduce_program(collapse)
                for part in ("c", "a_rows", "a_cols", "a_vals", "row_lo", "row_up", "col_lo", "col_up"):
                    assert np.array_equal(getattr(collapse_reduced, part), getattr(reduced, part)), (start, N, part)
                sol = solve_lp(collapse)
                ref = solve_lp(reduced)
                assert sol.status == ref.status == "optimal", (start, N)
                x_exp = recover(ref.x)

                # the expansion's solution in the collapse's column layout
                position = {nm: j for j, nm in enumerate(expansion.col_names)}
                shared = [j for j, nm in enumerate(collapse.col_names) if nm.quantity != "grid"]
                x_map = np.zeros(collapse.n_cols)
                x_map[shared] = x_exp[[position[collapse.col_names[j]] for j in shared]]
                plan = extract_plan(sol, collapse)
                ref_plan = extract_plan(LPSolution("optimal", x_map, np.nan, 0), collapse)
                for field in ("p_charge", "p_discharge", "soc", "p_gen"):
                    assert np.array_equal(getattr(plan, field), getattr(ref_plan, field)), (start, N, field)
                draws = x_exp[expansion.meta["grid"]]
                assert np.allclose(plan.p_grid, draws.mean(axis=0), rtol=0, atol=1e-9), (start, N)

                expected = float(expansion.c @ x_exp)
                got = sol.objective + collapse.meta["objective_offset"]
                assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), (start, N, got, expected)

    def test_size_is_independent_of_scenario_count(self, district):
        def size(lp):
            return lp.n_rows, lp.n_cols, lp.a_vals.size

        for start in self.WINDOWS:
            inst = district.slice(start, 24)
            one = size(build_stochastic(inst, self._scenarios(inst, 1, seed=start)))
            wide = size(build_stochastic(inst, self._scenarios(inst, 300, seed=start)))
            assert one == wide == size(build_deterministic(inst, _forecasts(inst)))


class TestExtractPlan:
    def test_net_repair_rule(self):
        # craft a solution with simultaneous flows by editing the primal
        storage = StorageDevice("s0", 0.0, 5.0, 5.0, 5.0, 0.0)
        inst = _instance([2.0, 2.0], price=[1.0, 1.0], storage=storage)
        lp = build_deterministic(inst, _forecasts(inst))
        s = solve_lp(lp)
        idx = lp.column_index()
        x = s.x.copy()
        x[idx["charge.s0.t0"]] = 3.0
        x[idx["discharge.s0.t0"]] = 1.0
        x[idx["grid.t0"]] += 2.0  # keep the balance consistent
        from vppdispatch.dispatch.lp import LPSolution

        doctored = LPSolution("optimal", x, float(lp.c @ x), s.iterations)
        plan = extract_plan(doctored, lp)
        assert plan.p_charge[0, 0] == pytest.approx(2.0)
        assert plan.p_discharge[0, 0] == 0.0
        assert plan.soc[0, 0] == pytest.approx(2.0)

    def test_repair_is_identity_on_complementary_solutions(self):
        storage = StorageDevice("s0", 0.0, 5.0, 5.0, 5.0, 0.0)
        inst = _instance([0.0, 5.0], price=[1.0, 10.0], storage=storage)
        lp = build_deterministic(inst, _forecasts(inst))
        s = solve_lp(lp)
        plan = extract_plan(s, lp)
        idx = lp.column_index()
        assert plan.p_charge[0, 0] == pytest.approx(s.x[idx["charge.s0.t0"]])
        assert plan.p_discharge[0, 1] == pytest.approx(s.x[idx["discharge.s0.t1"]])

    def test_non_optimal_solution_rejected(self):
        inst = _instance([1.0])
        lp = build_deterministic(inst, _forecasts(inst))
        from vppdispatch.dispatch.lp import LPSolution

        with pytest.raises(ValueError, match="infeasible"):
            extract_plan(LPSolution("infeasible", np.zeros(lp.n_cols), np.nan, 0), lp)

    def test_extracted_plans_validate_exactly(self, two_building_instance):
        inst = two_building_instance.slice(0, 24)
        fc = _forecasts(inst)
        unc = Uncertainty(solar=np.full(24, 0.3), load=np.full(24, 0.2), price=np.full(24, 0.01))
        scen = sample_scenarios(fc, unc, N=15, seed=9)
        lp = build_stochastic(inst, scen)
        plan = extract_plan(solve_lp(lp), lp)
        caps = scen.solar.min(axis=0)
        assert validate_plan(plan, inst, gen_caps=caps) == []
        both = (plan.p_charge > 0) & (plan.p_discharge > 0)
        assert not both.any()
