from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vppdispatch.controller import ControllerConfig, Split, run_sofo
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
    shift_basis,
    solve_lp,
    write_mps,
)
from vppdispatch.dispatch import build as build_module
from vppdispatch.dispatch.lp import BASIC, LPSolution
from vppdispatch.forecast import UpdateScheme
from vppdispatch.scenario import Forecasts, ScenarioSet, Uncertainty, sample_scenarios
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic

from oracles import arbitrage_grid_search, expand_stochastic, loop_build_deterministic, loop_soc, reduce_program


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


def _device_window(S, G, start, T):
    """A window of T steps from absolute step ``start`` with S storages and
    G generators, and its realized series as the forecasts."""
    inst = ProblemInstance(
        grid=TimeGrid(start, T),
        buildings=tuple(BuildingSeries(f"b{u}", np.ones(T), np.full(T, 0.5)) for u in range(max(S, G, 1))),
        generators=tuple(GenerationDevice(f"pv{g}", np.zeros(T), 1.0) for g in range(G)),
        storages=tuple(StorageDevice(f"bat{s}", 0.0, 4.0, 1.0, 1.0, 1.0) for s in range(S)),
        market=MarketSeries(np.ones(T), np.ones(T)),
    )
    return inst, _forecasts(inst)


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

    def test_tiebreak_weights(self, two_building_instance):
        inst = two_building_instance.slice(0, 24)
        lp = build_deterministic(inst, _forecasts(inst))
        cols = lp.meta["columns"]
        tb = lp.tiebreak
        weighted = np.concatenate([cols["charge"].ravel(), cols["discharge"].ravel(), cols["gen"].ravel()])
        assert np.all((tb[weighted] >= 1.0) & (tb[weighted] < 2.0))
        rest = np.setdiff1d(np.arange(lp.n_cols), weighted)
        assert rest.size and np.all(tb[rest] == 0.0)
        # generic: no two weights coincide, and every build draws the same ones
        assert np.unique(tb[weighted]).size == weighted.size
        assert np.array_equal(build_deterministic(inst, _forecasts(inst)).tiebreak, tb)
        scen = sample_scenarios(_forecasts(inst), Uncertainty.zero(), N=3, seed=0)
        assert np.array_equal(build_stochastic(inst, scen).tiebreak, tb)

    def test_tiebreak_draws_shared_per_shape(self, two_building_instance):
        """Builds of one (storages, generators) shape share one read-only
        table whose row t is absolute step t's ``default_rng(0)`` draws,
        whatever the table's length; growing it keeps every row."""
        inst = two_building_instance.slice(5, 24)
        S, G = len(inst.storages), len(inst.generators)
        first = build_module._tiebreak_table(S, G, 29)
        assert build_module._tiebreak_table(S, G, 20) is first
        assert not first.flags.writeable
        rows = first.shape[0]
        assert rows >= 29 and np.array_equal(first, np.random.default_rng(0).uniform(size=(rows, 2 * S + G)))
        grown = build_module._tiebreak_table(S, G, rows + 1)
        assert grown.shape[0] == 2 * rows and np.array_equal(grown[:rows], first)
        assert build_module._tiebreak_table(S, G - 1, 29) is not grown
        lp = build_deterministic(inst, _forecasts(inst))
        cols = lp.meta["columns"]
        u = first[5:29].T
        assert np.array_equal(lp.tiebreak[cols["charge"]], 1.0 + u[:S])
        assert np.array_equal(lp.tiebreak[cols["discharge"]], 1.0 + u[S : 2 * S])
        assert np.array_equal(lp.tiebreak[cols["gen"]], 1.0 + u[2 * S :])

    @settings(max_examples=60, deadline=None)
    @given(
        S=st.integers(0, 3), G=st.integers(0, 3), start=st.integers(0, 3000), T=st.integers(1, 60),
        shift=st.integers(-59, 59), other_T=st.integers(1, 60),
    )
    def test_shared_steps_share_tiebreak_weights(self, S, G, start, T, shift, other_T):
        """Two windows that share absolute steps give every shared
        (quantity, device, step) the same weight bit for bit, however far
        out the windows sit; the weights of one program are generic."""
        other = max(start + shift, 0)
        table = build_module._tiebreak_table(S, G, 1).copy()
        one, two = (build_deterministic(*_device_window(S, G, t0, steps)) for t0, steps in ((start, T), (other, other_T)))
        shared = np.arange(max(start, other), min(start + T, other + other_T))
        for q in ("charge", "discharge", "gen"):
            a = one.tiebreak[one.meta["columns"][q][:, shared - start]]
            b = two.tiebreak[two.meta["columns"][q][:, shared - other]]
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), q
        for lp in (one, two):
            weighted = lp.tiebreak[lp.tiebreak != 0.0]
            assert weighted.size == (2 * S + G) * lp.meta["T"] and np.unique(weighted).size == weighted.size
        grown = build_module._tiebreak_table(S, G, 1)
        assert not grown.flags.writeable and np.array_equal(grown[: table.shape[0]], table)

    def test_horizon_mismatch_rejected(self):
        inst = _instance([1.0, 2.0])
        bad = Forecasts(solar=np.zeros((0, 3)), load=np.ones((1, 3)), price=np.ones(3))
        with pytest.raises(ValueError, match="length"):
            build_deterministic(inst, bad)


def _assert_same_bits(new, old, where):
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype and new.shape == old.shape, where
    assert np.array_equal(new.view(np.int64), old.view(np.int64)), where


def assert_same_program(new, old):
    """Every array of ``new`` equals the loop-built ``old``'s bit for bit,
    and so does every ``meta`` entry but the loop builder's labels; the
    shared ``[A  -I]`` of ``new`` is the one the solver builds from
    ``old``'s triplets, signed zeros included."""
    for part in ("c", "a_rows", "a_cols", "a_vals", "row_lo", "row_up", "col_lo", "col_up", "tiebreak"):
        _assert_same_bits(getattr(new, part), getattr(old, part), part)
    augmented = np.concatenate([old.dense(), -np.eye(old.n_rows)], axis=1)
    assert old.augmented is None and new.augmented.shape == augmented.shape
    assert new.augmented.tobytes() == augmented.tobytes()
    assert set(new.meta) == set(old.meta) - {"labels"}
    for key, value in new.meta.items():
        if isinstance(value, dict):
            assert list(value) == list(old.meta[key]), key
            for name, index in value.items():
                _assert_same_bits(index, old.meta[key][name], (key, name))
        elif isinstance(value, np.ndarray):
            _assert_same_bits(value, old.meta[key], key)
        else:
            assert value == old.meta[key] and type(value) is type(old.meta[key]), key


class TestArrayBuildAgainstLoop:
    """The array builder against the loop builder of ``tests/oracles.py``,
    bit for bit, over horizons and device counts."""

    @staticmethod
    def _window(instance, T, S, G):
        """T steps from step 15 (or the last T) with the first S storages and
        G generators; the solar forecast, one row per building, is doubled
        so it crosses the generator caps."""
        window = instance.slice(min(15, instance.n_steps - T), T)
        window = ProblemInstance(
            grid=window.grid,
            buildings=window.buildings,
            generators=tuple(
                GenerationDevice(g.id, np.linspace(0.0, 0.3, T), g.p_max_capacity) for g in window.generators[:G]
            ),
            storages=window.storages[:S],
            market=window.market,
        )
        forecasts = Forecasts(
            solar=2.0 * np.stack([b.solar_capacity for b in window.buildings]),
            load=np.stack([b.load for b in window.buildings]),
            price=window.market.price,
        )
        return window, forecasts

    @pytest.mark.parametrize("T", [1, 2, 24, 48])
    def test_deterministic(self, two_building_instance, T):
        for S in (0, 1, 2):
            for G in (0, 1, 2):
                window, forecasts = self._window(two_building_instance, T, S, G)
                assert_same_program(build_deterministic(window, forecasts), loop_build_deterministic(window, forecasts))

    def test_step_hours(self, two_building_instance):
        """Steps of a quarter hour scale the dynamics rows' flow terms."""
        window, forecasts = self._window(two_building_instance, 24, 2, 2)
        window = replace(window, grid=replace(window.grid, step_hours=0.25))
        new = build_deterministic(window, forecasts)
        assert_same_program(new, loop_build_deterministic(window, forecasts))
        assert set(new.a_vals.tolist()) == {1.0, -1.0, 0.25, -0.25}

    @pytest.mark.parametrize("N", [1, 50])
    def test_stochastic(self, two_building_instance, monkeypatch, N):
        for T in (1, 24):
            for S, G in ((0, 2), (2, 0), (2, 2)):
                window, forecasts = self._window(two_building_instance, T, S, G)
                unc = Uncertainty(solar=np.full(T, 0.2), load=np.full(T, 0.15), price=np.full(T, 0.02))
                scenarios = sample_scenarios(forecasts, unc, N=N, seed=T + N)
                new = build_stochastic(window, scenarios)
                with monkeypatch.context() as m:
                    m.setattr(build_module, "build_deterministic", loop_build_deterministic)
                    old = build_stochastic(window, scenarios)
                assert_same_program(new, old)

    def test_mps_text_is_unchanged(self, two_building_instance, tmp_path):
        """The text the loop builder's named columns gave, kept in
        ``tests/data``."""
        window = two_building_instance.slice(15, 3)
        path = tmp_path / "program.mps"
        write_mps(build_deterministic(window, _forecasts(window)), str(path))
        assert path.read_bytes() == (Path(__file__).parent / "data" / "dispatch_T3.mps").read_bytes()


class TestSharedTemplate:
    """The triplets and ``[A  -I]`` that every program of one shape shares."""

    def test_builds_of_one_shape_share_read_only_arrays(self, two_building_instance):
        one = build_deterministic(two_building_instance.slice(0, 24), _forecasts(two_building_instance.slice(0, 24)))
        scen = sample_scenarios(_forecasts(two_building_instance.slice(5, 24)), Uncertainty.zero(), N=3, seed=0)
        two = build_stochastic(two_building_instance.slice(5, 24), scen)
        for part in ("a_rows", "a_cols", "a_vals", "augmented"):
            array = getattr(two, part)
            assert array is getattr(one, part), part
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert two.c is not one.c and two.row_lo is not one.row_lo and two.col_up is not one.col_up

    def test_validate_rejects_a_wrong_shape(self, two_building_instance):
        lp = build_deterministic(two_building_instance.slice(0, 4), _forecasts(two_building_instance.slice(0, 4)))
        lp.validate()
        for wrong in (lp.augmented[:-1], lp.augmented[:, :-1], lp.dense()):
            bad = replace(lp)
            bad.augmented = wrong
            with pytest.raises(ValueError, match="augmented"):
                bad.validate()

    def test_one_shape_is_kept_after_an_episode(self):
        """A rolling horizon's tail builds each shorter shape once; only the
        last one stays cached."""
        inst = generate_synthetic(SyntheticSpec(days=2, n_buildings=1, battery_hours=4.0, seed=5))
        config = ControllerConfig(forecaster="oracle", horizon_T=6, T_rl=1, seed=0, scheme=UpdateScheme("noft"))
        ep = run_sofo(inst, Split(0, 0), config)
        assert ep.lp_fallbacks == 0
        info = build_module._template.cache_info()
        assert info.maxsize == 1 and info.currsize == 1
        build_module._template(1, len(inst.generators), len(inst.storages), 1.0)  # the last re-plan's shape
        assert build_module._template.cache_info().hits == info.hits + 1


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

    Both are reduced by a textbook presolve (singleton substitution plus
    merging identical rows), which leaves the same program bit for bit, so
    their reduced solves walk the same pivot path and the plans recovered
    from them agree bit for bit.  The collapsed program solved as built
    agrees with them to 1e-9.
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
                collapse_reduced, collapse_recover = reduce_program(collapse)
                for part in ("c", "tiebreak", "a_rows", "a_cols", "a_vals", "row_lo", "row_up", "col_lo", "col_up"):
                    assert np.array_equal(getattr(collapse_reduced, part), getattr(reduced, part)), (start, N, part)
                sol = solve_lp(collapse)
                own = solve_lp(collapse_reduced)
                ref = solve_lp(reduced)
                assert sol.status == own.status == ref.status == "optimal", (start, N)
                x_exp = recover(ref.x)

                # the expansion's solution in the collapse's column layout
                x_map = np.zeros(collapse.n_cols)
                for q, index in expansion.meta["columns"].items():
                    x_map[collapse.meta["columns"][q]] = x_exp[index]
                reduced_plan = extract_plan(LPSolution("optimal", collapse_recover(own.x), np.nan, 0), collapse)
                ref_plan = extract_plan(LPSolution("optimal", x_map, np.nan, 0), collapse)
                plan = extract_plan(sol, collapse)
                for field in ("p_charge", "p_discharge", "soc", "p_gen"):
                    assert np.array_equal(getattr(reduced_plan, field), getattr(ref_plan, field)), (start, N, field)
                    assert np.allclose(getattr(plan, field), getattr(ref_plan, field), rtol=0, atol=1e-9), (start, N, field)
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
        cols = lp.meta["columns"]
        x = s.x.copy()
        x[cols["charge"][0, 0]] = 3.0
        x[cols["discharge"][0, 0]] = 1.0
        x[cols["grid"][0]] += 2.0  # keep the balance consistent
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
        cols = lp.meta["columns"]
        assert plan.p_charge[0, 0] == pytest.approx(s.x[cols["charge"][0, 0]])
        assert plan.p_discharge[0, 1] == pytest.approx(s.x[cols["discharge"][0, 1]])

    def test_soc_is_the_loop_recursion(self, two_building_instance):
        """Random netted flows at a quarter-hour step: the SOC equals the
        one-step-at-a-time recursion bit for bit."""
        window = two_building_instance.slice(0, 48)
        window = ProblemInstance(
            grid=TimeGrid(0, 48, 0.25), buildings=window.buildings, generators=window.generators,
            storages=window.storages, market=window.market,
        )
        lp = build_deterministic(window, _forecasts(window))
        cols = lp.meta["columns"]
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = np.zeros(lp.n_cols)
            x[cols["charge"]] = rng.uniform(0.0, 1.5, cols["charge"].shape)
            x[cols["discharge"]] = rng.uniform(0.0, 1.5, cols["discharge"].shape)
            plan = extract_plan(LPSolution("optimal", x, np.nan, 0), lp)
            expected = loop_soc(lp.meta["e_initial"], plan.p_charge, plan.p_discharge, 0.25)
            _assert_same_bits(plan.soc, expected, "soc")

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


class TestShiftBasis:
    """Index arithmetic over the build layout; whether a shifted basis
    warm-starts the solver is tested with the solver."""

    @staticmethod
    def _program(instance, start, T):
        window = instance.slice(start, T)
        return build_deterministic(window, _forecasts(window))

    def test_layout_covers_every_column_and_row(self, two_building_instance):
        lp = self._program(two_building_instance, 0, 24)
        cols = np.concatenate([lp.meta["columns"][q].ravel() for q in build_module.COLUMN_QUANTITIES])
        rows = np.concatenate([lp.meta["rows"][q].ravel() for q in build_module.ROW_KINDS])
        assert np.array_equal(np.sort(cols), np.arange(lp.n_cols))
        assert np.array_equal(np.sort(rows), np.arange(lp.n_rows))
        # the loop builder's label of every column the layout names
        window = two_building_instance.slice(0, 24)
        labels = loop_build_deterministic(window, _forecasts(window)).meta["labels"]
        devices = {"grid": [""], "gen": lp.meta["generators"]}
        for q in build_module.COLUMN_QUANTITIES:
            index = np.atleast_2d(lp.meta["columns"][q])
            for device, steps in zip(devices.get(q, lp.meta["storages"]), index):
                assert [labels[j] for j in steps] == [
                    f"{q}.{device}.t{t}" if device else f"{q}.t{t}" for t in range(24)
                ], q

    def test_zero_shift_is_the_identity(self, two_building_instance):
        lp = self._program(two_building_instance, 0, 24)
        basis = solve_lp(lp).basis
        same = shift_basis(basis, lp, lp, 0)
        assert np.array_equal(same.cols, basis.cols) and np.array_equal(same.rows, basis.rows)

    def test_statuses_move_back_k_steps(self, two_building_instance):
        source = self._program(two_building_instance, 0, 24)
        target = self._program(two_building_instance, 3, 24)
        basis = solve_lp(source).basis
        shifted = shift_basis(basis, source, target, 3)
        src, dst = source.meta, target.meta
        for q in build_module.COLUMN_QUANTITIES:
            assert np.array_equal(shifted.cols[dst["columns"][q][..., :21]], basis.cols[src["columns"][q][..., 3:]]), q
        for q in build_module.ROW_KINDS:
            kept = shifted.rows[dst["rows"][q][..., :21]]
            old = basis.rows[src["rows"][q][..., 3:]]
            if q == "dynamics":  # the first kept rows may take in logicals
                kept, old = kept[:, 1:], old[:, 1:]
            assert np.array_equal(kept, old), q
        # the three new steps' grid and SOC columns are basic
        assert np.all(shifted.cols[dst["columns"]["grid"][21:]] == BASIC)
        assert np.all(shifted.cols[dst["columns"]["soc"][:, 21:]] == BASIC)
        assert np.count_nonzero(shifted.cols == BASIC) + np.count_nonzero(shifted.rows == BASIC) == target.n_rows

    def test_no_shared_step_or_device_gives_none(self, two_building_instance):
        source = self._program(two_building_instance, 0, 24)
        basis = solve_lp(source).basis
        assert shift_basis(basis, source, self._program(two_building_instance, 24, 24), 24) is None
        other = _instance([1.0] * 24)
        assert shift_basis(basis, source, build_deterministic(other, _forecasts(other)), 1) is None

    def test_shrinking_horizon_keeps_the_basis_size(self, two_building_instance):
        source = self._program(two_building_instance, 20, 24)
        target = self._program(two_building_instance, 21, 23)
        shifted = shift_basis(solve_lp(source).basis, source, target, 1)
        assert shifted.cols.shape == (target.n_cols,) and shifted.rows.shape == (target.n_rows,)
        assert np.count_nonzero(shifted.cols == BASIC) + np.count_nonzero(shifted.rows == BASIC) == target.n_rows
