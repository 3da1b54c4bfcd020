import time
from dataclasses import replace

import numpy as np
import pytest

from vppdispatch.dispatch import (
    ColumnName, LPBuilder, build_deterministic, build_stochastic, extract_plan, solve_lp, write_mps,
)
from vppdispatch.dispatch import simplex
from vppdispatch.dispatch.lp import LPSolution
from vppdispatch.dispatch.simplex import SolveOptions
from vppdispatch.scenario import Forecasts, Uncertainty, sample_scenarios
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic

from oracles import enumerate_lp_minimum, rebuilding_iterate


def _build(c, A, row_lo, row_up, col_lo, col_up):
    b = LPBuilder()
    n = len(c)
    for j in range(n):
        b.add_col(ColumnName("x", "", j), col_lo[j], col_up[j], c[j])
    for i in range(A.shape[0]):
        b.add_row([(j, A[i, j]) for j in range(n) if A[i, j] != 0.0], row_lo[i], row_up[i])
    return b.build()


def random_bounded_lp(rng):
    """Feasible bounded LP with at most 8 variables and 8 rows.

    Joint size is capped so the enumeration oracle stays enumerable in
    reasonable time; the 8-variable and 8-row extremes are still reached.
    """
    while True:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        if n + m <= 12:
            break
    A = rng.standard_normal((m, n)).round(2)
    col_lo = rng.uniform(-3, 0, n).round(2)
    col_up = col_lo + rng.uniform(0.5, 4, n).round(2)
    x0 = rng.uniform(col_lo, col_up)
    act = A @ x0
    row_lo = act - rng.uniform(0.1, 2, m)
    row_up = act + rng.uniform(0.1, 2, m)
    for i in range(m):
        kind = rng.integers(0, 4)
        if kind == 0:
            row_lo[i] = -np.inf
        elif kind == 1:
            row_up[i] = np.inf
        elif kind == 2:
            row_lo[i] = row_up[i] = act[i]
    c = rng.standard_normal(n).round(2)
    return c, A, row_lo, row_up, col_lo, col_up


def infeasible_lp():
    b = LPBuilder()
    x = b.add_col(ColumnName("x", "", 0), 0.0, 1.0, 1.0)
    b.add_row([(x, 1.0)], 2.0, 3.0)
    return b.build()


def unbounded_lp():
    b = LPBuilder()
    x = b.add_col(ColumnName("x", "", 0), -np.inf, np.inf, 1.0)
    y = b.add_col(ColumnName("y", "", 1), 0.0, np.inf, 0.0)
    b.add_row([(x, 1.0), (y, 1.0)], -np.inf, 5.0)
    return b.build()


def dispatch_lp(T, initial_soc=0.0, n_scenarios=None):
    """The clairvoyant (or, with ``n_scenarios``, the stochastic) dispatch
    program over steps [7, 7+T) of an 8-day two-building district, its
    batteries starting at ``initial_soc`` of their capacity."""
    district = generate_synthetic(SyntheticSpec(
        days=8, n_buildings=2, noise_load=0.08, noise_solar=0.15, pv_scale=2.0,
        battery_hours=5.0, battery_c_rate=0.2, seed=3,
    ))
    window = district.slice(7, T)
    window = replace(window, storages=tuple(
        replace(s, e_initial=initial_soc * s.e_max) for s in window.storages
    ))
    fc = Forecasts(
        solar=np.stack([b.solar_capacity for b in window.buildings]),
        load=np.stack([b.load for b in window.buildings]),
        price=window.market.price,
    )
    if n_scenarios is None:
        return build_deterministic(window, fc)
    unc = Uncertainty(solar=np.full(T, 0.2), load=np.full(T, 0.15), price=np.full(T, 0.02))
    return build_stochastic(window, sample_scenarios(fc, unc, N=n_scenarios, seed=1))


class TestTinyPrograms:
    def test_single_variable_lower_bound(self):
        b = LPBuilder()
        b.add_col(ColumnName("x", "", 0), 3.0, np.inf, 1.0)
        s = solve_lp(b.build())
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0)

    def test_textbook_simplex_instance(self):
        b = LPBuilder()
        x = b.add_col(ColumnName("x", "", 0), 0.0, np.inf, -1.0)
        y = b.add_col(ColumnName("y", "", 1), 0.0, np.inf, -1.0)
        b.add_row([(x, 1.0), (y, 1.0)], -np.inf, 1.0)
        s = solve_lp(b.build())
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-1.0)

    def test_infeasible_detected(self):
        assert solve_lp(infeasible_lp()).status == "infeasible"

    def test_unbounded_detected(self):
        assert solve_lp(unbounded_lp()).status == "unbounded"

    def test_iteration_limit_reported(self):
        rng = np.random.default_rng(0)
        lp = _build(*random_bounded_lp(rng))
        s = solve_lp(lp, SolveOptions(max_iterations=0))
        assert s.status == "iteration_limit"


class TestOracleEquivalence:
    def test_fifty_random_lps_match_enumeration(self):
        rng = np.random.default_rng(2024)
        started = time.time()
        for trial in range(50):
            c, A, row_lo, row_up, col_lo, col_up = random_bounded_lp(rng)
            lp = _build(c, A, row_lo, row_up, col_lo, col_up)
            expect = enumerate_lp_minimum(c, A, row_lo, row_up, col_lo, col_up)
            assert expect is not None, f"trial {trial}: oracle found no vertex"
            got = solve_lp(lp)
            assert got.status == "optimal", f"trial {trial}: {got.status}"
            assert got.objective == pytest.approx(expect, abs=1e-6), f"trial {trial}"
        assert time.time() - started < 5.0

    def test_presolve_and_raw_paths_agree(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            lp = _build(*random_bounded_lp(rng))
            with_pre = solve_lp(lp, SolveOptions(presolve=True))
            without = solve_lp(lp, SolveOptions(presolve=False))
            assert with_pre.status == without.status == "optimal"
            assert with_pre.objective == pytest.approx(without.objective, abs=1e-7)

    def test_primal_within_bounds_when_optimal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c, A, row_lo, row_up, col_lo, col_up = random_bounded_lp(rng)
            lp = _build(c, A, row_lo, row_up, col_lo, col_up)
            s = solve_lp(lp)
            assert s.status == "optimal"
            assert np.all(s.x >= col_lo - 1e-7) and np.all(s.x <= col_up + 1e-7)
            act = A @ s.x
            assert np.all(act >= row_lo - 1e-7) and np.all(act <= row_up + 1e-7)


class TestPivotPathMatchesRebuildingLoop:
    """The pivot loop that carries its state across pivots against the
    oracle loop that rebuilds it at every pivot: the same status, the same
    iteration count and the same bits of x."""

    @staticmethod
    def _check(lp, monkeypatch, options=None):
        with monkeypatch.context() as patched:
            patched.setattr(simplex._Core, "iterate", rebuilding_iterate)
            expect = solve_lp(lp, options)
        got = solve_lp(lp, options)
        assert got.status == expect.status
        assert got.iterations == expect.iterations
        assert np.array_equal(got.x.view(np.int64), expect.x.view(np.int64))
        return got

    @staticmethod
    def _trace(lp, monkeypatch, options=None):
        """Iterations per call of the pivot loop (one call per phase), and
        the pivots since the last refactorization at each refactorization."""
        calls, refactors = [], []
        iterate, refactor = simplex._Core.iterate, simplex._Core.refactor

        def counting_iterate(core, max_iterations):
            state, iterations = iterate(core, max_iterations)
            calls.append(iterations)
            return state, iterations

        def recording_refactor(core):
            refactors.append(getattr(core, "pivots_since_refresh", 0))
            refactor(core)

        with monkeypatch.context() as patched:
            patched.setattr(simplex._Core, "iterate", counting_iterate)
            patched.setattr(simplex._Core, "refactor", recording_refactor)
            solve_lp(lp, options)
        return calls, refactors

    @pytest.mark.parametrize("T", [24, 48, 96])
    def test_deterministic_dispatch(self, T, monkeypatch):
        assert self._check(dispatch_lp(T), monkeypatch).status == "optimal"

    def test_stochastic_dispatch(self, monkeypatch):
        assert self._check(dispatch_lp(24, n_scenarios=50), monkeypatch).status == "optimal"

    def test_start_violating_rows(self, monkeypatch):
        lp = dispatch_lp(48, initial_soc=0.5)
        calls, _ = self._trace(lp, monkeypatch)
        assert len(calls) == 3 and calls[0] > 0  # a phase 1 ran
        assert self._check(lp, monkeypatch).status == "optimal"

    @pytest.mark.parametrize("build, status", [
        (infeasible_lp, "infeasible"),
        (unbounded_lp, "unbounded"),
        (lambda: _build(*random_bounded_lp(np.random.default_rng(0))), "optimal"),
    ], ids=["infeasible", "unbounded", "random"])
    def test_tiny_programs(self, build, status, monkeypatch):
        assert self._check(build(), monkeypatch).status == status
        got = self._check(build(), monkeypatch, SolveOptions(max_iterations=0))
        assert got.status == "iteration_limit"

    def test_iteration_limits(self, monkeypatch):
        lp = dispatch_lp(48, initial_soc=0.5)
        (phase1, phase2, phase3), _ = self._trace(lp, monkeypatch)
        # cut off in phase 1, in phase 2, in phase 2 after a refactorization
        # that _REFRESH pivots forced, and in phase 3, which ends optimal
        for limit, phases, refreshed, status in (
            (phase1 // 2, 1, False, "iteration_limit"),
            (phase1 + 10, 2, False, "iteration_limit"),
            (phase1 + phase2 // 2, 2, True, "iteration_limit"),
            (phase1 + phase2 + phase3 // 2, 3, True, "optimal"),
        ):
            options = SolveOptions(max_iterations=limit)
            calls, refactors = self._trace(lp, monkeypatch, options)
            assert len(calls) == phases and (simplex._REFRESH in refactors) == refreshed
            got = self._check(lp, monkeypatch, options)
            assert got.status == status and got.iterations == limit


def _bland(monkeypatch):
    """Force Bland's smallest-index entering rule at every pivot."""
    monkeypatch.setattr(simplex, "_entering", lambda eligible, d, stalled: int(eligible.argmax()))


PLAN_FIELDS = ("p_grid", "p_gen", "p_charge", "p_discharge", "soc")
DISPATCH_CASES = pytest.mark.parametrize("args", [
    dict(T=24), dict(T=48), dict(T=96), dict(T=24, n_scenarios=50), dict(T=48, initial_soc=0.5),
], ids=["T24", "T48", "T96", "stochastic", "phase1"])


class TestPlanIndependence:
    """The dispatch programs are dual-degenerate; phase 3 makes the plan a
    function of the program, whatever the pivot order."""

    @DISPATCH_CASES
    def test_bland_and_dantzig_plans_agree(self, args, monkeypatch):
        lp = dispatch_lp(**args)
        got = solve_lp(lp)
        with monkeypatch.context() as patched:
            _bland(patched)
            ref = solve_lp(lp)
        assert got.status == ref.status == "optimal"
        assert got.iterations < ref.iterations  # the two rules walked different paths
        assert abs(got.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        plan, ref_plan = extract_plan(got, lp), extract_plan(ref, lp)
        for field in PLAN_FIELDS:
            assert np.allclose(getattr(plan, field), getattr(ref_plan, field), rtol=0, atol=1e-9), field

    @DISPATCH_CASES
    def test_presolve_keeps_the_plan(self, args):
        lp = dispatch_lp(**args)
        got, raw = solve_lp(lp), solve_lp(lp, SolveOptions(presolve=False))
        plan, raw_plan = extract_plan(got, lp), extract_plan(raw, lp)
        for field in PLAN_FIELDS:
            assert np.allclose(getattr(plan, field), getattr(raw_plan, field), rtol=0, atol=1e-9), field

    def test_presolve_substitutes_the_tiebreak(self):
        """Every point is optimal for c = 0, and the tie-break weight of the
        singleton s, which presolve substitutes out, decides the point."""
        A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])  # columns x, y, s
        lp = _build(np.zeros(3), A, np.array([1.0, -1.0]), np.array([1.0, 1.0]), np.zeros(3), np.ones(3))
        lp.tiebreak = np.array([-0.1, -0.2, -1.0])
        for presolve in (True, False):
            got = solve_lp(lp, SolveOptions(presolve=presolve))
            assert got.status == "optimal"
            assert np.allclose(got.x, [0.0, 0.0, 1.0], rtol=0, atol=1e-12), presolve

    @DISPATCH_CASES
    def test_first_step_matches_lexicographic_highs(self, args):
        """HiGHS minimizes c.x, then the tie-break cost with c.x held at its
        optimum; the executed first step must be the same."""
        pytest.importorskip("scipy.optimize")
        lp = dispatch_lp(**args)
        first = _highs(lp, lp.c)
        z = first.fun + 1e-9 * max(1.0, abs(first.fun))
        second = _highs(lp, lp.tiebreak, cap=(lp.c, z))
        got = extract_plan(solve_lp(lp), lp)
        ref = extract_plan(LPSolution("optimal", second.x, float(lp.c @ second.x), 0), lp)
        assert np.allclose(got.p_charge[:, 0], ref.p_charge[:, 0], rtol=0, atol=1e-6)
        assert np.allclose(got.p_discharge[:, 0], ref.p_discharge[:, 0], rtol=0, atol=1e-6)

    def test_limit_in_phase_three_keeps_the_optimum(self, monkeypatch):
        lp = dispatch_lp(48)
        calls = []
        iterate = simplex._Core.iterate

        def counting_iterate(core, max_iterations):
            state, iterations = iterate(core, max_iterations)
            calls.append(iterations)
            return state, iterations

        with monkeypatch.context() as patched:
            patched.setattr(simplex._Core, "iterate", counting_iterate)
            full = solve_lp(lp)
        phase2, phase3 = calls
        assert phase3 > 1
        cut = solve_lp(lp, SolveOptions(max_iterations=phase2 + phase3 // 2))
        assert cut.status == "optimal" and cut.iterations == phase2 + phase3 // 2
        assert abs(cut.objective - full.objective) <= 1e-9 * max(1.0, abs(full.objective))
        activity = lp.dense() @ cut.x
        assert np.all(activity >= lp.row_lo - 1e-7) and np.all(activity <= lp.row_up + 1e-7)
        assert np.all(cut.x >= lp.col_lo) and np.all(cut.x <= lp.col_up)
        assert lp.tiebreak @ cut.x > lp.tiebreak @ full.x  # phase 3 had not finished


def _highs(lp, cost, cap=None):
    """HiGHS through ``scipy.optimize.linprog`` on ``min cost.x`` over the
    program's rows and bounds, plus ``cap[0].x <= cap[1]`` if given."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    A = lp.dense()
    eq = lp.row_lo == lp.row_up
    up, lo = ~eq & np.isfinite(lp.row_up), ~eq & np.isfinite(lp.row_lo)
    A_ub = [A[up], -A[lo]]
    b_ub = [lp.row_up[up], -lp.row_lo[lo]]
    if cap is not None:
        A_ub.append(cap[0][None, :])
        b_ub.append([cap[1]])
    res = linprog(
        cost, A_ub=np.vstack(A_ub), b_ub=np.concatenate(b_ub), A_eq=A[eq], b_eq=lp.row_lo[eq],
        bounds=np.column_stack([lp.col_lo, lp.col_up]), method="highs",
    )
    assert res.status == 0, res.message
    return res


@pytest.mark.parametrize("T", [24, 96, 168])
def test_dispatch_programs_match_highs(T):
    """Objective against HiGHS; x checked against rows and bounds.  The
    programs are degenerate, so the two vertices may differ."""
    lp = dispatch_lp(T, initial_soc=0.5)
    res = _highs(lp, lp.c)
    got = solve_lp(lp)
    assert got.status == "optimal"
    assert abs(got.objective - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
    activity = lp.dense() @ got.x
    assert np.all(activity >= lp.row_lo - 1e-7) and np.all(activity <= lp.row_up + 1e-7)
    assert np.all(got.x >= lp.col_lo - 1e-7) and np.all(got.x <= lp.col_up + 1e-7)


class TestDeterminism:
    def test_identical_inputs_identical_solutions(self):
        rng = np.random.default_rng(9)
        lp = _build(*random_bounded_lp(rng))
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations


class TestGreedyWeakDuality:
    def test_feasible_point_never_beats_optimum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c, A, row_lo, row_up, col_lo, col_up = random_bounded_lp(rng)
            lp = _build(c, A, row_lo, row_up, col_lo, col_up)
            s = solve_lp(lp)
            assert s.status == "optimal"
            # greedy heuristic: bound-following candidate clipped into the box
            greedy = np.where(c > 0, col_lo, col_up)
            act = A @ greedy
            if np.all(act >= row_lo - 1e-9) and np.all(act <= row_up + 1e-9):
                assert float(c @ greedy) >= s.objective - 1e-6


def test_mps_export_smoke(tmp_path):
    rng = np.random.default_rng(4)
    lp = _build(*random_bounded_lp(rng))
    path = tmp_path / "prog.mps"
    write_mps(lp, str(path))
    text = path.read_text()
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert "C0000000" in text
    # the tie-break cost is the solver's, not part of the exported program
    lp.tiebreak = np.ones(lp.n_cols)
    write_mps(lp, str(path))
    assert path.read_text() == text


def test_tiebreak_length_validated():
    lp = _build(*random_bounded_lp(np.random.default_rng(4)))
    lp.tiebreak = np.ones(lp.n_cols + 1)
    with pytest.raises(ValueError, match="tie-break"):
        lp.validate()
