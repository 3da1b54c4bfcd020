import time
from dataclasses import replace

import numpy as np
import pytest

from vppdispatch.dispatch import (
    build_deterministic, build_stochastic, extract_plan, shift_basis, solve_lp, write_mps,
)
from vppdispatch.dispatch import build as build_module
from vppdispatch.dispatch import simplex
from vppdispatch.dispatch.lp import AT_LO, AT_UP, BASIC, Basis, LPSolution
from vppdispatch.dispatch.simplex import SolveOptions
from vppdispatch.scenario import Forecasts, Uncertainty, sample_scenarios
from vppdispatch.synthetic import SyntheticSpec, generate_synthetic

from oracles import ProgramBuilder, enumerate_lp_minimum, rebuilding_iterate


def _build(c, A, row_lo, row_up, col_lo, col_up):
    b = ProgramBuilder()
    n = len(c)
    for j in range(n):
        b.add_col(f"x{j}", col_lo[j], col_up[j], c[j])
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
    b = ProgramBuilder()
    x = b.add_col("x0", 0.0, 1.0, 1.0)
    b.add_row([(x, 1.0)], 2.0, 3.0)
    return b.build()


def unbounded_lp():
    b = ProgramBuilder()
    x = b.add_col("x0", -np.inf, np.inf, 1.0)
    y = b.add_col("y1", 0.0, np.inf, 0.0)
    b.add_row([(x, 1.0), (y, 1.0)], -np.inf, 5.0)
    return b.build()


def empty_row_lp():
    """A feasible row on x0 and an equality row with no entries and a
    right-hand side of 1, which no point meets."""
    b = ProgramBuilder()
    x = b.add_col("x0", 0.0, 2.0, 1.0)
    b.add_row([(x, 1.0)], 1.0, 2.0)
    b.add_row([], 1.0, 1.0)
    return b.build()


def duplicate_triplets_lp():
    """min -x0 - y1 s.t. 2 x0 + y1 <= 3 over [0, 2]^2, the coefficient of
    x0 given as two triplets, 0.5 and 1.5: the optimum (0.5, 2) is unique,
    and taking either triplet alone would move it."""
    b = ProgramBuilder()
    x = b.add_col("x0", 0.0, 2.0, -1.0)
    y = b.add_col("y1", 0.0, 2.0, -1.0)
    b.add_row([(x, 0.5), (y, 1.0), (x, 1.5)], -np.inf, 3.0)
    return b.build()


def dispatch_lp(T, initial_soc=0.0, n_scenarios=None, start=7):
    """The clairvoyant (or, with ``n_scenarios``, the stochastic) dispatch
    program over steps [start, start+T) of an 8-day two-building district,
    its batteries starting at ``initial_soc`` of their capacity."""
    district = generate_synthetic(SyntheticSpec(
        days=8, n_buildings=2, noise_load=0.08, noise_solar=0.15, pv_scale=2.0,
        battery_hours=5.0, battery_c_rate=0.2, seed=3,
    ))
    window = district.slice(start, T)
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


def shifted_start(T, k=1, **kwargs):
    """``dispatch_lp(T, **kwargs)`` and a start basis for it: the optimal
    basis of the window ``k`` steps earlier, shifted."""
    lp = dispatch_lp(T, **kwargs)
    source = dispatch_lp(T, start=7 - k, **kwargs)
    return lp, shift_basis(solve_lp(source).basis, source, lp, k)


def basic_count(basis):
    return np.count_nonzero(basis.cols == BASIC) + np.count_nonzero(basis.rows == BASIC)


class TestTinyPrograms:
    def test_single_variable_lower_bound(self):
        b = ProgramBuilder()
        b.add_col("x0", 3.0, np.inf, 1.0)
        s = solve_lp(b.build())
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0)

    def test_textbook_simplex_instance(self):
        b = ProgramBuilder()
        x = b.add_col("x0", 0.0, np.inf, -1.0)
        y = b.add_col("y1", 0.0, np.inf, -1.0)
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


class TestZeroRowPrograms:
    """A program without rows takes the phases of any other: its basis is
    empty, and each column swings to the bound its cost prefers."""

    def test_tiebreak_decides_the_point(self):
        b = ProgramBuilder()
        b.add_col("x0", 0.0, 1.0)
        b.add_col("x1", 0.0, 1.0)
        s = solve_lp(b.build(tiebreak=np.array([1.0, -1.0])))
        assert s.status == "optimal" and s.x.tolist() == [0.0, 1.0]
        assert s.phase_iterations == (0, 0, 1) and s.objective == 0.0

    def test_negative_cost_reaches_the_upper_bound(self):
        b = ProgramBuilder()
        b.add_col("x0", 0.0, 2.0, -1.0)
        s = solve_lp(b.build())
        assert s.status == "optimal" and s.x.tolist() == [2.0] and s.objective == -2.0
        assert s.iterations == 1 and s.phase_iterations == (0, 1, 0)
        assert s.basis.cols.tolist() == [AT_UP] and s.basis.rows.size == 0 and s.basis.inverse.shape == (0, 0)

    def test_free_priced_column_is_unbounded(self):
        b = ProgramBuilder()
        b.add_col("x0", -np.inf, np.inf, 1.0)
        s = solve_lp(b.build())
        assert s.status == "unbounded" and s.basis is None and np.isnan(s.objective)


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
        (empty_row_lp, "infeasible"),
        (unbounded_lp, "unbounded"),
        (duplicate_triplets_lp, "optimal"),
        (lambda: _build(*random_bounded_lp(np.random.default_rng(0))), "optimal"),
    ], ids=["infeasible", "empty_row", "unbounded", "duplicate_triplets", "random"])
    def test_tiny_programs(self, build, status, monkeypatch):
        got = self._check(build(), monkeypatch)
        assert got.status == status
        if status == "infeasible":
            assert got.phase_iterations[0] > 0  # phase 1 found it
        if build is duplicate_triplets_lp:
            assert np.array_equal(got.x, [0.5, 2.0])  # the triplets count as their sum
        got = self._check(build(), monkeypatch, SolveOptions(max_iterations=0))
        assert got.status == "iteration_limit"

    def test_warm_start(self, monkeypatch):
        lp, start = shifted_start(48, initial_soc=0.5)
        got = self._check(lp, monkeypatch, SolveOptions(basis=start))
        assert got.status == "optimal" and got.warm_start == "accepted" and got.phase_iterations[0] > 0

    @pytest.mark.parametrize("scenarios", [None, 300], ids=["T48", "N300"])
    def test_consecutive_warm_replans(self, scenarios, monkeypatch):
        """24 re-plans of a 48-step window, each warm-started from the
        previous re-plan's own optimal basis shifted one step on."""

        def replans():
            solutions, previous = [], None
            for k in range(24):
                lp = dispatch_lp(48, n_scenarios=scenarios, start=7 + k)
                basis = None if previous is None else shift_basis(previous[1].basis, previous[0], lp, 1)
                solution = solve_lp(lp, SolveOptions(basis=basis))
                solutions.append(solution)
                previous = lp, solution
            return solutions

        with monkeypatch.context() as patched:
            patched.setattr(simplex._Core, "iterate", rebuilding_iterate)
            expect = replans()
        got = replans()
        for k, (g, e) in enumerate(zip(got, expect)):
            assert g.status == e.status == "optimal", k
            assert g.warm_start == e.warm_start, k
            assert g.phase_iterations == e.phase_iterations and g.iterations == e.iterations, k
            assert np.array_equal(g.basis.cols, e.basis.cols) and np.array_equal(g.basis.rows, e.basis.rows), k
            assert np.array_equal(g.x.view(np.int64), e.x.view(np.int64)), k
        assert [g.warm_start for g in got].count("accepted") == 23
        assert sum(g.iterations for g in got) > 24 * 10  # every re-plan pivots

    def test_phase_counts(self, monkeypatch):
        lp = dispatch_lp(48, initial_soc=0.5)
        calls, _ = self._trace(lp, monkeypatch)
        got = solve_lp(lp)
        assert list(got.phase_iterations) == calls and got.iterations == sum(calls)

    def test_iteration_limits(self, monkeypatch):
        lp = dispatch_lp(48)
        (phase1, phase2, phase3), _ = self._trace(lp, monkeypatch)
        assert phase1 + 10 <= simplex._REFRESH  # the first forced refactorization falls in phase 2
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

    def test_tiebreak_on_a_singleton_decides_the_point(self):
        """Every point is optimal for c = 0, and the tie-break weight of s,
        a singleton column of an equality row, decides the point."""
        A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])  # columns x, y, s
        lp = _build(np.zeros(3), A, np.array([1.0, -1.0]), np.array([1.0, 1.0]), np.zeros(3), np.ones(3))
        lp.tiebreak = np.array([-0.1, -0.2, -1.0])
        got = solve_lp(lp)
        assert got.status == "optimal"
        assert np.allclose(got.x, [0.0, 0.0, 1.0], rtol=0, atol=1e-12)

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
        phase1, phase2, phase3 = calls
        assert phase3 > 1
        limit = phase1 + phase2 + phase3 // 2
        cut = solve_lp(lp, SolveOptions(max_iterations=limit))
        assert cut.status == "optimal" and cut.iterations == limit
        assert abs(cut.objective - full.objective) <= 1e-9 * max(1.0, abs(full.objective))
        activity = lp.dense() @ cut.x
        assert np.all(activity >= lp.row_lo - 1e-7) and np.all(activity <= lp.row_up + 1e-7)
        assert np.all(cut.x >= lp.col_lo) and np.all(cut.x <= lp.col_up)
        assert lp.tiebreak @ cut.x > lp.tiebreak @ full.x  # phase 3 had not finished


class TestWarmStart:
    """A re-plan warm-started from its neighbour's shifted basis against the
    same program solved cold."""

    @DISPATCH_CASES
    def test_warm_and_cold_plans_agree(self, args):
        lp, start = shifted_start(**args)
        cold, warm = solve_lp(lp), solve_lp(lp, SolveOptions(basis=start))
        assert cold.warm_start is None and warm.warm_start == "accepted"
        assert cold.status == warm.status == "optimal"
        assert warm.iterations < cold.iterations
        assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        plan, cold_plan = extract_plan(warm, lp), extract_plan(cold, lp)
        for field in PLAN_FIELDS:
            assert np.allclose(getattr(plan, field), getattr(cold_plan, field), rtol=0, atol=1e-9), field

    @pytest.mark.parametrize("with_inverse", [True, False])
    def test_own_basis_needs_no_pivot(self, with_inverse):
        """The final basis restarts without a pivot, whether it carries its
        inverse or ``inv`` inverts it again."""
        lp = dispatch_lp(48, initial_soc=0.5)
        cold = solve_lp(lp)
        assert basic_count(cold.basis) == lp.n_rows and cold.basis.inverse is not None
        start = cold.basis if with_inverse else Basis(cold.basis.cols, cold.basis.rows)
        again = solve_lp(lp, SolveOptions(basis=start))
        assert again.warm_start == "accepted" and again.iterations == 0
        assert again.start_inverse == ("carried" if with_inverse else "none carried")
        assert np.allclose(again.x, cold.x, rtol=0, atol=1e-12)

    @staticmethod
    def _singular(lp, basis):
        """``basis`` with one battery's charge and discharge columns, which
        are parallel at unit efficiency, both basic."""
        cols = basis.cols.copy()
        charge, discharge = lp.meta["columns"]["charge"].ravel(), lp.meta["columns"]["discharge"].ravel()
        t = np.flatnonzero((cols[charge] == BASIC) != (cols[discharge] == BASIC))[0]
        cols[charge[t]] = cols[discharge[t]] = BASIC
        soc = lp.meta["columns"]["soc"].ravel()
        cols[soc[np.flatnonzero(cols[soc] == BASIC)[0]]] = 0  # keep the count
        return Basis(cols, basis.rows)

    @pytest.mark.parametrize("case", ["singular", "wrong size", "wrong split", "no overlap"])
    def test_unusable_start_gives_the_cold_result(self, case):
        lp = dispatch_lp(48, initial_soc=0.5)
        cold = solve_lp(lp)
        if case == "singular":
            start = self._singular(lp, cold.basis)
        elif case == "wrong size":
            start = solve_lp(dispatch_lp(24, initial_soc=0.5)).basis
        elif case == "wrong split":
            # the right total length, one row logical's status moved over to the columns
            start = Basis(np.append(cold.basis.cols, cold.basis.rows[0]), cold.basis.rows[1:])
        else:
            source = dispatch_lp(48, initial_soc=0.5, start=0)
            assert shift_basis(solve_lp(source).basis, source, lp, 48) is None
            start = None
        got = solve_lp(lp, SolveOptions(basis=start))
        assert got.warm_start == (None if start is None else "wrong size" if case == "wrong split" else case)
        assert got.start_inverse is None
        assert got.iterations == cold.iterations and got.phase_iterations == cold.phase_iterations
        assert np.array_equal(got.x, cold.x)

    def test_infeasible_program_stays_infeasible(self):
        lp, start = shifted_start(48, initial_soc=0.5)
        balance = lp.meta["rows"]["balance"][5]
        lp.row_lo[balance] = lp.row_up[balance] = -1e3  # the district would have to export 1 MW
        got = solve_lp(lp, SolveOptions(basis=start))
        assert got.warm_start == "accepted" and got.status == "infeasible"
        assert solve_lp(lp).status == "infeasible"

    def test_iteration_limit_in_warm_phase_one(self):
        lp, start = shifted_start(48, initial_soc=0.5)
        phase1 = solve_lp(lp, SolveOptions(basis=start)).phase_iterations[0]
        assert phase1 > 0
        got = solve_lp(lp, SolveOptions(max_iterations=phase1 // 2, basis=start))
        assert got.warm_start == "accepted" and got.status == "iteration_limit"
        assert got.phase_iterations == (phase1 // 2, 0, 0) and got.basis is None

    def test_random_programs_from_perturbed_bases(self):
        """Random programs warm-started from the optimal basis of a copy with
        other costs and shifted rows (the same matrix, so the basis is
        always usable): the cold optimum, and a full basis from both starts."""
        rng = np.random.default_rng(11)
        infeasible_starts = infeasible_cold_starts = 0
        for trial in range(40):
            c, A, row_lo, row_up, col_lo, col_up = random_bounded_lp(rng)
            lp = _build(c, A, row_lo, row_up, col_lo, col_up)
            shift = rng.uniform(-0.3, 0.3, A.shape[0])
            neighbour = _build(c + rng.normal(0, 0.3, c.shape), A, row_lo + shift, row_up + shift, col_lo, col_up)
            source = solve_lp(neighbour)
            if source.status != "optimal":
                continue
            cold = solve_lp(lp)
            warm = solve_lp(lp, SolveOptions(basis=source.basis))
            assert warm.warm_start == "accepted", trial
            assert warm.status == cold.status == "optimal", trial
            assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective)), trial
            assert basic_count(warm.basis) == basic_count(cold.basis) == lp.n_rows, trial
            infeasible_starts += warm.phase_iterations[0] > 0
            infeasible_cold_starts += cold.phase_iterations[0] > 0
        assert infeasible_starts >= 5  # warm phase 1 ran
        assert infeasible_cold_starts >= 5  # phase 1 from the slack basis ran


def basis_matrix(lp, basis):
    """The columns of ``[A  -I]`` at the basic entries of ``basis``, columns
    before row logicals."""
    return np.concatenate([lp.dense()[:, basis.cols == BASIC], -np.eye(lp.n_rows)[:, basis.rows == BASIC]], axis=1)


def assert_inverse(lp, basis):
    """``basis.inverse`` is ``np.linalg.inv`` of its basis matrix to 1e-10."""
    assert basis.inverse is not None
    assert np.abs(basis.inverse - np.linalg.inv(basis_matrix(lp, basis))).max() <= 1e-10


class TestCarriedInverse:
    """The basis inverse an optimal solution hands on and ``shift_basis``
    carries to the next program, against ``np.linalg.inv``; and each path on
    which none is carried or the carried one is refused, which must reach
    the result of the same start basis inverted by ``inv``."""

    @staticmethod
    def _as_without_inverse(lp, start, got):
        ref = solve_lp(lp, SolveOptions(basis=Basis(start.cols, start.rows)))
        assert ref.start_inverse == "none carried"
        assert got.status == ref.status and got.phase_iterations == ref.phase_iterations
        assert np.array_equal(got.x.view(np.int64), ref.x.view(np.int64))
        assert np.array_equal(got.basis.cols, ref.basis.cols) and np.array_equal(got.basis.rows, ref.basis.rows)

    @pytest.mark.parametrize("warm", [True, False])
    def test_final_basis_carries_its_inverse(self, warm):
        """From the slack basis and from the shifted start, both of which
        run phase 1."""
        lp, start = shifted_start(48, initial_soc=0.5)
        given = start.inverse.copy()
        solution = solve_lp(lp, SolveOptions(basis=start) if warm else SolveOptions())
        assert solution.status == "optimal" and solution.phase_iterations[0] > 0
        assert_inverse(lp, solution.basis)
        assert np.array_equal(start.inverse, given)  # the pivots left the caller's inverse alone

    SHIFTS = [(1, 48, 48, 7, None), (3, 48, 48, 7, None), (1, 24, 23, 7, None), (2, 24, 20, 7, None),
              (1, 24, 20, 14, None), (1, 48, 30, 5, None), (1, 48, 48, 8, 300)]

    @pytest.mark.parametrize("k, T, later_T, at, n_scenarios", SHIFTS,
                             ids=["-".join(str(v) for v in case if v is not None) for case in SHIFTS])
    def test_shifted_inverse_is_the_inverse(self, k, T, later_T, at, n_scenarios):
        """Steps shifted out, new steps appended or the horizon shrinking;
        ``1-24-20-14`` and ``1-48-30-5`` drop steps at the end whose rows
        kept entries reach, so the Schur complement has a correction to
        make.  In the stochastic ``1-48-48-8-300``, a basic SOC column of the shifted-out step crosses into a kept
        row, so that step held more basic entries than rows, and the column
        stands as the logical of that row."""
        source = dispatch_lp(T, n_scenarios=n_scenarios, start=at - k)
        target = dispatch_lp(later_T, n_scenarios=n_scenarios, start=at)
        basis = solve_lp(source).basis
        if n_scenarios is not None:
            first = np.concatenate([source.meta["columns"][q][..., 0].ravel() for q in ("grid", "gen", "charge", "discharge", "soc")])
            rows = np.concatenate([source.meta["rows"][q][..., 0].ravel() for q in ("dynamics", "balance")])
            assert np.count_nonzero(basis.cols[first] == BASIC) + np.count_nonzero(basis.rows[rows] == BASIC) > rows.size
        start = shift_basis(basis, source, target, k)
        assert_inverse(target, start)
        got = solve_lp(target, SolveOptions(basis=start))
        assert got.warm_start == "accepted" and got.start_inverse == "carried" and got.status == "optimal"

    def test_artificial_basic_at_the_end_carries_none(self):
        """Phase 1 ends with its artificial column basic at zero, so the final
        basis names a row logical in its place and hands on no inverse."""
        lp = _build(np.array([-1.0, 1.0]), np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.0, 2.0]),
                    np.array([0.0, 2.0]), np.zeros(2), np.ones(2))
        cold = solve_lp(lp)
        assert cold.status == "optimal" and cold.phase_iterations[0] > 0
        assert cold.basis.inverse is None and basic_count(cold.basis) == lp.n_rows
        got = solve_lp(lp, SolveOptions(basis=cold.basis))
        assert got.warm_start == "accepted" and got.start_inverse == "none carried"
        assert np.array_equal(got.x, cold.x)

    @pytest.mark.parametrize("wrong, outcome", [("drifted", "inaccurate"), ("shape", "none carried")])
    def test_inaccurate_inverse_is_refused(self, wrong, outcome):
        """An inverse 1e-8 off in every entry misses the check; one of the
        wrong shape is not taken."""
        lp, start = shifted_start(48, initial_soc=0.5)
        inverse = start.inverse + 1e-8 if wrong == "drifted" else start.inverse[:-1]
        start = Basis(start.cols, start.rows, inverse)
        got = solve_lp(lp, SolveOptions(basis=start))
        assert got.warm_start == "accepted" and got.start_inverse == outcome
        self._as_without_inverse(lp, start, got)

    def test_singular_inner_block_carries_none(self):
        """A shrinking horizon drops steps at the end whose rows kept entries
        reach, so the Schur complement needs its inner block: zeroed, ``inv``
        cannot invert it."""
        source, target = dispatch_lp(24, start=13), dispatch_lp(20, start=14)
        basis = solve_lp(source).basis
        assert_inverse(target, shift_basis(basis, source, target, 1))
        status = np.concatenate([basis.cols, basis.rows])
        kept = np.zeros(status.size, dtype=bool)
        for q in ("grid", "gen", "charge", "discharge", "soc"):
            kept[source.meta["columns"][q][..., 1:21]] = True
        rows = np.concatenate([source.meta["rows"][q][..., 1:21].ravel() for q in ("dynamics", "balance")])
        kept[source.n_cols + rows] = True
        dropped_rows = np.setdiff1d(np.arange(source.n_rows), rows)
        inverse = basis.inverse.copy()
        inverse[np.ix_(np.flatnonzero(~kept[status == BASIC]), dropped_rows)] = 0.0
        start = shift_basis(Basis(basis.cols, basis.rows, inverse), source, target, 1)
        assert start.inverse is None
        got = solve_lp(target, SolveOptions(basis=start))
        assert got.warm_start == "accepted" and got.start_inverse == "none carried"
        self._as_without_inverse(target, start, got)

    def test_block_inverse_refuses_a_numerically_singular_block(self):
        """``inv`` inverts a block one ulp from singular without raising; its
        1-norm condition number, about 1.8e16, reaches ``1 / (n eps)``."""
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])
        assert np.all(np.isfinite(np.linalg.inv(near)))
        assert build_module._block_inverse(near) is None
        assert build_module._block_inverse(np.full((2, 2), np.nan)) is None
        well = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(build_module._block_inverse(well), np.linalg.inv(well))

    def test_added_entry_in_a_kept_row_carries_none(self):
        """The entries a shift adds border the kept block only when none of
        them has an entry in a kept row.  ``shift_basis`` adds only the new
        step's columns, so the start here is made by hand: a storage's SOC
        of the last kept step, nonbasic there, enters in place of its SOC of
        the new step.  Both have an entry in the new step's dynamics row, so
        the new rows alone would still look invertible."""
        source, target = dispatch_lp(24, start=6), dispatch_lp(24, start=7)
        basis = solve_lp(source).basis
        start = shift_basis(basis, source, target, 1)
        assert start.inverse is not None
        cols = start.cols.copy()
        soc = target.meta["columns"]["soc"]
        s = np.flatnonzero(cols[soc[:, -2]] != BASIC)[0]
        cols[soc[s, -2]], cols[soc[s, -1]] = BASIC, AT_LO
        maps = build_module._shift_maps(24, 24, 1, len(target.meta["generators"]), len(target.meta["storages"]))
        assert build_module._shift_inverse(basis, maps, maps.entry_to, target, cols, start.rows) is None


@pytest.mark.parametrize("warm", [True, False], ids=["shifted", "cold"])
def test_shared_augmented_matrix_solves_as_the_triplets(warm):
    """A built program solves on the builder's shared ``[A  -I]`` with the
    bits of the same program solved on one built from its triplets."""
    lp, start = shifted_start(48, initial_soc=0.5)
    options = SolveOptions(basis=start) if warm else SolveOptions()
    got = solve_lp(lp, options)
    own = replace(lp)  # a copy drops the shared matrix
    ref = solve_lp(own, options)
    assert lp.augmented is not None and own.augmented is None
    assert got.status == "optimal" and got.phase_iterations[0] > 0
    assert got.start_inverse == ("carried" if warm else None)
    for part in ("warm_start", "start_inverse", "phase_iterations"):
        assert getattr(got, part) == getattr(ref, part), part
    for part in ("cols", "rows", "inverse"):
        assert getattr(got.basis, part).tobytes() == getattr(ref.basis, part).tobytes(), part
    assert got.x.tobytes() == ref.x.tobytes()


def test_replaced_triplets_are_the_ones_solved():
    """A program copied with new triplets drops the shared ``[A  -I]`` and
    solves its own triplets, not the matrix of the program it came from."""
    lp = dispatch_lp(24)
    doubled = replace(lp, a_vals=2 * lp.a_vals)
    assert doubled.augmented is None
    assert solve_lp(lp).objective == pytest.approx(1.5022, abs=5e-5)
    assert solve_lp(doubled).objective == pytest.approx(0.1937, abs=5e-5)


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
    """Objective against HiGHS; x checked against rows and bounds, solved
    cold and warm-started from the neighbouring window's shifted basis.  The
    programs are degenerate, so the vertices may differ."""
    lp, start = shifted_start(T, initial_soc=0.5)
    res = _highs(lp, lp.c)
    for got in (solve_lp(lp), solve_lp(lp, SolveOptions(basis=start))):
        assert got.status == "optimal"
        assert abs(got.objective - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
        activity = lp.dense() @ got.x
        assert np.all(activity >= lp.row_lo - 1e-7) and np.all(activity <= lp.row_up + 1e-7)
        assert np.all(got.x >= lp.col_lo - 1e-7) and np.all(got.x <= lp.col_up + 1e-7)
    assert got.warm_start == "accepted"


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
