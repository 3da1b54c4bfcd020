"""Dispatch model builders: deterministic and two-stage stochastic programs.

The deterministic program minimizes the priced grid draw subject to device
bounds, state-of-charge dynamics and per-step power balance.  The battery
model here is deliberately nominal (unit efficiency): the simulator's true
physics may differ, and the rolling horizon absorbs the mismatch.

The stochastic program shares generation, storage and state-of-charge
decisions across scenarios (here-and-now) while the grid draw is a
per-scenario recourse variable; the objective averages the scenario-priced
recourse.  Generation stays below its capacity realization in every
scenario.  The only scenario-indexed variable is a nonnegative, linearly
priced draw that each balance row pins down, so the program is built as the
deterministic one over three scenario statistics: the mean price, the
per-step minimum district load and the per-generator minimum solar cap.
Its size is independent of the scenario count; the constant it drops from
the objective and the gap to the scenario-average draw travel in ``meta``.

Charge/discharge exclusivity is not representable in an LP; it is omitted
here and repaired exactly in ``extract_plan`` by netting the two flows,
which changes neither the state-of-charge trajectory nor the objective.

The programs are dual-degenerate: under a price-only objective many battery
schedules cost the same, and which one a simplex returns would depend on
its pivot order.  Every program therefore carries a secondary cost
(``LinearProgram.tiebreak``) of ``1 + u`` on each charge, discharge and
generation column, ``u`` uniform on [0, 1) from a fixed seed, and the
solver minimizes it over the price optima: the least battery throughput
and generation among the cheapest plans.  The generation weights pin how
the output splits between generators, which price alone leaves open; they
share the battery weights' sign, so the secondary cost never pays the
battery to absorb solar that earns nothing.  The weights are generic on
purpose: weights that are linear in the step index (``1 + t/T``,
golden-ratio grades) tie again on sums such as steps 1 + 54 and 6 + 49,
and those ties let the pivot order choose the first-step action again.
A weight belongs to its absolute step (``instance.grid.start_index``
plus the step in the window), not to its place in the window: the
weights of step ``t`` are row ``t`` of one ``default_rng(0)`` table per
(storages, generators) shape.  Two re-plans a step apart then break ties
the same way on every step they share, so the previous plan's shifted
basis stays close to the new tie-break optimum and phase 3 has little
left to do.

Every program has the same layout, recorded in ``meta["columns"]`` and
``meta["rows"]``: one column per quantity, device and step, one SOC
dynamics row per storage and step, one balance row per step.  The builder
computes every index of that layout, and the bounds, costs and triplets
over it, with array arithmetic; nothing is appended one entry at a time.
The triplets and the augmented matrix ``[A  -I]`` depend only on the
shape (steps, generators, storages and step length): ``_template`` builds
them once per shape, read-only, and every program of that shape shares
them, so a re-plan computes only its costs, bounds and tie-break.  Only
the latest shape is kept.  The program is validated where it is solved.
Successive re-plans of a rolling horizon are the same program one step on, so
``shift_basis`` carries the optimal basis of one into a start basis for the
next by index arithmetic over that layout, and the inverse of its basis
matrix with it (``_shift_inverse``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ..domain import DispatchPlan, ProblemInstance
from ..scenario import Forecasts, ScenarioSet
from .lp import AT_LO, BASIC, Basis, LinearProgram, LPSolution, augmented_system, invert_basis

COLUMN_QUANTITIES = ("grid", "gen", "charge", "discharge", "soc")
ROW_KINDS = ("dynamics", "balance")


def _check_horizon(instance: ProblemInstance, *series: np.ndarray) -> int:
    T = instance.n_steps
    for s in series:
        if np.asarray(s).shape[-1] != T:
            raise ValueError(f"forecast length {np.asarray(s).shape[-1]} != horizon {T}")
    return T


_TIEBREAK_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _tiebreak_table(S: int, G: int, steps: int) -> np.ndarray:
    """The uniform draws behind the tie-break weights of absolute steps
    ``0 .. steps - 1`` and perhaps more: row ``t`` holds step ``t``'s charge
    draws for storages ``0 .. S-1``, then its discharge draws, then its
    generation draws.  The table is the ``default_rng(0)`` draw of shape
    ``(rows, 2S + G)``, a prefix of one stream, so a table grown to more rows
    keeps every row it had.  Read-only and shared per (S, G); it grows by
    doubling."""
    table = _TIEBREAK_TABLES.get((S, G))
    if table is None or table.shape[0] < steps:
        table = np.random.default_rng(0).uniform(size=(1 << (steps - 1).bit_length(), 2 * S + G))
        table.flags.writeable = False
        _TIEBREAK_TABLES[S, G] = table
    return table


@lru_cache(maxsize=64)
def _layout(T: int, G: int, S: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The column of every (quantity, device, step) and the row of every
    (kind, storage, step) of a program of T steps over G generators and S
    storages, as ``build_deterministic`` lays it out; read-only and shared
    by every program of the shape."""
    steps = np.arange(T)
    chg = T + G * T + 3 * T * np.arange(S)[:, None] + 3 * steps
    columns = {"grid": steps, "gen": T + T * np.arange(G)[:, None] + steps, "charge": chg,
               "discharge": chg + 1, "soc": chg + 2}
    rows = {"dynamics": T * np.arange(S)[:, None] + steps, "balance": S * T + steps}
    for index in (*columns.values(), *rows.values()):
        index.flags.writeable = False
    return columns, rows


class _Template(NamedTuple):
    """The part of a program that depends on its shape alone: the triplets
    and the augmented matrix ``[A  -I]`` the solver works on."""

    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    augmented: np.ndarray


@lru_cache(maxsize=1)
def _template(T: int, G: int, S: int, dt: float) -> _Template:
    """The triplets of a program of T steps over G generators and S
    storages with steps of ``dt`` hours, laid out by ``_layout``, and its
    augmented matrix, built from them by ``augmented_system``, as for a
    program that carries none; read-only and shared by every program of
    the shape.  Only the latest shape is kept: a rolling horizon re-plans
    at one shape until its last steps, where each shorter shape is built
    once."""
    columns, rows = _layout(T, G, S)
    grid, gen, chg, dis, soc = (columns[q] for q in COLUMN_QUANTITIES)
    dyn, balance = (rows[q] for q in ROW_KINDS)
    n, m = T + G * T + 3 * S * T, S * T + T
    # the SOC of step t-1 sits three columns before that of step t; step 0 has none
    terms = np.ones((S, T, 4), dtype=bool)
    terms[:, 0, 3] = False
    dyn_cols = np.stack([soc, chg, dis, soc - 3], axis=-1)[terms]
    dyn_vals = np.broadcast_to(np.array([1.0, -dt, dt, -1.0]), (S, T, 4))[terms]
    bal_cols = np.concatenate([grid[:, None], gen.T, dis.T, chg.T], axis=1)
    bal_vals = np.concatenate([np.ones(1 + G + S), np.full(S, -1.0)])
    a_rows = np.concatenate([np.repeat(dyn.ravel(), 4)[terms.ravel()], np.repeat(balance, bal_cols.shape[1])])
    a_cols = np.concatenate([dyn_cols, bal_cols.ravel()])
    a_vals = np.concatenate([dyn_vals, np.tile(bal_vals, T)])
    template = _Template(a_rows, a_cols, a_vals, augmented_system(m, n, a_rows, a_cols, a_vals))
    for array in template:
        array.flags.writeable = False
    return template


class _ShiftMaps(NamedTuple):
    """Where each column, row and basic entry (columns, then row logicals)
    of a program lands in the program built ``k`` steps later over the same
    devices, -1 when shifted out; and, over the later program's rows, which
    are new and which row of the earlier one each of the others was."""

    col_to: np.ndarray
    row_to: np.ndarray
    entry_to: np.ndarray
    new_row: np.ndarray
    row_from: np.ndarray  # 0 on a new row


@lru_cache(maxsize=8)
def _shift_maps(T0: int, T1: int, k: int, G: int, S: int) -> _ShiftMaps:
    """The maps from the program of ``T0`` steps to the one of ``T1`` steps
    built ``k`` steps later over G generators and S storages; read-only."""
    (src_cols, src_rows), (dst_cols, dst_rows) = _layout(T0, G, S), _layout(T1, G, S)
    keep = min(T0 - k, T1)  # steps the two programs share
    col_to = np.full(T0 * (1 + G + 3 * S), -1, dtype=np.int64)
    row_to = np.full(T0 * (S + 1), -1, dtype=np.int64)
    for q in COLUMN_QUANTITIES:
        col_to[src_cols[q][..., k : k + keep]] = dst_cols[q][..., :keep]
    for q in ROW_KINDS:
        row_to[src_rows[q][..., k : k + keep]] = dst_rows[q][..., :keep]
    kept = row_to >= 0
    entry_to = np.concatenate([col_to, np.where(kept, T1 * (1 + G + 3 * S) + row_to, -1)])
    new_row = np.ones(T1 * (S + 1), dtype=bool)
    new_row[row_to[kept]] = False
    row_from = np.zeros(new_row.size, dtype=np.int64)
    row_from[row_to[kept]] = np.flatnonzero(kept)
    maps = _ShiftMaps(col_to, row_to, entry_to, new_row, row_from)
    for index in maps:
        index.flags.writeable = False
    return maps


def build_deterministic(instance: ProblemInstance, forecasts: Forecasts) -> LinearProgram:
    """Single-scenario program over the instance horizon.

    ``forecasts`` supplies solar capacity per generator, load per building
    and price per step; realized series can be passed for a clairvoyant
    plan.

    Columns: the grid draw per step, then each generator's output per step,
    then per storage its charge, discharge and SOC, interleaved step by
    step.  Rows: SOC dynamics per storage and step, then one balance row per
    step.  The triplets run row by row in the order of the row's terms:
    ``soc_t - dt charge_t + dt discharge_t - soc_t-1``, then
    ``grid_t + gens_t + discharges_t - charges_t``.
    """
    T = _check_horizon(instance, forecasts.solar, forecasts.load, forecasts.price)
    G, S = len(instance.generators), len(instance.storages)
    columns, rows = _layout(T, G, S)
    grid, gen, chg, dis, soc = (columns[q] for q in COLUMN_QUANTITIES)
    dyn, balance = (rows[q] for q in ROW_KINDS)
    n, m = T + G * T + 3 * S * T, S * T + T

    c = np.zeros(n)
    c[grid] = forecasts.price
    col_lo, col_up = np.zeros(n), np.empty(n)
    col_up[grid] = np.inf
    gens, stores = instance.generators, instance.storages
    col_lo[gen] = np.array([g.p_min for g in gens], dtype=np.float64).reshape(G, T)
    cap = np.array([g.p_max_capacity for g in gens], dtype=np.float64)[:, None]
    solar = np.asarray(forecasts.solar, dtype=np.float64)[:G]  # generator g is building g's PV
    col_up[gen] = np.where(solar < cap, solar, cap)  # min(cap, solar) keeps cap on a tie, as Python's min
    col_up[chg] = np.array([s.p_charge_max for s in stores], dtype=np.float64)[:, None]
    col_up[dis] = np.array([s.p_discharge_max for s in stores], dtype=np.float64)[:, None]
    col_lo[soc] = np.array([s.e_min for s in stores], dtype=np.float64)[:, None]
    col_up[soc] = np.array([s.e_max for s in stores], dtype=np.float64)[:, None]

    row_lo = np.zeros(m)
    row_lo[dyn[:, 0]] = [s.e_initial for s in stores]
    row_lo[balance] = forecasts.load.sum(axis=0)

    t0 = instance.grid.start_index
    if t0 < 0:
        raise ValueError(f"tie-break weights need a step index >= 0, not {t0}")
    u = _tiebreak_table(S, G, t0 + T)[t0 : t0 + T].T  # (2S + G, T)
    tiebreak = np.zeros(n)
    tiebreak[chg] = 1.0 + u[:S]
    tiebreak[dis] = 1.0 + u[S : 2 * S]
    tiebreak[gen] = 1.0 + u[2 * S :]

    meta = _meta(instance, T, n_scenarios=0)
    meta["columns"] = dict(columns)
    meta["rows"] = dict(rows)
    template = _template(T, G, S, instance.grid.step_hours)
    lp = LinearProgram(
        c=c,
        a_rows=template.a_rows,
        a_cols=template.a_cols,
        a_vals=template.a_vals,
        row_lo=row_lo,
        row_up=row_lo.copy(),
        col_lo=col_lo,
        col_up=col_up,
        meta=meta,
        tiebreak=tiebreak,
    )
    lp.augmented = template.augmented
    return lp


def build_stochastic(instance: ProblemInstance, scenarios: ScenarioSet) -> LinearProgram:
    """Two-stage program, collapsed to the deterministic program over its
    scenario statistics.

    Scenario n's balance row fixes its recourse draw at
    ``grid_n,t = L_n,t - net_t``, where ``net_t`` is the shared generation
    plus discharge minus charge.  The draw must stay nonnegative and is
    priced linearly at ``p_n,t / N``, so the program is exactly
    ``min sum_t pbar_t (L_min,t - net_t)`` subject to ``net_t <= L_min,t``,
    plus the constant ``mean_n(p_n . L_n) - pbar . L_min``, with ``pbar``
    the scenario-mean price and ``L_min`` the per-step minimum district
    load (simple recourse).  Generation is capped at the per-generator
    minimum capacity.  The program size does not depend on N.

    ``meta`` carries the constant as ``objective_offset`` and the per-step
    gap ``mean_n L_n,t - L_min,t`` as ``grid_shift``: the two-stage expected
    cost is ``solution.objective + objective_offset``, and ``extract_plan``
    reports the scenario-average draw.
    """
    N = scenarios.n_scenarios
    if N < 1:
        raise ValueError("scenario set is empty")
    # summed sequentially in scenario order (np.mean sums pairwise), the
    # order in which substituting out the N*T program's grid columns
    # accumulates their costs, so both programs reduce to the same bits
    price = np.cumsum(scenarios.price / N, axis=0)[-1]
    district = scenarios.load.sum(axis=1)  # (N, T)
    load_min = district.min(axis=0)
    # one aggregate "building" carries the district load; the builder only sums loads
    stats = Forecasts(solar=scenarios.solar.min(axis=0), load=load_min[None, :], price=price)
    lp = build_deterministic(instance, stats)
    lp.meta.update(
        n_scenarios=N,
        objective_offset=float(np.mean(np.sum(scenarios.price * district, axis=1)) - price @ load_min),
        grid_shift=district.mean(axis=0) - load_min,
    )
    return lp


def _meta(instance: ProblemInstance, T: int, n_scenarios: int) -> dict:
    return {
        "T": T,
        "dt": instance.grid.step_hours,
        "generators": [g.id for g in instance.generators],
        "storages": [s.id for s in instance.storages],
        "e_initial": [s.e_initial for s in instance.storages],
        "n_scenarios": n_scenarios,
        "objective_offset": 0.0,
        "grid_shift": np.zeros(T),
    }


def shift_basis(basis: Basis, source: LinearProgram, target: LinearProgram, k: int) -> Basis | None:
    """A start basis for ``target`` from the optimal ``basis`` of ``source``,
    the program built ``k`` steps earlier over the same devices; None when
    the two share no step (``k >= T`` of ``source``) or not their devices.

    Column ``(q, d, t)`` of ``source`` becomes column ``(q, d, t - k)`` of
    ``target``, and rows map the same way.  The rows of each step that
    ``target`` adds at its end take that step's grid and SOC columns into
    the basis.  The steps shifted out may have held more basic columns than
    rows.  The extra ones can only be SOC columns of step ``k - 1``: those
    are the only shifted-out columns with an entry in a kept row, the first
    dynamics row, where that SOC is now the constant initial SOC.  On the
    kept rows such a column is the logical column of that row, so as many
    of those logicals as the basis lacks enter it, the first combination
    of them that leaves the basis nonsingular.  The solver rejects a basis
    that still comes out of the wrong size or singular.

    When ``basis`` carries its inverse and the steps shifted out held as
    many basic entries as rows, the start basis carries the inverse that
    ``_shift_inverse`` derives from it.
    """
    src, dst = source.meta, target.meta
    T0, T1 = src["T"], dst["T"]
    if not 0 <= k < T0 or (src["generators"], src["storages"]) != (dst["generators"], dst["storages"]):
        return None
    keep = min(T0 - k, T1)  # steps the two programs share
    maps = _shift_maps(T0, T1, k, len(src["generators"]), len(src["storages"]))
    col_to, row_to = maps.col_to, maps.row_to
    cols = np.full(target.n_cols, AT_LO, dtype=np.int64)
    rows = np.full(target.n_rows, AT_LO, dtype=np.int64)
    cols[col_to[col_to >= 0]] = basis.cols[col_to >= 0]
    rows[row_to[row_to >= 0]] = basis.rows[row_to >= 0]
    cols[dst["columns"]["grid"][keep:]] = BASIC
    cols[dst["columns"]["soc"][:, keep:]] = BASIC

    short = target.n_rows - np.count_nonzero(cols == BASIC) - np.count_nonzero(rows == BASIC)
    if short > 0 and k:
        first = dst["rows"]["dynamics"][:, 0]
        crossing = (basis.cols[src["columns"]["soc"][:, k - 1]] == BASIC) & (rows[first] != BASIC)
        choices = [list(pick) for pick in combinations(first[crossing], short)]
        for pick in choices:
            was = rows[pick]
            rows[pick] = BASIC
            if pick is choices[-1] or _nonsingular(target, cols, rows):
                break
            rows[pick] = was
    inverse = None
    if basis.inverse is not None and short == 0:
        inverse = _shift_inverse(basis, maps, target, cols, rows)
    return Basis(cols, rows, inverse)


def _shift_inverse(basis: Basis, maps: _ShiftMaps, target: LinearProgram, cols: np.ndarray,
                   rows: np.ndarray) -> np.ndarray | None:
    """The inverse of ``target``'s basis matrix at ``cols``/``rows`` from
    ``basis.inverse``, that of the source program's basis, whose entries
    and rows land in ``target`` by ``maps``; None when it cannot be
    derived.

    Let ``M`` be the source inverse, its rows over the basic entries (kept
    ``K``, shifted out ``C0``) and its columns over the rows (kept ``Rk``,
    shifted out ``R0``).  The kept entries on the kept rows form the same
    block in both programs, with the same coefficients, and its inverse is
    the Schur complement ``M[K,Rk] - M[K,R0] M[C0,R0]^-1 M[C0,Rk]`` (Maros,
    *Computational Techniques of the Simplex Method*, 2003, ch. 8), which
    needs ``|C0| = |R0|`` and an inner block that ``inv`` can invert.  When
    no kept entry reaches a shifted-out row, the source basis matrix is
    block lower-triangular, ``M[C0,Rk]`` is zero and there is nothing to
    correct; that is the common case.  The entries that ``target``'s new
    steps bring have no entry in a kept row, so they border that block
    lower-triangularly: with ``Y`` and ``Z`` the kept and new entries on
    the new rows, the new rows of the inverse are ``-Z^-1 Y X`` on the kept
    rows and ``Z^-1`` on the new ones, ``X`` the kept block's inverse.  The
    solver checks the result before use."""
    n1, m1 = target.n_cols, target.n_rows
    M, new_row = basis.inverse, maps.new_row
    moved = maps.entry_to[np.flatnonzero(np.concatenate([basis.cols, basis.rows]) == BASIC)]
    K, C0 = np.flatnonzero(moved >= 0), np.flatnonzero(moved < 0)
    R0 = np.flatnonzero(maps.row_to < 0)
    entries = np.flatnonzero(np.concatenate([cols, rows]) == BASIC)
    if C0.size != R0.size or M.shape != (moved.size, maps.row_to.size) or entries.size != m1:
        return None
    pos = np.full(n1 + m1, -1, dtype=np.int64)  # the place of each basic entry of target
    pos[entries] = np.arange(m1)
    kept = pos[moved[K]]
    if np.any(kept < 0):
        return None
    entry_from = np.zeros(m1, dtype=np.int64)  # the source entry behind each kept one
    entry_from[kept] = K
    added = np.ones(m1, dtype=bool)
    added[kept] = False

    # the kept block's inverse, in target's places and zero elsewhere
    out = M.take(maps.row_from, axis=1).take(entry_from, axis=0)
    out[:, new_row] = 0.0
    out[added] = 0.0
    shifted_out = M.take(C0, axis=0)
    crossing = shifted_out.take(maps.row_from, axis=1)  # M[C0,Rk] in target's places
    crossing[:, new_row] = 0.0
    if crossing.any():
        inner = _block_inverse(shifted_out.take(R0, axis=1))
        if inner is None:
            return None
        left = M.take(R0, axis=1).take(entry_from, axis=0)
        left[added] = 0.0
        out -= left @ (inner @ crossing)

    if added.any():
        # the new rows of the basis matrix, read from [A  -I] with the small
        # axis first; the new entries have no entry in a kept row
        A1 = target.augmented_matrix()
        if A1.take(entries[added], axis=1)[~new_row].any():
            return None
        border = A1[new_row].take(entries, axis=1)
        Zinv = _block_inverse(border[:, added])
        if Zinv is None:
            return None
        border[:, added] = 0.0
        bottom = -Zinv @ (border @ out)
        bottom[:, new_row] = Zinv
        out[added] = bottom
    return out


def _block_inverse(B: np.ndarray) -> np.ndarray | None:
    """``inv`` of a block of the shifted inverse, or None when ``inv`` finds
    it singular; the solver's check of the whole inverse catches an
    inaccurate one."""
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None


def _nonsingular(lp: LinearProgram, cols: np.ndarray, rows: np.ndarray) -> bool:
    """Whether the columns and logicals marked basic form a basis of ``lp``."""
    B = lp.augmented_matrix()[:, np.flatnonzero(np.concatenate([cols, rows]) == BASIC)]
    return B.shape[1] == lp.n_rows and invert_basis(B) is not None


def extract_plan(solution: LPSolution, lp: LinearProgram) -> DispatchPlan:
    """Map an optimal solution back to dispatch series and repair
    charge/discharge exclusivity exactly.

    The repair nets the two flows per (storage, step) and rebuilds the SOC
    recursion from the netted flows, so bounds, dynamics and objective are
    untouched while one of the pair becomes exactly zero.  For stochastic
    programs the reported grid draw is the scenario average: the solved
    draw at the minimum district load plus ``meta["grid_shift"]``.
    """
    if solution.status != "optimal":
        raise ValueError(f"cannot extract a plan from a {solution.status} solution")
    meta = lp.meta
    T, dt = meta["T"], meta["dt"]
    gens, stores = meta["generators"], meta["storages"]
    x = solution.x
    columns = meta["columns"]

    p_grid = x[columns["grid"]] + meta["grid_shift"]
    p_gen = x[columns["gen"]].reshape(len(gens), T)
    raw_chg = x[columns["charge"]].reshape(len(stores), T)
    raw_dis = x[columns["discharge"]].reshape(len(stores), T)

    net = raw_chg - raw_dis
    p_charge = np.maximum(net, 0.0)
    p_discharge = np.maximum(-net, 0.0)
    # a left fold from the initial SOC, step by step, as the dynamics rows read
    start = np.array(meta["e_initial"], dtype=np.float64)[:, None]
    soc = np.add.accumulate(np.concatenate([start, dt * (p_charge - p_discharge)], axis=1), axis=1)[:, 1:]

    return DispatchPlan(
        p_grid=np.maximum(p_grid, 0.0),
        p_gen=p_gen,
        p_charge=p_charge,
        p_discharge=p_discharge,
        soc=soc,
    )
