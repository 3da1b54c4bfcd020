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
The weights are drawn once per (storages, generators, steps) shape.

Every program has the same layout, recorded in ``meta["columns"]`` and
``meta["rows"]``: one column per quantity, device and step, one SOC
dynamics row per storage and step, one balance row per step.  Successive
re-plans of a rolling horizon are the same program one step on, so
``shift_basis`` carries the optimal basis of one into a start basis for the
next by index arithmetic over that layout.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from ..domain import DispatchPlan, ProblemInstance
from ..scenario import Forecasts, ScenarioSet
from .lp import AT_LO, BASIC, Basis, ColumnName, LinearProgram, LPBuilder, LPSolution, invert_basis

COLUMN_QUANTITIES = ("grid", "gen", "charge", "discharge", "soc")
ROW_KINDS = ("dynamics", "balance")


def _check_horizon(instance: ProblemInstance, *series: np.ndarray) -> int:
    T = instance.n_steps
    for s in series:
        if np.asarray(s).shape[-1] != T:
            raise ValueError(f"forecast length {np.asarray(s).shape[-1]} != horizon {T}")
    return T


def _add_shared_columns(b: LPBuilder, instance: ProblemInstance, gen_caps: np.ndarray, T: int):
    """Generation, charge, discharge and SOC columns plus SOC dynamics rows."""
    dt = instance.grid.step_hours
    gen = {}
    for gi, g in enumerate(instance.generators):
        for t in range(T):
            up = min(g.p_max_capacity, float(gen_caps[gi, t]))
            gen[gi, t] = b.add_col(ColumnName("gen", g.id, t), float(g.p_min[t]), up)
    chg, dis, soc, dyn = {}, {}, {}, {}
    for si, s in enumerate(instance.storages):
        for t in range(T):
            chg[si, t] = b.add_col(ColumnName("charge", s.id, t), 0.0, s.p_charge_max)
            dis[si, t] = b.add_col(ColumnName("discharge", s.id, t), 0.0, s.p_discharge_max)
            soc[si, t] = b.add_col(ColumnName("soc", s.id, t), s.e_min, s.e_max)
        for t in range(T):
            entries = [(soc[si, t], 1.0), (chg[si, t], -dt), (dis[si, t], dt)]
            if t == 0:
                dyn[si, t] = b.add_row(entries, s.e_initial, s.e_initial)
            else:
                entries.append((soc[si, t - 1], -1.0))
                dyn[si, t] = b.add_row(entries, 0.0, 0.0)
    return gen, chg, dis, soc, dyn


@lru_cache(maxsize=256)
def _tiebreak_weights(S: int, G: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform draws behind the tie-break weights, shape (2, S, T) for
    charge and discharge and (G, T) for generation; read-only, shared by
    every program of the shape."""
    rng = np.random.default_rng(0)
    u = rng.uniform(size=(2, S, T))
    v = rng.uniform(size=(G, T))
    u.flags.writeable = v.flags.writeable = False
    return u, v


def build_deterministic(instance: ProblemInstance, forecasts: Forecasts) -> LinearProgram:
    """Single-scenario program over the instance horizon.

    ``forecasts`` supplies solar capacity per generator, load per building
    and price per step; realized series can be passed for a clairvoyant
    plan.
    """
    T = _check_horizon(instance, forecasts.solar, forecasts.load, forecasts.price)
    b = LPBuilder()
    grid_cols = [
        b.add_col(ColumnName("grid", "", t), 0.0, np.inf, float(forecasts.price[t])) for t in range(T)
    ]
    gen, chg, dis, soc, dyn = _add_shared_columns(b, instance, forecasts.solar, T)
    district_load = forecasts.load.sum(axis=0)
    balance = []
    for t in range(T):
        entries = [(grid_cols[t], 1.0)]
        entries += [(gen[gi, t], 1.0) for gi in range(len(instance.generators))]
        entries += [(dis[si, t], 1.0) for si in range(len(instance.storages))]
        entries += [(chg[si, t], -1.0) for si in range(len(instance.storages))]
        balance.append(b.add_row(entries, float(district_load[t]), float(district_load[t])))
    meta = _meta(instance, T, n_scenarios=0)
    G, S = len(instance.generators), len(instance.storages)
    columns = meta["columns"] = {
        "grid": np.asarray(grid_cols, dtype=np.int64),
        "gen": _index_grid(gen, G, T),
        "charge": _index_grid(chg, S, T),
        "discharge": _index_grid(dis, S, T),
        "soc": _index_grid(soc, S, T),
    }
    meta["rows"] = {"dynamics": _index_grid(dyn, S, T), "balance": np.asarray(balance, dtype=np.int64)}
    u, v = _tiebreak_weights(S, G, T)
    tiebreak = np.zeros(len(b.c))
    tiebreak[columns["charge"]] = 1.0 + u[0]
    tiebreak[columns["discharge"]] = 1.0 + u[1]
    tiebreak[columns["gen"]] = 1.0 + v
    return b.build(meta=meta, tiebreak=tiebreak)


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


def _index_grid(index: dict, D: int, T: int) -> np.ndarray:
    """The (D, T) array of the column or row indices ``index[d, t]``."""
    return np.array([[index[d, t] for t in range(T)] for d in range(D)], dtype=np.int64).reshape(D, T)


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
    """
    src, dst = source.meta, target.meta
    T0, T1 = src["T"], dst["T"]
    if not 0 <= k < T0 or (src["generators"], src["storages"]) != (dst["generators"], dst["storages"]):
        return None
    keep = min(T0 - k, T1)  # steps the two programs share
    cols = np.full(target.n_cols, AT_LO, dtype=np.int64)
    rows = np.full(target.n_rows, AT_LO, dtype=np.int64)
    for q in COLUMN_QUANTITIES:
        cols[dst["columns"][q][..., :keep]] = basis.cols[src["columns"][q][..., k : k + keep]]
    for q in ROW_KINDS:
        rows[dst["rows"][q][..., :keep]] = basis.rows[src["rows"][q][..., k : k + keep]]
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
    return Basis(cols, rows)


def _nonsingular(lp: LinearProgram, cols: np.ndarray, rows: np.ndarray) -> bool:
    """Whether the columns and logicals marked basic form a basis of ``lp``."""
    m = lp.n_rows
    B = np.concatenate([lp.dense()[:, cols == BASIC], -np.eye(m)[:, rows == BASIC]], axis=1)
    return B.shape[1] == m and invert_basis(B) is not None


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
    soc = np.zeros_like(p_charge)
    for si, e0 in enumerate(meta["e_initial"]):
        level = e0
        for t in range(T):
            level = level + dt * (p_charge[si, t] - p_discharge[si, t])
            soc[si, t] = level

    return DispatchPlan(
        p_grid=np.maximum(p_grid, 0.0),
        p_gen=p_gen,
        p_charge=p_charge,
        p_discharge=p_discharge,
        soc=soc,
    )
