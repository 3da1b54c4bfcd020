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
"""

from __future__ import annotations

import numpy as np

from ..domain import DispatchPlan, ProblemInstance
from ..scenario import Forecasts, ScenarioSet
from .lp import ColumnName, LinearProgram, LPBuilder, LPSolution


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
    chg, dis, soc = {}, {}, {}
    for si, s in enumerate(instance.storages):
        for t in range(T):
            chg[si, t] = b.add_col(ColumnName("charge", s.id, t), 0.0, s.p_charge_max)
            dis[si, t] = b.add_col(ColumnName("discharge", s.id, t), 0.0, s.p_discharge_max)
            soc[si, t] = b.add_col(ColumnName("soc", s.id, t), s.e_min, s.e_max)
        for t in range(T):
            entries = [(soc[si, t], 1.0), (chg[si, t], -dt), (dis[si, t], dt)]
            if t == 0:
                b.add_row(entries, s.e_initial, s.e_initial)
            else:
                entries.append((soc[si, t - 1], -1.0))
                b.add_row(entries, 0.0, 0.0)
    return gen, chg, dis


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
    gen, chg, dis = _add_shared_columns(b, instance, forecasts.solar, T)
    district_load = forecasts.load.sum(axis=0)
    for t in range(T):
        entries = [(grid_cols[t], 1.0)]
        entries += [(gen[gi, t], 1.0) for gi in range(len(instance.generators))]
        entries += [(dis[si, t], 1.0) for si in range(len(instance.storages))]
        entries += [(chg[si, t], -1.0) for si in range(len(instance.storages))]
        b.add_row(entries, float(district_load[t]), float(district_load[t]))
    meta = _meta(instance, T, n_scenarios=0)
    meta["columns"] = _column_arrays(grid_cols, gen, chg, dis, instance, T)
    return b.build(meta=meta)


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


def _column_arrays(grid_ids, gen, chg, dis, instance, T) -> dict:
    G, S = len(instance.generators), len(instance.storages)
    return {
        "grid": np.asarray(grid_ids, dtype=np.int64),
        "gen": np.array([[gen[gi, t] for t in range(T)] for gi in range(G)], dtype=np.int64).reshape(G, T),
        "charge": np.array([[chg[si, t] for t in range(T)] for si in range(S)], dtype=np.int64).reshape(S, T),
        "discharge": np.array([[dis[si, t] for t in range(T)] for si in range(S)], dtype=np.int64).reshape(S, T),
    }


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
