"""Output checks, computed apart from the program.

Each check returns a list of error strings; an empty list means the output
passed.  Nothing here calls the program's own validation, cost or physics
code: the solver check re-solves with HiGHS (``scipy.optimize.linprog``),
and the trajectory, cost and perfect-information checks re-derive their
figures from the raw series of the instance.  scipy is imported here only,
and ``run.py`` imports this module after its timed region.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix, vstack

from vppdispatch.domain import ProblemInstance
from vppdispatch.simulator import PerturbationConfig

FEAS_TOL = 1e-6  # absolute, scaled by 1 + |bound|
OBJ_RTOL = 1e-6
TRAJ_TOL = 1e-7
COST_RTOL = 1e-9
HOURS_PER_MONTH = 720


def _highs(c, A_eq, b_eq, A_ub, b_ub, lo, up) -> tuple[bool, float, str]:
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=np.column_stack([lo, up]), method="highs",
    )
    return res.status == 0, float(res.fun) if res.status == 0 else float("nan"), res.message


def check_program(p) -> list[str]:
    """The in-repo solution of one program against its rows and bounds, and
    its objective against HiGHS.  ``p`` is a ``tracing.SampledProgram``."""
    tag = f"program {p.index}"
    if p.status != "optimal":
        return [f"{tag}: in-repo status {p.status}"]
    m, n = p.row_lo.shape[0], p.c.shape[0]
    A = coo_matrix((p.a_vals, (p.a_rows, p.a_cols)), shape=(m, n)).tocsr()
    x = np.asarray(p.x, dtype=np.float64)
    errors = []

    activity = A @ x
    low = activity < p.row_lo - FEAS_TOL * (1 + np.abs(p.row_lo))
    high = activity > p.row_up + FEAS_TOL * (1 + np.abs(p.row_up))
    if np.any(low | high):
        errors.append(f"{tag}: {int(np.sum(low | high))} rows violated by the in-repo x")
    out = (x < p.col_lo - FEAS_TOL * (1 + np.abs(p.col_lo))) | (x > p.col_up + FEAS_TOL * (1 + np.abs(p.col_up)))
    if np.any(out):
        errors.append(f"{tag}: {int(np.sum(out))} column bounds violated by the in-repo x")
    if abs(float(p.c @ x) - p.objective) > OBJ_RTOL * max(1.0, abs(p.objective)):
        errors.append(f"{tag}: reported objective {p.objective} != c.x {float(p.c @ x)}")

    eq = p.row_lo == p.row_up
    upper = ~eq & np.isfinite(p.row_up)
    lower = ~eq & np.isfinite(p.row_lo)
    A_ub = vstack([A[upper], -A[lower]]).tocsr() if np.any(upper | lower) else None
    b_ub = np.concatenate([p.row_up[upper], -p.row_lo[lower]]) if A_ub is not None else None
    ok, best, message = _highs(
        p.c, A[eq] if np.any(eq) else None, p.row_lo[eq] if np.any(eq) else None,
        A_ub, b_ub, p.col_lo, p.col_up,
    )
    if not ok:
        errors.append(f"{tag}: HiGHS failed ({message})")
    elif abs(p.objective - best) > OBJ_RTOL * max(1.0, abs(best)):
        errors.append(f"{tag}: objective {p.objective!r} vs HiGHS {best!r}")
    return errors


def _efficiencies(window: ProblemInstance, perturb: PerturbationConfig) -> list[tuple[float, float]]:
    return [perturb.efficiency_true.get(s.id, (s.eta_charge, s.eta_discharge)) for s in window.storages]


def check_trajectory(
    window: ProblemInstance,
    perturb: PerturbationConfig,
    charge: np.ndarray,
    discharge: np.ndarray,
    soc: np.ndarray,
    consumption: np.ndarray,
) -> list[str]:
    """Applied actions, SOC and consumption against the true battery physics:
    the SOC recursion with the true efficiencies, SOC and power bounds, no
    simultaneous charge and discharge, and consumption = load - solar +
    charge - discharge (storage i sits in building i)."""
    errors = []
    dt = window.grid.step_hours
    T = window.n_steps
    net = np.zeros((len(window.buildings), T))
    for i, (s, (eta_c, eta_d)) in enumerate(zip(window.storages, _efficiencies(window, perturb))):
        c, d = np.asarray(charge[i]), np.asarray(discharge[i])
        e_max = s.e_max * perturb.capacity_scale
        both = np.flatnonzero((c > 0) & (d > 0))
        if both.size:
            errors.append(f"{s.id}: charges and discharges together at steps {both[:5].tolist()}")
        if np.any(c < 0) or np.any(d < 0) or np.any(c > s.p_charge_max + TRAJ_TOL) or np.any(d > s.p_discharge_max + TRAJ_TOL):
            errors.append(f"{s.id}: power outside [0, p_max]")
        level = s.e_initial
        expected = np.empty(T)
        for t in range(T):
            level = level + eta_c * c[t] * dt - d[t] * dt / eta_d
            expected[t] = level
        gap = np.abs(expected - soc[i])
        if np.any(gap > TRAJ_TOL * (1 + e_max)):
            t = int(np.argmax(gap))
            errors.append(f"{s.id}: SOC {soc[i][t]!r} at step {t} != recursion {expected[t]!r}")
        if np.any(soc[i] < s.e_min - TRAJ_TOL) or np.any(soc[i] > e_max + TRAJ_TOL):
            errors.append(f"{s.id}: SOC outside [{s.e_min}, {e_max}]")
        net[i] = c - d
    for u, b in enumerate(window.buildings):
        expected = np.asarray(b.load) - np.asarray(b.solar_capacity) + net[u]
        gap = np.abs(expected - consumption[u])
        if np.any(gap > TRAJ_TOL * (1 + np.abs(expected))):
            t = int(np.argmax(gap))
            errors.append(f"{b.id}: consumption {consumption[u][t]!r} at step {t} != {expected[t]!r}")
    return errors


def expected_costs(window: ProblemInstance, consumption: np.ndarray) -> dict[str, float]:
    """Emission (floored per building), price (floored per district) and grid
    (half ramping plus half the summed monthly mean/max ratio) costs."""
    consumption = np.asarray(consumption, dtype=np.float64)
    district = consumption.sum(axis=0)
    price = np.asarray(window.market.price)
    carbon = np.asarray(window.market.carbon_intensity)
    month = (window.grid.start_index + np.arange(window.n_steps)) // HOURS_PER_MONTH
    load_factor = 0.0
    for m in np.unique(month):
        chunk = district[month == m]
        peak = chunk.max()
        load_factor += 1.0 if peak == 0.0 else max(chunk.mean() / peak, 0.0)
    return {
        "emission": float((np.clip(consumption, 0.0, None).sum(axis=0) * carbon).sum()),
        "price": float((np.clip(district, 0.0, None) * price).sum()),
        "grid": 0.5 * (float(np.abs(np.diff(district)).sum()) + load_factor),
    }


def check_costs(window: ProblemInstance, consumption: np.ndarray, costs) -> list[str]:
    """``costs`` (a ``CostBreakdown``) against the costs recomputed here."""
    errors = []
    for name, value in expected_costs(window, consumption).items():
        got = getattr(costs, name)
        if abs(got - value) > COST_RTOL * max(1.0, abs(value)):
            errors.append(f"{name} cost {got!r} != recomputed {value!r}")
    return errors


def perfect_information_optimum(window: ProblemInstance, perturb: PerturbationConfig) -> float:
    """Least price cost any storage schedule can reach over the whole window
    with the true physics and full knowledge of the series.

    Columns per step: charge and discharge and SOC per storage, then one
    grid draw; the draw covers the district's net consumption and is never
    negative, which is exactly the price cost's flooring.  Simultaneous
    charge and discharge is allowed, which can only lower the optimum, so
    every realized trajectory costs at least this much.
    """
    dt = window.grid.step_hours
    T, S = window.n_steps, len(window.storages)
    net_load = sum(np.asarray(b.load) - np.asarray(b.solar_capacity) for b in window.buildings)
    n = 3 * S * T + T
    chg = lambda i, t: (3 * i) * T + t
    dis = lambda i, t: (3 * i + 1) * T + t
    soc = lambda i, t: (3 * i + 2) * T + t
    grid = lambda t: 3 * S * T + t

    lo, up = np.zeros(n), np.full(n, np.inf)
    c = np.zeros(n)
    eq_r, eq_c, eq_v, b_eq = [], [], [], []
    for i, (s, (eta_c, eta_d)) in enumerate(zip(window.storages, _efficiencies(window, perturb))):
        for t in range(T):
            up[chg(i, t)], up[dis(i, t)] = s.p_charge_max, s.p_discharge_max
            lo[soc(i, t)], up[soc(i, t)] = s.e_min, s.e_max * perturb.capacity_scale
            r = len(b_eq)
            entries = [(soc(i, t), 1.0), (chg(i, t), -eta_c * dt), (dis(i, t), dt / eta_d)]
            if t > 0:
                entries.append((soc(i, t - 1), -1.0))
            for j, v in entries:
                eq_r.append(r)
                eq_c.append(j)
                eq_v.append(v)
            b_eq.append(s.e_initial if t == 0 else 0.0)
    ub_r, ub_c, ub_v = [], [], []
    for t in range(T):
        c[grid(t)] = window.market.price[t]
        # -grid + sum(charge - discharge) <= -net_load
        ub_r.append(t); ub_c.append(grid(t)); ub_v.append(-1.0)
        for i in range(S):
            ub_r += [t, t]; ub_c += [chg(i, t), dis(i, t)]; ub_v += [1.0, -1.0]
    A_eq = csr_matrix((eq_v, (eq_r, eq_c)), shape=(len(b_eq), n)) if b_eq else None
    A_ub = csr_matrix((ub_v, (ub_r, ub_c)), shape=(T, n))
    ok, best, message = _highs(c, A_eq, np.asarray(b_eq) if b_eq else None, A_ub, -net_load, lo, up)
    if not ok:
        raise RuntimeError(f"perfect-information program not solved: {message}")
    return best


def check_price_bound(realized_price_cost: float, optimum: float) -> list[str]:
    """The realized price cost may not undercut the perfect-information optimum."""
    if realized_price_cost < optimum - OBJ_RTOL * max(1.0, abs(optimum)):
        return [f"realized price cost {realized_price_cost!r} below the perfect-information optimum {optimum!r}"]
    return []
