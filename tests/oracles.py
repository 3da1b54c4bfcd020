"""Independent oracles the test suite checks the implementation against.

These are deliberately brute-force and share no modelling code with the
package: central finite differences for gradients, dense vertex
enumeration for linear programs, grid search for the two-step battery
arbitrage problem, and the two-stage dispatch program written out with one
balance row and one grid column per scenario and step (only the package's
LP container is used to hold it).
"""

from __future__ import annotations

import itertools

import numpy as np

from vppdispatch.dispatch import ColumnName, LinearProgram, LPBuilder


def finite_difference_grads(net, sequences, targets, step: float = 1e-5) -> dict:
    """Central finite differences of the MSE loss w.r.t. every parameter."""

    def loss() -> float:
        y, _ = net.forward(sequences)
        d = y - targets
        return float(np.mean(d * d))

    grads = {}
    for name, arr in net.params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss()
            flat[i] = orig - step
            down = loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def _side_grid(pairs: list[list[float]]) -> np.ndarray:
    """Cartesian product of per-slot candidate values, shape (len(pairs), combos)."""
    if not pairs:
        return np.zeros((0, 1))
    grids = np.meshgrid(*pairs, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=0)


def enumerate_lp_minimum(
    c: np.ndarray,
    A: np.ndarray,
    row_lo: np.ndarray,
    row_up: np.ndarray,
    col_lo: np.ndarray,
    col_up: np.ndarray,
    tol: float = 1e-7,
) -> float | None:
    """Brute-force minimum of c.x over {col_lo<=x<=col_up, row_lo<=Ax<=row_up}.

    Enumerates every candidate vertex: k rows tight at one of their bounds
    combined with n-k variables fixed at one of theirs, solving the k x k
    system for the free variables (all bound-side combinations of one
    active set are solved as a single batched system).  Assumes finite
    variable bounds, so the region is bounded.  Returns None if no feasible
    vertex exists.
    """
    m, n = A.shape
    best = None

    def consider(X: np.ndarray) -> None:
        """X holds candidate points column-wise, shape (n, combos)."""
        nonlocal best
        ok = np.all((X >= col_lo[:, None] - tol) & (X <= col_up[:, None] + tol), axis=0)
        if not np.any(ok):
            return
        act = A @ X[:, ok]
        ok2 = np.all((act >= row_lo[:, None] - tol) & (act <= row_up[:, None] + tol), axis=0)
        if not np.any(ok2):
            return
        val = float(np.min(c @ X[:, ok][:, ok2]))
        if best is None or val < best:
            best = val

    for k in range(0, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            row_opts = [[b for b in (row_lo[i], row_up[i]) if np.isfinite(b)] for i in rows]
            if any(len(o) == 0 for o in row_opts):
                continue
            row_vals = _side_grid(row_opts)
            nr = row_vals.shape[1]
            for free in itertools.combinations(range(n), k):
                fixed = [j for j in range(n) if j not in free]
                fixed_vals = _side_grid([[col_lo[j], col_up[j]] for j in fixed])
                nf = fixed_vals.shape[1]
                X = np.empty((n, nf * nr))
                fixed_rep = np.repeat(fixed_vals, nr, axis=1)
                X[fixed, :] = fixed_rep
                if k:
                    # rhs per combo: row side minus the fixed variables' contribution
                    rside = np.tile(row_vals, nf)
                    contrib = A[np.ix_(rows, fixed)] @ fixed_rep if fixed else 0.0
                    try:
                        X[list(free), :] = np.linalg.solve(A[np.ix_(rows, free)], rside - contrib)
                    except np.linalg.LinAlgError:
                        continue
                consider(X)
    return best


def arbitrage_grid_search(
    prices: tuple[float, float],
    loads: tuple[float, float],
    e_max: float,
    p_max: float,
    resolution: float = 0.01,
) -> float:
    """Cheapest two-step cost over a grid of charge-then-discharge amounts."""
    best = np.inf
    charge_levels = np.arange(0.0, min(e_max, p_max) + resolution / 2, resolution)
    for charge in charge_levels:
        discharge = min(charge, p_max, loads[1])
        cost = prices[0] * (loads[0] + charge) + prices[1] * (loads[1] - discharge)
        best = min(best, cost)
    return float(best)


def expand_stochastic(instance, scenarios) -> LinearProgram:
    """The two-stage program with its N*T recourse rows written out.

    Columns: the grid draw per scenario and step (scenario-major), then per
    generator its output per step, then per storage charge, discharge and
    SOC per step, the order the package's builders use.  Rows: SOC dynamics
    per storage, then one balance row per scenario and step.  Generation is
    capped below its capacity in every scenario; scenario n's draw is
    priced at ``p_n,t / N``.
    """
    N, T = scenarios.n_scenarios, instance.n_steps
    dt = instance.grid.step_hours
    b = LPBuilder()
    grid = [[b.add_col(ColumnName("grid", f"scenario{n}", t), 0.0, np.inf, float(scenarios.price[n, t] / N))
             for t in range(T)] for n in range(N)]
    gen = []
    for gi, g in enumerate(instance.generators):
        caps = [min(float(scenarios.solar[n, gi, t]) for n in range(N)) for t in range(T)]
        gen.append([b.add_col(ColumnName("gen", g.id, t), float(g.p_min[t]), min(g.p_max_capacity, caps[t]))
                    for t in range(T)])
    chg, dis = [], []
    for s in instance.storages:
        c_s, d_s, e_s = [], [], []
        for t in range(T):
            c_s.append(b.add_col(ColumnName("charge", s.id, t), 0.0, s.p_charge_max))
            d_s.append(b.add_col(ColumnName("discharge", s.id, t), 0.0, s.p_discharge_max))
            e_s.append(b.add_col(ColumnName("soc", s.id, t), s.e_min, s.e_max))
        for t in range(T):
            entries = [(e_s[t], 1.0), (c_s[t], -dt), (d_s[t], dt)]
            if t:
                entries.append((e_s[t - 1], -1.0))
            rhs = s.e_initial if t == 0 else 0.0
            b.add_row(entries, rhs, rhs)
        chg.append(c_s)
        dis.append(d_s)
    for n in range(N):
        for t in range(T):
            load = float(sum(scenarios.load[n, u, t] for u in range(scenarios.load.shape[1])))
            entries = [(grid[n][t], 1.0)] + [(g[t], 1.0) for g in gen]
            entries += [(d[t], 1.0) for d in dis] + [(c[t], -1.0) for c in chg]
            b.add_row(entries, load, load)
    return b.build(meta={"grid": np.asarray(grid)})


def reduce_program(lp: LinearProgram, tol: float = 1e-9):
    """Textbook presolve, one row at a time: substitute out each column that
    appears in exactly one equality row (the smallest such column per row),
    then merge rows with identical coefficients by intersecting their
    bounds.

    Returns the reduced program over the surviving columns (None if an
    emptied row is infeasible) and a function that maps a solution of it
    back to all of ``lp``'s columns.
    """
    n, m = lp.n_cols, lp.n_rows
    entries: list[dict[int, float]] = [{} for _ in range(m)]
    for r, j, v in zip(lp.a_rows.tolist(), lp.a_cols.tolist(), lp.a_vals.tolist()):
        entries[r][j] = entries[r].get(j, 0.0) + v
    entries = [{j: v for j, v in row.items() if v != 0.0} for row in entries]
    count = [0] * n
    for row in entries:
        for j in row:
            count[j] += 1
    c = lp.c.tolist()
    row_lo, row_up = lp.row_lo.tolist(), lp.row_up.tolist()

    substituted = []  # (column, coefficient, rhs, remaining (column, value) pairs)
    for r in range(m):
        if row_lo[r] != row_up[r]:
            continue
        singles = sorted(j for j, v in entries[r].items() if count[j] == 1 and abs(v) > 1e-12)
        if not singles:
            continue
        j = singles[0]
        coef, rhs = entries[r].pop(j), row_lo[r]
        lo, up = float(lp.col_lo[j]), float(lp.col_up[j])
        row_lo[r], row_up[r] = (rhs - coef * up, rhs - coef * lo) if coef > 0 else (rhs - coef * lo, rhs - coef * up)
        rest = sorted(entries[r].items())
        scale = c[j] / coef
        for k, v in rest:
            c[k] -= scale * v
        substituted.append((j, coef, rhs, rest))

    kept_rows, first = [], {}
    for r in range(m):
        key = tuple(sorted(entries[r].items()))
        if not key:
            if row_lo[r] > tol or row_up[r] < -tol:
                return None, None
        elif key in first:
            k = first[key]
            row_lo[k], row_up[k] = max(row_lo[k], row_lo[r]), min(row_up[k], row_up[r])
        else:
            first[key] = r
            kept_rows.append(r)

    gone = {j for j, *_ in substituted}
    kept_cols = [j for j in range(n) if j not in gone]
    new_col = {j: i for i, j in enumerate(kept_cols)}
    tri = [(i, new_col[j], v) for i, r in enumerate(kept_rows) for j, v in sorted(entries[r].items())]
    reduced = LinearProgram(
        c=np.array([c[j] for j in kept_cols]),
        a_rows=np.array([t[0] for t in tri], dtype=np.int64),
        a_cols=np.array([t[1] for t in tri], dtype=np.int64),
        a_vals=np.array([t[2] for t in tri], dtype=np.float64),
        row_lo=np.array([row_lo[r] for r in kept_rows]),
        row_up=np.array([row_up[r] for r in kept_rows]),
        col_lo=lp.col_lo[kept_cols],
        col_up=lp.col_up[kept_cols],
        col_names=[lp.col_names[j] for j in kept_cols],
    )

    def recover(x_reduced: np.ndarray) -> np.ndarray:
        x = np.zeros(n)
        x[kept_cols] = x_reduced
        for j, coef, rhs, rest in substituted:
            total = 0.0
            for k, v in rest:
                total += v * x[k]
            x[j] = (rhs - total) / coef
        return np.minimum(np.maximum(x, lp.col_lo), lp.col_up)

    return reduced, recover
