"""Independent oracles the test suite checks the implementation against.

These are deliberately brute-force and share no modelling code with the
package: central finite differences for gradients, dense vertex
enumeration for linear programs, grid search for the two-step battery
arbitrage problem, and the two-stage dispatch program written out with one
balance row and one grid column per scenario and step (only the package's
LP container is used to hold it).  The recurrent input sequence is built
one row per lag through the scalar ``build_features``, and the logistic
function is the boolean-mask form; the package's vectorized versions must
match both bit for bit.  The simplex pivot loop is the one that rebuilds the
nonbasic values, the eligibility masks, the full ratio test and the full
rank-1 inverse update at every pivot, with its own copy of the pricing rule;
the package's loop carries them across pivots and must take the same pivots
to the same bits.  The dispatch program is also built the loop way, one
named column and one row at a time, with the SOC of each extracted plan
rebuilt one step at a time and the linear forecast rebuilding its feature
vector at every horizon step; the package's array versions must match them
bit for bit.  The recurrent cell runs one gate at a time, forward and
backward, which the fused cell must match bit for bit, and sigma is estimated
with one forecast per validation window, which the batched estimate must
match to rounding.  Scenarios are sampled with their standard normals drawn
afresh at every call; the package's cached draws must match them bit for
bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from vppdispatch.dispatch import LinearProgram
from vppdispatch.dispatch.simplex import _AT_LO, _AT_UP, _BASIC, _FREE, _REFRESH, _STALL
from vppdispatch.forecast import InsufficientHistoryError, UncertaintyEstimate, build_features, predict
from vppdispatch.forecast.models import RecurrentNet, _sigmoid
from vppdispatch.scenario import ScenarioSet


class ProgramBuilder:
    """Triplet assembly one labelled column and one row at a time; the
    labels land in ``meta["labels"]``."""

    def __init__(self):
        self.c, self.col_lo, self.col_up, self.labels = [], [], [], []
        self.rows, self.cols, self.vals = [], [], []
        self.row_lo, self.row_up = [], []

    def add_col(self, label: str, lo: float, up: float, cost: float = 0.0) -> int:
        self.labels.append(label)
        self.col_lo.append(lo)
        self.col_up.append(up)
        self.c.append(cost)
        return len(self.c) - 1

    def add_row(self, entries: list[tuple[int, float]], lo: float, up: float) -> int:
        r = len(self.row_lo)
        for j, v in entries:
            self.rows.append(r)
            self.cols.append(j)
            self.vals.append(v)
        self.row_lo.append(lo)
        self.row_up.append(up)
        return r

    def build(self, meta: dict | None = None, tiebreak: np.ndarray | None = None) -> LinearProgram:
        return LinearProgram(
            c=np.asarray(self.c, dtype=np.float64),
            a_rows=np.asarray(self.rows, dtype=np.int64),
            a_cols=np.asarray(self.cols, dtype=np.int64),
            a_vals=np.asarray(self.vals, dtype=np.float64),
            row_lo=np.asarray(self.row_lo, dtype=np.float64),
            row_up=np.asarray(self.row_up, dtype=np.float64),
            col_lo=np.asarray(self.col_lo, dtype=np.float64),
            col_up=np.asarray(self.col_up, dtype=np.float64),
            meta={**(meta or {}), "labels": list(self.labels)},
            tiebreak=tiebreak,
        )


def _label(quantity: str, device: str, t: int) -> str:
    return f"{quantity}.{device}.t{t}" if device else f"{quantity}.t{t}"


def loop_build_deterministic(instance, forecasts) -> LinearProgram:
    """The deterministic dispatch program appended column by column and row
    by row: the grid draw per step; each generator's output per step; per
    storage its charge, discharge and SOC per step, then its dynamics rows;
    one balance row per step.  ``meta`` holds the package's entries plus the
    column labels."""
    T = instance.n_steps
    dt = instance.grid.step_hours
    G, S = len(instance.generators), len(instance.storages)
    b = ProgramBuilder()
    grid = [b.add_col(_label("grid", "", t), 0.0, np.inf, float(forecasts.price[t])) for t in range(T)]
    gen, chg, dis, soc, dyn = {}, {}, {}, {}, {}
    for gi, g in enumerate(instance.generators):
        for t in range(T):
            up = min(g.p_max_capacity, float(forecasts.solar[gi, t]))
            gen[gi, t] = b.add_col(_label("gen", g.id, t), float(g.p_min[t]), up)
    for si, s in enumerate(instance.storages):
        for t in range(T):
            chg[si, t] = b.add_col(_label("charge", s.id, t), 0.0, s.p_charge_max)
            dis[si, t] = b.add_col(_label("discharge", s.id, t), 0.0, s.p_discharge_max)
            soc[si, t] = b.add_col(_label("soc", s.id, t), s.e_min, s.e_max)
        for t in range(T):
            entries = [(soc[si, t], 1.0), (chg[si, t], -dt), (dis[si, t], dt)]
            if t == 0:
                dyn[si, t] = b.add_row(entries, s.e_initial, s.e_initial)
            else:
                entries.append((soc[si, t - 1], -1.0))
                dyn[si, t] = b.add_row(entries, 0.0, 0.0)
    district_load = forecasts.load.sum(axis=0)
    balance = []
    for t in range(T):
        entries = [(grid[t], 1.0)] + [(gen[gi, t], 1.0) for gi in range(G)]
        entries += [(dis[si, t], 1.0) for si in range(S)] + [(chg[si, t], -1.0) for si in range(S)]
        balance.append(b.add_row(entries, float(district_load[t]), float(district_load[t])))

    def grid_of(index, D):
        return np.array([[index[d, t] for t in range(T)] for d in range(D)], dtype=np.int64).reshape(D, T)

    columns = {
        "grid": np.asarray(grid, dtype=np.int64),
        "gen": grid_of(gen, G),
        "charge": grid_of(chg, S),
        "discharge": grid_of(dis, S),
        "soc": grid_of(soc, S),
    }
    rng = np.random.default_rng(0)
    u = rng.uniform(size=(2, S, T))
    v = rng.uniform(size=(G, T))
    tiebreak = np.zeros(len(b.c))
    tiebreak[columns["charge"]] = 1.0 + u[0]
    tiebreak[columns["discharge"]] = 1.0 + u[1]
    tiebreak[columns["gen"]] = 1.0 + v
    meta = {
        "T": T,
        "dt": dt,
        "generators": [g.id for g in instance.generators],
        "storages": [s.id for s in instance.storages],
        "e_initial": [s.e_initial for s in instance.storages],
        "n_scenarios": 0,
        "objective_offset": 0.0,
        "grid_shift": np.zeros(T),
        "columns": columns,
        "rows": {"dynamics": grid_of(dyn, S), "balance": np.asarray(balance, dtype=np.int64)},
    }
    return b.build(meta=meta, tiebreak=tiebreak)


def loop_soc(e_initial, p_charge: np.ndarray, p_discharge: np.ndarray, dt: float) -> np.ndarray:
    """The SOC trajectory of netted flows, one storage and one step at a time."""
    soc = np.zeros_like(p_charge)
    for si, e0 in enumerate(e_initial):
        level = e0
        for t in range(p_charge.shape[1]):
            level = level + dt * (p_charge[si, t] - p_discharge[si, t])
            soc[si, t] = level
    return soc


def recursive_predict_linear(model, history, calendar, t: int, horizon_T: int) -> np.ndarray:
    """The linear model's forecast for steps [t, t+horizon_T), building and
    normalizing the whole feature vector at every step and feeding each
    prediction back into the history; the correction and the floor follow
    as in ``predict``."""
    spec = model.spec
    work = np.asarray(history, dtype=np.float64)[:t].copy()
    out = np.empty(horizon_T)
    for h in range(horizon_T):
        fv = build_features(work, calendar, t + h, spec.lag_K)
        yn = model.linear.predict(model.norm.norm_x(fv))
        value = float(model.norm.denorm_y(np.array(yn)))
        out[h] = value
        work = np.append(work, value)
    a, b = model.correction
    out = a * out + b
    if spec.target in ("solar_capacity", "load"):
        out = np.maximum(out, 0.0)
    return out


class LoopRecurrentNet(RecurrentNet):
    """The recurrent cell one gate at a time: three input products, three
    recurrent products and two ``_sigmoid`` calls per step forward, and nine
    gradient products per step backward, each gate's gradients accumulated
    in its own arrays."""

    @classmethod
    def of(cls, net: RecurrentNet) -> "LoopRecurrentNet":
        dup = RecurrentNet.copy(net)
        dup.__class__ = cls
        return dup

    def copy(self) -> "LoopRecurrentNet":
        return LoopRecurrentNet.of(self)

    def forward(self, sequences, cache=None):
        sequences = np.asarray(sequences, dtype=np.float64)
        if sequences.ndim != 3 or sequences.shape[2] != self.input_dim:
            raise ValueError(
                f"expected sequences of shape (B, K, {self.input_dim}), got {sequences.shape}"
            )
        if sequences.shape[1] == 0:
            raise ValueError("sequence must be nonempty")
        p = self.params
        B = sequences.shape[0]
        h = np.zeros((B, self.hidden_dim))
        for k in range(sequences.shape[1]):
            x = sequences[:, k, :]
            z = _sigmoid(x @ p["Wz"].T + h @ p["Uz"].T + p["bz"])
            r = _sigmoid(x @ p["Wr"].T + h @ p["Ur"].T + p["br"])
            c = np.tanh(x @ p["Wc"].T + (r * h) @ p["Uc"].T + p["bc"])
            h_new = (1.0 - z) * h + z * c
            if cache is not None:
                cache.append((x, h, z, r, c))
            h = h_new
        y = h @ p["Wo"].T + p["bo"]
        return y, h

    def backward(self, cache, d_y, h_final):
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        grads["Wo"] = d_y.T @ h_final
        grads["bo"] = d_y.sum(axis=0)
        dh = d_y @ p["Wo"]
        for x, h_prev, z, r, c in reversed(cache):
            dz = dh * (c - h_prev)
            dc = dh * z
            dh_prev = dh * (1.0 - z)

            dc_pre = dc * (1.0 - c * c)
            grads["Wc"] += dc_pre.T @ x
            grads["Uc"] += dc_pre.T @ (r * h_prev)
            grads["bc"] += dc_pre.sum(axis=0)
            drh = dc_pre @ p["Uc"]
            dr = drh * h_prev
            dh_prev = dh_prev + drh * r

            dr_pre = dr * r * (1.0 - r)
            grads["Wr"] += dr_pre.T @ x
            grads["Ur"] += dr_pre.T @ h_prev
            grads["br"] += dr_pre.sum(axis=0)
            dh_prev = dh_prev + dr_pre @ p["Ur"]

            dz_pre = dz * z * (1.0 - z)
            grads["Wz"] += dz_pre.T @ x
            grads["Uz"] += dz_pre.T @ h_prev
            grads["bz"] += dz_pre.sum(axis=0)
            dh_prev = dh_prev + dz_pre @ p["Uz"]

            dh = dh_prev
        return grads


def windowed_estimate_variance(model, history, calendar, t_start: int, t_end: int, windows=None):
    """``estimate_variance`` with one ``predict`` call, and so one batch-1
    forward, per validation window."""
    H = model.spec.horizon
    residuals = []
    for t in range(max(t_start, model.spec.lag_K), t_end - H + 1):
        pred = predict(model, history, calendar, t, H)
        actual = np.asarray(history[t : t + H])
        residuals.append(actual - pred)
        if windows is not None:
            windows.append((actual, pred))
    if len(residuals) < 2:
        raise ValueError(f"need at least 2 validation windows, got {len(residuals)}")
    return UncertaintyEstimate(np.std(np.stack(residuals), axis=0))


def drawing_sample_scenarios(forecasts, uncertainty, N: int, seed: int) -> ScenarioSet:
    """``sample_scenarios`` drawing its standard normals afresh at every
    call: price, then solar, then load, from one generator."""
    if N < 1:
        raise ValueError("scenario count N must be >= 1")
    T = forecasts.horizon
    rng = np.random.default_rng(seed)

    def draw(mean: np.ndarray, sigma: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), mean.shape)
        noise = rng.standard_normal(shape)
        return np.maximum(mean[None, ...] + sig[None, ...] * noise, 0.0)

    price = draw(forecasts.price, uncertainty.price, (N, T))
    solar = draw(forecasts.solar, uncertainty.solar, (N,) + forecasts.solar.shape)
    load = draw(forecasts.load, uncertainty.load, (N,) + forecasts.load.shape)
    return ScenarioSet(solar=solar, load=load, price=price, seed=seed)


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


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function, one branch per sign through boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def recurrent_sequence_rows(history, calendar, t: int, K: int) -> np.ndarray:
    """The (K, 7) recurrent input sequence ending at step t, one
    ``build_features`` call per lag."""
    history = np.asarray(history, dtype=np.float64)
    if t - K < 0:
        raise InsufficientHistoryError(f"need {K} observations before step {t}")
    rows = []
    for s in range(t - K + 1, t + 1):
        fv = build_features(history, calendar, s, 1)
        rows.append(np.concatenate([fv[6:], fv[:6]]))
    return np.stack(rows, axis=0)


def rebuilding_iterate(self, max_iterations: int) -> tuple[str, int]:
    """Pivot loop over a ``simplex._Core`` that recomputes everything from
    the status array and the inverse at every pivot; a drop-in for
    ``_Core.iterate``.  The largest |d| enters (Dantzig), and after
    ``_STALL`` pivots in a row that move nothing the smallest eligible index
    enters (Bland) until one moves."""
    tol = self.tol
    degenerate = 0
    iterations = 0
    while True:
        if iterations >= max_iterations:
            return "iteration_limit", iterations
        xb = self.basic_values()
        y = self.c[self.basis] @ self.binv
        d = self.c - y @ self.A
        movable = self.up > self.lo
        cand_lo = (self.status == _AT_LO) & (d < -tol) & movable
        cand_up = (self.status == _AT_UP) & (d > tol) & movable
        cand_fr = (self.status == _FREE) & (np.abs(d) > tol)
        eligible = np.flatnonzero(cand_lo | cand_up | cand_fr)
        if eligible.size == 0:
            return "optimal", iterations
        if degenerate >= _STALL:
            j = int(eligible[0])
        else:
            j = int(eligible[np.argmax(np.abs(d[eligible]))])
        sigma = 1.0 if (self.status[j] == _AT_LO or (self.status[j] == _FREE and d[j] < 0)) else -1.0

        w = self.binv @ self.A[:, j]
        delta = -sigma * w  # movement of basic values per unit step
        lo_b, up_b = self.lo[self.basis], self.up[self.basis]

        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.full(delta.shape, np.inf)
            up_block = delta > tol
            theta[up_block] = (up_b[up_block] - xb[up_block]) / delta[up_block]
            lo_block = delta < -tol
            theta[lo_block] = (xb[lo_block] - lo_b[lo_block]) / (-delta[lo_block])
        theta = np.where(np.isnan(theta), np.inf, np.maximum(theta, 0.0))

        block = float(theta.min()) if theta.size else np.inf
        self_theta = self.up[j] - self.lo[j] if self.status[j] != _FREE else np.inf

        if not np.isfinite(block) and not np.isfinite(self_theta):
            return "unbounded", iterations
        iterations += 1

        if self_theta <= block:
            # entering variable swings to its opposite bound; basis unchanged
            self.status[j] = _AT_UP if self.status[j] == _AT_LO else _AT_LO
            degenerate = 0
            continue
        degenerate = degenerate + 1 if block == 0.0 else 0

        blockers = np.flatnonzero(theta <= block)
        p = int(blockers[np.argmin(self.basis[blockers])])  # Bland: smallest column leaves
        leaving = int(self.basis[p])
        hit_upper = delta[p] > 0
        self.status[leaving] = _AT_UP if hit_upper else _AT_LO
        self.basis[p] = j
        self.status[j] = _BASIC

        # update the explicit inverse with the pivot row operations
        piv = w[p]
        if abs(piv) < 1e-11 or self.pivots_since_refresh >= _REFRESH:
            self.refactor()
        else:
            self.binv[p, :] /= piv
            others = np.arange(w.shape[0]) != p
            self.binv[others, :] -= np.outer(w[others], self.binv[p, :])
            self.pivots_since_refresh += 1


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
    priced at ``p_n,t / N``.  The shared columns carry the package's
    tie-break costs: ``1 + u`` on charge and discharge and ``1 + v`` on
    generation, drawn in that order from ``default_rng(0)``.  ``meta`` holds
    the grid columns as an (N, T) array, the shared columns as (device, T)
    arrays under ``columns``, and the labels.
    """
    N, T = scenarios.n_scenarios, instance.n_steps
    dt = instance.grid.step_hours
    rng = np.random.default_rng(0)
    u = rng.uniform(size=(2, len(instance.storages), T))
    v = rng.uniform(size=(len(instance.generators), T))
    weight = {}
    b = ProgramBuilder()
    grid = [[b.add_col(_label("grid", f"scenario{n}", t), 0.0, np.inf, float(scenarios.price[n, t] / N))
             for t in range(T)] for n in range(N)]
    gen = []
    for gi, g in enumerate(instance.generators):
        caps = [min(float(scenarios.solar[n, gi, t]) for n in range(N)) for t in range(T)]
        gen.append([b.add_col(_label("gen", g.id, t), float(g.p_min[t]), min(g.p_max_capacity, caps[t]))
                    for t in range(T)])
        for t in range(T):
            weight[gen[gi][t]] = 1.0 + v[gi, t]
    chg, dis, soc = [], [], []
    for si, s in enumerate(instance.storages):
        c_s, d_s, e_s = [], [], []
        for t in range(T):
            c_s.append(b.add_col(_label("charge", s.id, t), 0.0, s.p_charge_max))
            d_s.append(b.add_col(_label("discharge", s.id, t), 0.0, s.p_discharge_max))
            e_s.append(b.add_col(_label("soc", s.id, t), s.e_min, s.e_max))
            weight[c_s[t]] = 1.0 + u[0, si, t]
            weight[d_s[t]] = 1.0 + u[1, si, t]
        for t in range(T):
            entries = [(e_s[t], 1.0), (c_s[t], -dt), (d_s[t], dt)]
            if t:
                entries.append((e_s[t - 1], -1.0))
            rhs = s.e_initial if t == 0 else 0.0
            b.add_row(entries, rhs, rhs)
        chg.append(c_s)
        dis.append(d_s)
        soc.append(e_s)
    for n in range(N):
        for t in range(T):
            load = float(sum(scenarios.load[n, u, t] for u in range(scenarios.load.shape[1])))
            entries = [(grid[n][t], 1.0)] + [(g[t], 1.0) for g in gen]
            entries += [(d[t], 1.0) for d in dis] + [(c[t], -1.0) for c in chg]
            b.add_row(entries, load, load)
    tiebreak = np.array([weight.get(j, 0.0) for j in range(len(b.c))])
    shared = {"gen": gen, "charge": chg, "discharge": dis, "soc": soc}
    columns = {q: np.array(index, dtype=np.int64).reshape(len(index), T) for q, index in shared.items()}
    return b.build(meta={"grid": np.asarray(grid), "columns": columns}, tiebreak=tiebreak)


def reduce_program(lp: LinearProgram, tol: float = 1e-9):
    """Textbook presolve, one row at a time: substitute out each column that
    appears in exactly one equality row (the smallest such column per row),
    carrying both costs through the substitution, then merge rows with
    identical coefficients by intersecting their bounds.

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
    tiebreak = None if lp.tiebreak is None else lp.tiebreak.tolist()
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
        for cost in (c, tiebreak) if tiebreak is not None else (c,):
            scale = cost[j] / coef
            for k, v in rest:
                cost[k] -= scale * v
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
        tiebreak=None if tiebreak is None else np.array([tiebreak[j] for j in kept_cols]),
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
