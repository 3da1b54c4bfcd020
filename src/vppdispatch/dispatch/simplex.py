"""Bounded-variable primal simplex with Bland's rule, plus presolve.

The solver keeps an explicit dense basis inverse (adequate at the dispatch
program sizes, which do not grow with the scenario count) and pivots with
Bland's smallest-index rule, which is deterministic and cannot cycle.
Phase 1 adds artificial columns for rows whose logical starts outside its
bounds and minimizes their sum with the same machinery.

Presolve performs one safe reduction before the simplex runs and undoes it
afterwards: a column appearing in exactly one equality row is substituted
out, the row turning into a range constraint on the remaining terms.  The
grid-draw column of every balance row is such a singleton.  Rows left
empty are checked against their bounds and dropped.  Solutions and
objective values agree with presolve on or off (the tests check both
paths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, LPSolution

_AT_LO, _AT_UP, _FREE, _BASIC = 0, 1, 2, 3
_REFRESH = 64  # refactorize the basis inverse every this many pivots


@dataclass
class SolveOptions:
    max_iterations: int = 20000
    tolerance: float = 1e-9
    presolve: bool = True


def _nonbasic_values(lo: np.ndarray, up: np.ndarray, status: np.ndarray) -> np.ndarray:
    x = np.where(status == _AT_UP, up, lo)
    x[status == _FREE] = 0.0
    x[status == _BASIC] = 0.0
    return x


class _Core:
    """Simplex state over the augmented system A x = b with column bounds."""

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray, lo: np.ndarray, up: np.ndarray,
                 basis: np.ndarray, status: np.ndarray, tol: float):
        self.A, self.b, self.c, self.lo, self.up = A, b, c, lo, up
        self.basis = basis
        self.status = status
        self.tol = tol
        self.pivots_since_refresh = 0
        self.refactor()

    def refactor(self) -> None:
        self.binv = np.linalg.inv(self.A[:, self.basis])
        self.pivots_since_refresh = 0

    def basic_values(self) -> np.ndarray:
        xn = _nonbasic_values(self.lo, self.up, self.status)
        return self.binv @ (self.b - self.A @ xn)

    def full_x(self) -> np.ndarray:
        x = _nonbasic_values(self.lo, self.up, self.status)
        x[self.basis] = self.basic_values()
        return x

    def iterate(self, max_iterations: int) -> tuple[str, int]:
        tol = self.tol
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
            j = int(eligible[0])  # Bland: smallest index enters
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
                continue

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


def _solve_bounded(
    A: np.ndarray,
    c: np.ndarray,
    col_lo: np.ndarray,
    col_up: np.ndarray,
    row_lo: np.ndarray,
    row_up: np.ndarray,
    options: SolveOptions,
) -> tuple[str, np.ndarray, int]:
    """Two-phase simplex on min c.x s.t. row_lo <= Ax <= row_up, col_lo <= x <= col_up."""
    m, n = A.shape
    tol = options.tolerance

    if m == 0:
        # pure bound problem: each variable sits at whichever bound its cost prefers
        x = np.where(c > 0, col_lo, np.where(c < 0, col_up, 0.0))
        if np.any(~np.isfinite(x)):
            return "unbounded", np.zeros(n), 0
        free = c == 0
        x[free] = np.where(
            np.isfinite(col_lo[free]), col_lo[free], np.where(np.isfinite(col_up[free]), col_up[free], 0.0)
        )
        return "optimal", x, 0

    # augmented system [A  -I] [x; r] = 0 with r carrying the row bounds
    Afull = np.concatenate([A, -np.eye(m)], axis=1)
    lo = np.concatenate([col_lo, row_lo])
    up = np.concatenate([col_up, row_up])
    b = np.zeros(m)

    status = np.empty(n + m, dtype=np.int64)
    finite_lo = np.isfinite(lo[:n])
    finite_up = np.isfinite(up[:n])
    status[:n] = np.where(finite_lo, _AT_LO, np.where(finite_up, _AT_UP, _FREE))
    status[n:] = _BASIC
    basis = np.arange(n, n + m)

    x_struct = _nonbasic_values(lo[:n], up[:n], status[:n])
    r = A @ x_struct
    below = r < lo[n:] - tol
    above = r > up[n:] + tol
    infeasible_rows = np.flatnonzero(below | above)

    iterations = 0
    if infeasible_rows.size:
        # phase 1: artificials absorb the residual of each violated row
        n_art = infeasible_rows.size
        D = np.zeros((m, n_art))
        art_basis = np.empty(n_art, dtype=np.int64)
        for k, i in enumerate(infeasible_rows):
            target = lo[n + i] if below[i] else up[n + i]
            # row holds A_i.x - r_i + D_ik a_k = 0 with r_i pinned at the violated
            # bound, so the artificial starts at |A_i.x - target| >= 0
            D[i, k] = -np.sign(r[i] - target)
            status[n + i] = _AT_LO if below[i] else _AT_UP
            art_basis[k] = n + m + k
        A1 = np.concatenate([Afull, D], axis=1)
        lo1 = np.concatenate([lo, np.zeros(n_art)])
        up1 = np.concatenate([up, np.full(n_art, np.inf)])
        c1 = np.concatenate([np.zeros(n + m), np.ones(n_art)])
        status1 = np.concatenate([status, np.full(n_art, _BASIC, dtype=np.int64)])
        basis1 = basis.copy()
        basis1[infeasible_rows] = art_basis

        core = _Core(A1, b, c1, lo1, up1, basis1, status1, tol)
        state, it1 = core.iterate(options.max_iterations)
        iterations += it1
        if state == "iteration_limit":
            return "iteration_limit", core.full_x()[:n], iterations
        if float(c1 @ core.full_x()) > tol * max(1.0, np.abs(r).max()):
            return "infeasible", core.full_x()[:n], iterations
        # keep any artificials pinned at zero through phase 2
        core.lo[n + m :] = 0.0
        core.up[n + m :] = 0.0
        core.c = np.concatenate([c, np.zeros(m + n_art)])
        state, it2 = core.iterate(options.max_iterations - iterations)
        iterations += it2
        return state, core.full_x()[:n], iterations

    core = _Core(Afull, b, np.concatenate([c, np.zeros(m)]), lo, up, basis, status, tol)
    state, it2 = core.iterate(options.max_iterations)
    return state, core.full_x()[:n], iterations + it2


# ----------------------------------------------------------------------
# presolve
# ----------------------------------------------------------------------

@dataclass
class _Eliminations:
    """Batch of substituted-out column singletons (rows are disjoint)."""

    cols: np.ndarray
    coefs: np.ndarray
    rhs: np.ndarray
    rows: np.ndarray
    rest_rows: np.ndarray  # triplets of the eliminated rows, minus the eliminated entry
    rest_cols: np.ndarray
    rest_vals: np.ndarray

    def recover(self, x: np.ndarray, m: int) -> None:
        """Fill the eliminated columns of x from their defining equalities."""
        sums = np.zeros(m)
        if self.rest_rows.size:
            np.add.at(sums, self.rest_rows, self.rest_vals * x[self.rest_cols])
        x[self.cols] = (self.rhs - sums[self.rows]) / self.coefs


def _presolve(lp: LinearProgram, tol: float):
    """Reduce the LP; returns None if presolve already proves infeasibility.

    Works on triplets sorted by (row, col), so every pass is a whole-array
    operation.
    """
    n, m = lp.n_cols, lp.n_rows
    order = np.lexsort((lp.a_cols, lp.a_rows))
    rows = lp.a_rows[order]
    cols = lp.a_cols[order]
    vals = lp.a_vals[order].copy()

    # combine duplicate (row, col) triplets, drop exact zeros
    if rows.size:
        same = np.zeros(rows.size, dtype=bool)
        same[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        group = np.cumsum(~same) - 1
        agg = np.zeros(group[-1] + 1)
        np.add.at(agg, group, vals)
        first = np.flatnonzero(~same)
        rows, cols, vals = rows[first], cols[first], agg
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]

    col_count = np.bincount(cols, minlength=n)
    c = lp.c.copy()
    row_lo = lp.row_lo.copy()
    row_up = lp.row_up.copy()
    removed_col = np.zeros(n, dtype=bool)

    is_eq_row = row_lo == row_up
    candidate = is_eq_row[rows] & (col_count[cols] == 1) & (np.abs(vals) > 1e-12)
    if np.any(candidate):
        cand_idx = np.flatnonzero(candidate)
        # smallest-column candidate per row: cand_idx is (row, col)-sorted
        first_of_row = cand_idx[np.unique(rows[cand_idx], return_index=True)[1]]
        e_rows = rows[first_of_row]
        e_cols = cols[first_of_row]
        e_coef = vals[first_of_row]
        e_rhs = row_lo[e_rows].copy()
        lo_j, up_j = lp.col_lo[e_cols], lp.col_up[e_cols]
        pos = e_coef > 0
        row_lo[e_rows] = np.where(pos, e_rhs - e_coef * up_j, e_rhs - e_coef * lo_j)
        row_up[e_rows] = np.where(pos, e_rhs - e_coef * lo_j, e_rhs - e_coef * up_j)
        removed_col[e_cols] = True

        in_elim_row = np.zeros(m, dtype=bool)
        in_elim_row[e_rows] = True
        dropped = np.zeros(rows.size, dtype=bool)
        dropped[first_of_row] = True
        rest = in_elim_row[rows] & ~dropped
        scale = np.zeros(m)
        scale[e_rows] = c[e_cols] / e_coef
        np.subtract.at(c, cols[rest], scale[rows[rest]] * vals[rest])
        eliminations = _Eliminations(
            cols=e_cols, coefs=e_coef, rhs=e_rhs, rows=e_rows,
            rest_rows=rows[rest], rest_cols=cols[rest], rest_vals=vals[rest],
        )
        rows, cols, vals = rows[~dropped], cols[~dropped], vals[~dropped]
    else:
        z = np.zeros(0, dtype=np.int64)
        eliminations = _Eliminations(z, np.zeros(0), np.zeros(0), z, z, z, np.zeros(0))

    # rows left without entries drop out once zero activity is checked
    # against their bounds
    nonempty = np.zeros(m, dtype=bool)
    nonempty[rows] = True
    if np.any(~nonempty & ((row_lo > tol) | (row_up < -tol))):
        return None

    kept_cols = np.flatnonzero(~removed_col)
    col_map = np.full(n, -1, dtype=np.int64)
    col_map[kept_cols] = np.arange(kept_cols.size)
    keep_idx = np.flatnonzero(nonempty)
    row_map = np.full(m, -1, dtype=np.int64)
    row_map[keep_idx] = np.arange(keep_idx.size)
    A = np.zeros((keep_idx.size, kept_cols.size))
    A[row_map[rows], col_map[cols]] = vals
    return (
        A,
        row_lo[keep_idx],
        row_up[keep_idx],
        kept_cols,
        c[kept_cols],
        eliminations,
    )


def solve_lp(lp: LinearProgram, options: SolveOptions | None = None) -> LPSolution:
    """Solve a LinearProgram; deterministic for fixed inputs.

    Infeasibility and unboundedness are reported via the status field, not
    raised.  On iteration_limit the best iterate reached is returned.
    """
    options = options or SolveOptions()
    lp.validate()
    tol = options.tolerance

    if options.presolve:
        reduced = _presolve(lp, tol)
        if reduced is None:
            return LPSolution("infeasible", np.zeros(lp.n_cols), np.nan, 0)
        A, row_lo, row_up, kept_cols, c_red, eliminations = reduced
        state, x_red, iterations = _solve_bounded(
            A, c_red, lp.col_lo[kept_cols], lp.col_up[kept_cols], row_lo, row_up, options
        )
        x = np.zeros(lp.n_cols)
        x[kept_cols] = x_red
        eliminations.recover(x, lp.n_rows)
    else:
        state, x, iterations = _solve_bounded(
            lp.dense(), lp.c, lp.col_lo, lp.col_up, lp.row_lo, lp.row_up, options
        )

    if state == "optimal":
        # tidy roundoff against the declared bounds
        x = np.minimum(np.maximum(x, lp.col_lo), lp.col_up)
    objective = float(lp.c @ x) if state in ("optimal", "iteration_limit") else np.nan
    return LPSolution(state, x, objective, iterations)
