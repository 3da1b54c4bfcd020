"""Bounded-variable primal simplex with Dantzig pricing.

``solve_lp`` is the entry: it takes a ``LinearProgram`` and returns an
``LPSolution``.  It works on the augmented system ``[A  -I] [x; r] = 0``,
whose logical columns ``r`` carry the row bounds.  It only reads that
matrix: a dispatch program hands over the one its shape shares
(``LinearProgram.augmented``), and any other program has it built from its
triplets at each solve, so no solve of a dispatch program densifies or
concatenates the constraint matrix.  Phase 1 appends its artificial column
to a copy.  A program without rows takes the same phases as any other:
its basis is empty, and every column that moves swings between its bounds.

The solver keeps an explicit dense basis inverse (adequate at the dispatch
program sizes, which do not grow with the scenario count).  It prices by
Dantzig's rule: the eligible column with the largest reduced cost in
magnitude enters.  Dantzig's rule alone can cycle on degenerate programs,
so after ``_STALL`` pivots in a row that move no value the entering column
is Bland's smallest eligible index until a pivot moves again; the leaving
row always follows Bland's smallest-column rule among tied ratios, and
Bland's rule throughout a degenerate run cannot cycle.  The choice of the
entering column sits in ``_entering`` alone.

Phase 3 runs when the program carries a tie-break cost.  Once phase 2 is
optimal, every nonbasic column whose primary reduced cost is nonzero is
fixed at its current bound, which leaves exactly the face of optimal
points (complementary slackness holds with the phase-2 duals at every
optimum, whichever optimal basis phase 2 ended in).  The tie-break cost is
then minimized from the current basis.  Every column that can still enter
has a zero primary reduced cost, so the price objective cannot change,
and the point returned is the tie-break minimizer of that face: a function
of the program, not of the pivot order.  An iteration limit that falls in
phase 3 still returns an optimal point.

Every solve starts from a basis: the one given in ``SolveOptions.basis``,
such as the optimal basis of the previous re-plan shifted one step on, or
else the slack basis, where every row logical is basic and the basis
matrix is ``-I``; a cold start is a start from the slack basis.  A given
basis is set aside for the slack basis when it does not have one basic
entry per row, or when its basis matrix is singular (``inv`` raises, or
``B B^-1`` misses the identity by more than 1e-9).  A given basis may
carry the inverse of its basis matrix (``Basis.inverse``), such as the one
``build.shift_basis`` derives from the previous re-plan's final inverse:
it replaces ``inv`` when it passes that same ``B B^-1`` check, which is
what bounds the rounding drift an inverse carries from re-plan to re-plan.
When the basis carries none (or one of the wrong shape), or the carried
one misses the check, ``inv``
runs as for any given basis, and ``LPSolution.start_inverse`` says which
happened.  An optimal solution hands on its final inverse with its final
basis, unless phase 1 left its artificial column basic.  The nonbasic
columns sit at their bounds and the basic values follow; those outside
their bounds are clipped onto them, and a single artificial column
``g = B (x_B - clip(x_B))``, bounded to [0, 1] and nonbasic at 1, carries
the difference.  From the slack basis these are the row activities that
miss their bounds.  Phase 1 minimizes ``g`` from that feasible start
with the same machinery, and phases 2 and 3 follow.  Since phase 3 makes
the plan a function of the program, the start basis moves it only by
rounding.  An optimal solution reports its final basis, one basic entry
per row: an artificial still basic at zero hands its place to a row
logical.

A pivot changes the status of at most two columns and the inverse in the
rows where the entering column has an entry, so the pivot loop carries the
nonbasic values, the residual ``b - A xn`` and the sign that turns each
column's reduced cost into its gain from one pivot to the next, and works
on those rows alone.  They are few: on the re-plans of the benchmark
workloads the entering column moves 7 to 8 of the 70 to 140 rows of the
program (median 5 to 7).  The ratio test and Bland's leaving choice run in
one pass over those rows' Python floats, on the IEEE operations of the
whole-array ratio test, and the inverse rows take one broadcast product
each.  The dense products that feed the basic values, the duals and the
inverse (``A @ xn``, ``binv @ r``, ``binv @ A[:, j]``,
``c[basis] @ binv``, ``y @ A`` and the periodic ``np.linalg.inv``) are the
calls of the loop that rebuilds every quantity at each pivot, which the
tests hold this loop to bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .lp import AT_LO as _AT_LO
from .lp import AT_UP as _AT_UP
from .lp import BASIC as _BASIC
from .lp import FREE as _FREE
from .lp import Basis, LinearProgram, LPSolution, invert_basis, inverts

_TOL = 1e-9  # reduced costs, pivot entries and bound violations below this count as zero
_REFRESH = 64  # refactorize the basis inverse every this many pivots
_STALL = 50  # degenerate pivots in a row before Bland's rule picks the entering column


@dataclass
class SolveOptions:
    max_iterations: int = 20000
    basis: Basis | None = None  # start basis in the program's layout; None starts from the slack basis


def _nonbasic_values(lo: np.ndarray, up: np.ndarray, status: np.ndarray) -> np.ndarray:
    x = np.where(status == _AT_UP, up, lo)
    x[status == _FREE] = 0.0
    x[status == _BASIC] = 0.0
    return x


def _entering(eligible: np.ndarray, gain: np.ndarray, stalled: bool) -> int:
    """The entering column: among the eligible ones, the largest gain, which
    is ``|d_j|`` on an eligible column (Dantzig), or the smallest index while
    pivots stall (Bland).  Returns an ineligible index only when no column
    is eligible."""
    if stalled:
        return int(eligible.argmax())
    return int(np.where(eligible, gain, -1.0).argmax())


class _Core:
    """Simplex state over the augmented system A x = b with column bounds;
    ``A`` is only read.

    Between calls to ``iterate`` the state is the basis, the column status
    and the dense basis inverse, refactorized every ``_REFRESH`` pivots and
    after any pivot on an element below 1e-11.  Within a call, ``iterate``
    also carries the nonbasic values, the residual ``r = b - A xn`` (recomputed
    only after a pivot or bound swing changes a value of ``xn``), the sign
    that turns each column's reduced cost into its gain per unit step, and
    the count of degenerate pivots in a row that switches pricing from
    Dantzig's rule to Bland's.  The basic values, the duals and the reduced
    costs are recomputed from the inverse at every pivot.  A column with ``lo == up``
    never enters; phase 3 fixes columns that way.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray, lo: np.ndarray, up: np.ndarray,
                 basis: np.ndarray, status: np.ndarray, binv: np.ndarray):
        self.A, self.b, self.c, self.lo, self.up = A, b, c, lo, up
        self.basis = basis
        self.status = status
        self.binv = binv
        self.pivots_since_refresh = 0

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
        A, b, c, lo, up, basis, status = self.A, self.b, self.c, self.lo, self.up, self.basis, self.status
        lo_list, up_list = lo.tolist(), up.tolist()
        # a column's gain is sign * d: -1 for a nonbasic column that may only
        # rise, +1 for one that may only fall, 0 for one that cannot enter; a
        # free nonbasic column may move either way and gains |d|
        movable = up > lo
        sign = np.where((status == _AT_LO) & movable, -1.0, 0.0)
        sign[(status == _AT_UP) & movable] = 1.0
        free = (status == _FREE).nonzero()[0]
        xn = _nonbasic_values(lo, up, status)
        r = b - A @ xn
        stale = False  # xn changed since r was computed
        degenerate = 0  # pivots in a row that moved no value
        iterations = 0
        while True:
            if iterations >= max_iterations:
                return "iteration_limit", iterations
            if stale:
                r = b - A @ xn
                stale = False
            binv = self.binv
            xb = binv @ r
            y = c[basis] @ binv
            d = c - y @ A
            gain = sign * d
            if free.size:
                gain[free] = np.abs(d[free])
            eligible = gain > _TOL
            j = _entering(eligible, gain, degenerate >= _STALL)
            if not eligible[j]:
                return "optimal", iterations
            sigma = 1.0 if d[j] < 0 else -1.0

            w = binv @ A[:, j]
            rows = (np.abs(w) > _TOL).nonzero()[0]  # the others never block
            # ratio test and Bland's leaving choice (the smallest basic column
            # among tied ratios) in one pass over the moving rows' floats;
            # a NaN ratio reads as no block and a negative one as zero
            cols = basis[rows]
            block, leaving = inf, -1
            for row, col, w_row, x in zip(rows.tolist(), cols.tolist(), w[rows].tolist(), xb[rows].tolist()):
                delta = -sigma * w_row  # movement of the basic value per unit step
                theta = (up_list[col] - x) / abs(delta) if delta > 0 else (x - lo_list[col]) / abs(delta)
                if theta != theta:
                    theta = inf
                elif theta < 0.0:
                    theta = 0.0
                if theta < block or (theta == block and col < leaving):
                    block, leaving, p, hit_upper = theta, col, row, delta > 0
            self_theta = up_list[j] - lo_list[j] if status[j] != _FREE else inf

            if block == inf and not isfinite(self_theta):
                return "unbounded", iterations
            iterations += 1

            if self_theta <= block:
                # entering variable swings to its opposite bound; basis unchanged
                to_upper = status[j] == _AT_LO
                status[j] = _AT_UP if to_upper else _AT_LO
                sign[j] = 1.0 if to_upper else -1.0
                xn[j] = up_list[j] if to_upper else lo_list[j]
                stale = True
                degenerate = 0
                continue
            degenerate = degenerate + 1 if block == 0.0 else 0

            status[leaving] = _AT_UP if hit_upper else _AT_LO
            sign[leaving] = (1.0 if hit_upper else -1.0) if up_list[leaving] > lo_list[leaving] else 0.0
            basis[p] = j
            if status[j] == _FREE:
                free = free[free != j]
            status[j] = _BASIC
            sign[j] = 0.0
            x_leaving = up_list[leaving] if hit_upper else lo_list[leaving]
            stale = xn[j] != 0.0 or x_leaving != 0.0
            xn[j] = 0.0
            xn[leaving] = x_leaving

            # update the explicit inverse with the pivot row operations, on
            # the rows where the entering column has an entry
            piv = w[p]
            if abs(piv) < 1e-11 or self.pivots_since_refresh >= _REFRESH:
                self.refactor()
            else:
                binv[p] /= piv
                w[p] = 0.0  # the pivot row is done; the nonzeros left are the rows to update
                others = w.nonzero()[0]
                binv[others] -= w[others, None] * binv[p]
                self.pivots_since_refresh += 1


def _start(Afull: np.ndarray, c: np.ndarray, lo: np.ndarray, up: np.ndarray, start: np.ndarray,
           carried: np.ndarray | None = None):
    """The core over the basis of ``start``, a status over the columns of
    ``Afull``, or the reason it cannot be used: it has not one basic entry
    per row, or its basis matrix is singular.  Returns the outcome
    (``LPSolution.warm_start``), the core or None, the residual scale of
    phase 1 and how the basis was inverted (``LPSolution.start_inverse``).
    ``carried``, an inverse of the basis matrix with its rows in the order
    of the basic entries, is used if it passes ``inverts``; otherwise
    ``invert_basis`` inverts the basis matrix.  Nonbasic entries without a
    finite bound to sit at move to one that is, or to zero if free.  Basic
    values outside their bounds are clipped onto them, and the artificial
    column ``g = B (x_B - clip(x_B))``, nonbasic at its upper bound 1,
    carries the difference; its phase-1 cost is its largest entry, so the
    phase-1 objective is in row units."""
    m, n_all = Afull.shape
    if start.shape != (n_all,) or np.count_nonzero(start == _BASIC) != m:
        return "wrong size", None, 0.0, None
    basis = np.flatnonzero(start == _BASIC)
    B = Afull[:, basis]
    if carried is not None and carried.shape != B.shape:
        carried = None  # not an inverse of this basis matrix at all
    if carried is not None and inverts(carried, B):
        binv, how = carried.copy(), "carried"  # the pivots update it in place
    else:
        binv, how = invert_basis(B), "none carried" if carried is None else "inaccurate"
    if binv is None:
        return "singular", None, 0.0, None
    finite_lo, finite_up = np.isfinite(lo), np.isfinite(up)
    kept = (start == _BASIC) | ((start == _AT_LO) & finite_lo) | ((start == _AT_UP) & finite_up)
    status = np.where(kept, start, np.where(finite_lo, _AT_LO, np.where(finite_up, _AT_UP, _FREE))).astype(np.int64)

    b = np.zeros(m)
    xb = binv @ (b - Afull @ _nonbasic_values(lo, up, status))
    excess = xb - np.minimum(np.maximum(xb, lo[basis]), up[basis])
    if not np.any(np.abs(excess) > _TOL):
        core = _Core(Afull, b, np.concatenate([c, np.zeros(m)]), lo, up, basis, status, binv)
        return "accepted", core, 0.0, how
    g = B @ excess
    scale = float(np.abs(g).max())
    c1 = np.zeros(n_all + 1)
    c1[-1] = scale
    core = _Core(
        np.concatenate([Afull, g[:, None]], axis=1), b, c1, np.append(lo, 0.0), np.append(up, 1.0),
        basis, np.append(status, _AT_UP), binv,
    )
    return "accepted", core, scale, how


def solve_lp(lp: LinearProgram, options: SolveOptions | None = None) -> LPSolution:
    """Solve a LinearProgram; deterministic for fixed inputs.

    Runs the two-phase simplex on min c.x s.t. row_lo <= Ax <= row_up,
    col_lo <= x <= col_up over the augmented system ``[A  -I] [x; r] = 0``,
    then, when the program carries ``tiebreak``, phase 3: min tiebreak.x
    over the optima of c.  A program without rows takes the same phases:
    each column swings to the bound its cost prefers, and one with no
    finite bound that way reads ``unbounded``.

    Infeasibility and unboundedness are reported via the status field, not
    raised.  On iteration_limit the best iterate reached is returned; a
    limit reached while minimizing ``lp.tiebreak`` still returns the optimal
    point reached.  ``iterations`` counts the pivots and bound swings of
    every phase.

    ``options.basis`` warm-starts the solve from a basis in the program's
    layout; a basis of the wrong size or a singular one is set aside for the
    slack basis of a cold start, and ``warm_start`` says which happened.
    The start basis's ``inverse`` replaces ``inv`` of its basis matrix when
    it passes the check, and ``start_inverse`` says whether it did.  An
    optimal solution carries its final basis in the same layout, with the
    final inverse unless an artificial column was still basic.
    """
    options = options or SolveOptions()
    lp.validate()
    n, m = lp.n_cols, lp.n_rows
    Afull = lp.augmented_matrix()
    lo = np.concatenate([lp.col_lo, lp.row_lo])
    up = np.concatenate([lp.col_up, lp.row_up])

    given, warm, core, how = options.basis, None, None, None
    if given is not None and (given.cols.shape, given.rows.shape) != ((n,), (m,)):
        warm = "wrong size"
    elif given is not None:
        warm, core, scale, how = _start(Afull, lp.c, lo, up, np.concatenate([given.cols, given.rows]), given.inverse)
    if core is None:  # the slack basis, -I, is never rejected
        _, core, scale, _ = _start(Afull, lp.c, lo, up, np.repeat([_AT_LO, _BASIC], [n, m]))
    phases, state = [0, 0, 0], None
    if core.A.shape[1] > n + m:
        # phase 1: minimize the artificial
        phase1, phases[0] = core.iterate(options.max_iterations)
        if phase1 == "iteration_limit":
            state = phase1
        elif float(core.c @ core.full_x()) > _TOL * max(1.0, scale):
            state = "infeasible"
        else:
            # keep the artificial pinned at zero through phases 2 and 3
            core.lo[n + m :] = 0.0
            core.up[n + m :] = 0.0
            core.c = np.concatenate([lp.c, np.zeros(core.A.shape[1] - n)])
    if state is None:
        state, phases[1] = core.iterate(options.max_iterations - phases[0])
    if state == "optimal" and lp.tiebreak is not None:
        # phase 3: fix every nonbasic column that the price duals price at
        # its bound, which leaves the optimal face, and minimize the tie-break
        # cost over it; whatever the phase ends in, the point stays optimal
        d = core.c - (core.c[core.basis] @ core.binv) @ core.A
        priced = np.abs(d) > _TOL
        at_lo, at_up = priced & (core.status == _AT_LO), priced & (core.status == _AT_UP)
        core.up[at_lo] = core.lo[at_lo]
        core.lo[at_up] = core.up[at_up]
        core.c = np.zeros_like(core.c)
        core.c[:n] = lp.tiebreak
        _, phases[2] = core.iterate(options.max_iterations - phases[0] - phases[1])

    x, basis = core.full_x()[:n], None
    if state == "optimal":
        # tidy roundoff against the declared bounds
        x = np.minimum(np.maximum(x, lp.col_lo), lp.col_up)
        # the artificial, if still basic (at zero), hands its place to the
        # nonbasic row logical with the largest entry in its row of the
        # inverse, which enters at its current value; the inverse is then
        # that of another basis and is not handed on.  Otherwise the rows
        # of the final inverse go in the order of the basic entries.
        final, binv = core.status[: n + m].copy(), None
        left = np.flatnonzero(core.basis >= n + m)
        if left.size:
            logicals = np.flatnonzero(final[n:] != _BASIC)
            final[n + logicals[np.abs(core.binv[left[0], logicals]).argmax()]] = _BASIC
        else:
            binv = core.binv.take(np.argsort(core.basis), axis=0)
        basis = Basis(final[:n], final[n:], binv)
    objective = float(lp.c @ x) if state in ("optimal", "iteration_limit") else np.nan
    return LPSolution(state, x, objective, sum(phases), basis, tuple(phases), warm, how)
