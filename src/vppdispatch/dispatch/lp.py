"""Linear program container and MPS text export.

A LinearProgram stores the objective, a sparse triplet constraint matrix
and two-sided row and column bounds.  A dispatch program's ``meta`` maps
each (quantity, device, step) to its column and row indices, so solutions
can be mapped back to dispatch series.  An optional secondary cost,
``tiebreak``, picks one point among the optima of ``c``: the solver
minimizes it over the optimal face without moving ``c . x``.  The
solver works on the augmented system ``[A  -I] [x; r] = 0``, the row
activities ``r`` carrying the row bounds.  A dispatch program carries
that matrix as ``augmented``: it depends on the program's shape alone, so
it and the triplets are built once per shape and shared, read-only, by
every program of that shape.  ``augmented`` is no constructor argument:
the builder sets it after construction, so a program built by hand, or
copied with ``dataclasses.replace``, carries none, and ``solve_lp``, the
solver's entry, builds ``[A  -I]`` from its triplets
(``augmented_system``) at each solve.  A Basis
states a simplex basis in the program's own layout: the status of every
column and of every row's logical, and, when known, the inverse of its
basis matrix.  The MPS writer produces a fixed-layout
file any external LP solver can read, for hand cross-checks, labelling a
dispatch program's columns from its layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

# basis status of a column or a row logical: nonbasic at its lower bound,
# at its upper bound, nonbasic free at zero, or basic
AT_LO, AT_UP, FREE, BASIC = 0, 1, 2, 3


@dataclass
class LinearProgram:
    c: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    row_lo: np.ndarray
    row_up: np.ndarray
    col_lo: np.ndarray
    col_up: np.ndarray
    meta: dict = field(default_factory=dict)
    tiebreak: np.ndarray | None = None  # secondary cost over the optima of c; not written to MPS
    # [A  -I] of the triplets, read-only and shared by the programs of one shape; None builds it per solve.
    # Only the builder sets it, after construction, so a copy made with new triplets does not keep it.
    augmented: np.ndarray | None = field(default=None, init=False)

    @property
    def n_rows(self) -> int:
        return self.row_lo.shape[0]

    @property
    def n_cols(self) -> int:
        return self.c.shape[0]

    def validate(self) -> None:
        n, m = self.n_cols, self.n_rows
        if not (n == self.col_lo.shape[0] == self.col_up.shape[0]):
            raise ValueError("column arrays disagree")
        if self.tiebreak is not None and self.tiebreak.shape != (n,):
            raise ValueError("tie-break cost and column count disagree")
        if self.row_up.shape[0] != m:
            raise ValueError("row bound arrays disagree")
        if self.augmented is not None and self.augmented.shape != (m, n + m):
            raise ValueError("augmented matrix and program shape disagree")
        if self.a_rows.shape != self.a_cols.shape or self.a_rows.shape != self.a_vals.shape:
            raise ValueError("triplet arrays disagree")
        if m and self.a_rows.size and (self.a_rows.max() >= m or self.a_rows.min() < 0):
            raise ValueError("triplet row index out of range")
        if self.a_cols.size and (self.a_cols.max() >= n or self.a_cols.min() < 0):
            raise ValueError("triplet column index out of range")
        if np.any(self.row_lo > self.row_up) or np.any(self.col_lo > self.col_up):
            raise ValueError("lower bound exceeds upper bound")

    def dense(self) -> np.ndarray:
        """``A``, the first ``n_cols`` columns of ``augmented_matrix()``."""
        return self.augmented_matrix()[:, : self.n_cols]

    def augmented_matrix(self) -> np.ndarray:
        """``[A  -I]``, the matrix of the augmented system the solver works
        on: ``augmented`` when the program carries it, else built from the
        triplets."""
        if self.augmented is not None:
            return self.augmented
        return augmented_system(self.n_rows, self.n_cols, self.a_rows, self.a_cols, self.a_vals)


def augmented_system(m: int, n: int, a_rows: np.ndarray, a_cols: np.ndarray, a_vals: np.ndarray) -> np.ndarray:
    """``[A  -I]`` for the m-by-n matrix ``A`` of the triplets, duplicate
    entries summed in triplet order; the identity block keeps the signed
    zeros of ``-np.eye``."""
    A = np.zeros((m, n))
    np.add.at(A, (a_rows, a_cols), a_vals)
    return np.concatenate([A, -np.eye(m)], axis=1)


def invert_basis(B: np.ndarray) -> np.ndarray | None:
    """The inverse of the basis matrix ``B``, or None when ``B`` is singular:
    ``inv`` raises, or the inverse fails ``inverts``."""
    try:
        binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    return binv if inverts(binv, B) else None


def inverts(binv: np.ndarray, B: np.ndarray) -> bool:
    """Whether ``B @ binv`` misses the identity by at most 1e-9 in every
    entry (a condition number would cost an SVD); a NaN fails."""
    if binv.shape != B.shape:
        return False
    residual = B @ binv
    residual.flat[:: B.shape[0] + 1] -= 1.0
    return np.abs(residual, out=residual).max(initial=0.0) <= 1e-9


@dataclass(frozen=True)
class Basis:
    """Status codes (``AT_LO``, ``AT_UP``, ``FREE``, ``BASIC``) of every
    column and of every row logical, the activity ``r_i = A_i . x`` that
    carries row i's bounds.  A basis of a program with m rows has m basic
    entries.

    ``inverse``, when known, is the inverse of the basis matrix: the
    columns of ``[A  -I]`` at the basic entries, columns before row
    logicals and each in index order.  Its rows follow those entries and
    its columns the program's rows.  The solver checks it before use."""

    cols: np.ndarray
    rows: np.ndarray
    inverse: np.ndarray | None = None


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray
    objective: float
    iterations: int
    basis: Basis | None = None  # the final basis, when optimal
    phase_iterations: tuple[int, int, int] = (0, 0, 0)  # pivots of phases 1, 2 and 3
    # None when no start basis was given; "accepted", or why the start basis
    # was rejected for a cold start from the slack basis ("wrong size", "singular")
    warm_start: str | None = None
    # how an accepted start basis was inverted: "carried", its own inverse
    # passed the check; else why inv ran ("none carried", "inaccurate")
    start_inverse: str | None = None


# the devices along the first axis of each per-device quantity of a layout
_QUANTITY_DEVICES = {"gen": "generators", "charge": "storages", "discharge": "storages", "soc": "storages"}


def _column_labels(lp: LinearProgram, short: list[str]) -> list[str]:
    """``quantity[.device].t<step>`` for every column of a program with a
    dispatch layout (``meta["columns"]`` and the device ids); the short
    names for any other program."""
    layout = lp.meta.get("columns")
    if layout is None:
        return short
    labels = list(short)
    for q, index in layout.items():
        devices = lp.meta[_QUANTITY_DEVICES[q]] if q in _QUANTITY_DEVICES else [""]
        for device, steps in zip(devices, np.atleast_2d(index).tolist()):
            prefix = f"{q}.{device}" if device else q
            for t, j in enumerate(steps):
                labels[j] = f"{prefix}.t{t}"
    return labels


def write_mps(lp: LinearProgram, path: str, name: str = "VPPLP") -> None:
    """Write the program in MPS layout (rows as L/G/E plus RANGES for
    two-sided rows).  Short generated names are used in the data sections;
    the column labels are listed in leading comment lines."""
    m, n = lp.n_rows, lp.n_cols
    rname = [f"R{i:07d}" for i in range(m)]
    cname = [f"C{j:07d}" for j in range(n)]

    entries: dict[int, list[tuple[int, float]]] = {j: [] for j in range(n)}
    for r, c_, v in zip(lp.a_rows, lp.a_cols, lp.a_vals):
        entries[int(c_)].append((int(r), float(v)))

    lines = [f"* column map ({n} columns)"]
    for j, label in enumerate(_column_labels(lp, cname)):
        lines.append(f"* {cname[j]} = {label}")
    lines.append(f"NAME          {name}")
    lines.append("ROWS")
    lines.append(" N  COST")
    row_kind = []
    for i in range(m):
        lo, up = lp.row_lo[i], lp.row_up[i]
        if lo == up:
            kind = "E"
        elif np.isfinite(up):
            kind = "L"
        elif np.isfinite(lo):
            kind = "G"
        else:
            kind = "N"  # free row
        row_kind.append(kind)
        lines.append(f" {kind}  {rname[i]}")
    lines.append("COLUMNS")
    for j in range(n):
        if lp.c[j] != 0.0:
            lines.append(f"    {cname[j]}  COST  {lp.c[j]:.17g}")
        for r, v in entries[j]:
            lines.append(f"    {cname[j]}  {rname[r]}  {v:.17g}")
    lines.append("RHS")
    for i in range(m):
        if row_kind[i] in ("E", "G"):
            rhs = lp.row_lo[i]
        elif row_kind[i] == "L":
            rhs = lp.row_up[i]
        else:
            continue
        if rhs != 0.0:
            lines.append(f"    RHS  {rname[i]}  {rhs:.17g}")
    lines.append("RANGES")
    for i in range(m):
        lo, up = lp.row_lo[i], lp.row_up[i]
        if row_kind[i] == "L" and np.isfinite(lo) and lo != up:
            lines.append(f"    RNG  {rname[i]}  {up - lo:.17g}")
    lines.append("BOUNDS")
    for j in range(n):
        lo, up = lp.col_lo[j], lp.col_up[j]
        if lo == up:
            lines.append(f" FX BND  {cname[j]}  {lo:.17g}")
            continue
        if np.isfinite(lo):
            if lo != 0.0:
                lines.append(f" LO BND  {cname[j]}  {lo:.17g}")
        else:
            lines.append(f" MI BND  {cname[j]}")
        if np.isfinite(up):
            lines.append(f" UP BND  {cname[j]}  {up:.17g}")
    lines.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
