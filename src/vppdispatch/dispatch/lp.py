"""Linear program container and MPS text export.

A LinearProgram stores the objective, a sparse triplet constraint matrix,
two-sided row and column bounds, and a name table mapping every column to
(quantity, device, timestamp) so solutions can be mapped back to dispatch
series.  The MPS writer produces a fixed-layout file any external
LP solver can read, for hand cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INF = float("inf")


@dataclass(frozen=True)
class ColumnName:
    quantity: str  # grid | gen | charge | discharge | soc
    device: str
    timestamp: int

    def label(self) -> str:
        base = f"{self.quantity}"
        if self.device:
            base += f".{self.device}"
        return base + f".t{self.timestamp}"


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
    col_names: list[ColumnName]
    meta: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.row_lo.shape[0]

    @property
    def n_cols(self) -> int:
        return self.c.shape[0]

    def validate(self) -> None:
        n, m = self.n_cols, self.n_rows
        if not (len(self.col_names) == n == self.col_lo.shape[0] == self.col_up.shape[0]):
            raise ValueError("column arrays and name table sizes disagree")
        if self.row_up.shape[0] != m:
            raise ValueError("row bound arrays disagree")
        if self.a_rows.shape != self.a_cols.shape or self.a_rows.shape != self.a_vals.shape:
            raise ValueError("triplet arrays disagree")
        if m and self.a_rows.size and (self.a_rows.max() >= m or self.a_rows.min() < 0):
            raise ValueError("triplet row index out of range")
        if self.a_cols.size and (self.a_cols.max() >= n or self.a_cols.min() < 0):
            raise ValueError("triplet column index out of range")
        if np.any(self.row_lo > self.row_up) or np.any(self.col_lo > self.col_up):
            raise ValueError("lower bound exceeds upper bound")
        if len(set(self.col_names)) != n:
            raise ValueError("column names must be unique")

    def dense(self) -> np.ndarray:
        A = np.zeros((self.n_rows, self.n_cols))
        np.add.at(A, (self.a_rows, self.a_cols), self.a_vals)
        return A

    def column_index(self) -> dict[str, int]:
        return {nm.label(): j for j, nm in enumerate(self.col_names)}


class LPBuilder:
    """Incremental triplet assembly used by the model builders."""

    def __init__(self):
        self.c: list[float] = []
        self.col_lo: list[float] = []
        self.col_up: list[float] = []
        self.col_names: list[ColumnName] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.row_lo: list[float] = []
        self.row_up: list[float] = []

    def add_col(self, name: ColumnName, lo: float, up: float, cost: float = 0.0) -> int:
        self.col_names.append(name)
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

    def build(self, meta: dict | None = None) -> LinearProgram:
        lp = LinearProgram(
            c=np.asarray(self.c, dtype=np.float64),
            a_rows=np.asarray(self.rows, dtype=np.int64),
            a_cols=np.asarray(self.cols, dtype=np.int64),
            a_vals=np.asarray(self.vals, dtype=np.float64),
            row_lo=np.asarray(self.row_lo, dtype=np.float64),
            row_up=np.asarray(self.row_up, dtype=np.float64),
            col_lo=np.asarray(self.col_lo, dtype=np.float64),
            col_up=np.asarray(self.col_up, dtype=np.float64),
            col_names=list(self.col_names),
            meta=dict(meta or {}),
        )
        lp.validate()
        return lp


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray
    objective: float
    iterations: int


def write_mps(lp: LinearProgram, path: str, name: str = "VPPLP") -> None:
    """Write the program in MPS layout (rows as L/G/E plus RANGES for
    two-sided rows).  Short generated names are used in the data sections;
    the real column labels are listed in leading comment lines."""
    m, n = lp.n_rows, lp.n_cols
    rname = [f"R{i:07d}" for i in range(m)]
    cname = [f"C{j:07d}" for j in range(n)]

    entries: dict[int, list[tuple[int, float]]] = {j: [] for j in range(n)}
    for r, c_, v in zip(lp.a_rows, lp.a_cols, lp.a_vals):
        entries[int(c_)].append((int(r), float(v)))

    lines = [f"* column map ({n} columns)"]
    for j, nm in enumerate(lp.col_names):
        lines.append(f"* {cname[j]} = {nm.label()}")
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
