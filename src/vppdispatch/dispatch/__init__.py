"""Linear programming layer: model builders, solver and plan extraction."""

from .build import build_deterministic, build_stochastic, extract_plan, shift_basis
from .lp import Basis, LinearProgram, LPSolution, write_mps
from .simplex import SolveOptions, solve_lp

__all__ = [
    "build_deterministic",
    "build_stochastic",
    "extract_plan",
    "shift_basis",
    "Basis",
    "LinearProgram",
    "LPSolution",
    "write_mps",
    "SolveOptions",
    "solve_lp",
]
