"""Topology legalization: interval constraints, solvers, f_R(F, T)."""

from repro.legalize.constraints import (
    IntervalConstraint,
    extract_axis_constraints,
    requirement_per_line,
)
from repro.legalize.legalizer import (
    LegalizationResult,
    legalize,
)
from repro.legalize.solver import (
    AxisInfeasibleError,
    AxisSolution,
    solve_axis,
    solve_axis_lp,
)

__all__ = [
    "AxisInfeasibleError",
    "AxisSolution",
    "IntervalConstraint",
    "LegalizationResult",
    "extract_axis_constraints",
    "legalize",
    "requirement_per_line",
    "solve_axis",
    "solve_axis_lp",
]
