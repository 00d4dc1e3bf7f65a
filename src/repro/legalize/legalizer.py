"""The non-linear legalization function ``f_R(F, T)`` (Eq. 13).

Given a topology matrix ``T``, a physical size ``F`` and a rule deck ``R``,
the legalizer assigns delta vectors so the decoded pattern is DRC-clean.
Width/Space rules are linear interval constraints solved exactly per axis;
the Area rule couples the axes and is handled by an iterative repair loop
(the "non-linear" part).  On failure the legalizer *explains itself*: the log
and ``failed_region`` identify the cells responsible, which is what enables
the LLM agent's mistake processing (Section 4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.drc.checker import check_pattern
from repro.drc.rules import DesignRules
from repro.drc.violations import DRCReport, GridRegion
from repro.geometry.grid import as_topology, diagonal_touch_pairs
from repro.legalize.constraints import (
    IntervalConstraint,
    extract_axis_constraints,
    requirement_per_line,
)
from repro.legalize.solver import AxisInfeasibleError, solve_axis
from repro.squish.pattern import SquishPattern


@dataclass
class LegalizationResult:
    """Outcome of one legalization attempt.

    Attributes:
        ok: True iff a DRC-clean pattern was produced.
        pattern: the legal pattern (None on failure).
        log: chronological solver messages, consumed by the agent.
        failed_region: grid region to blame on failure (None on success).
        report: final DRC report when a geometry was produced.
        area_iterations: how many area-repair rounds ran.
    """

    ok: bool
    pattern: Optional[SquishPattern] = None
    log: List[str] = field(default_factory=list)
    failed_region: Optional[GridRegion] = None
    report: Optional[DRCReport] = None
    area_iterations: int = 0

    def log_text(self) -> str:
        """The log as one string, the form the agent reads."""
        return "\n".join(self.log)


def legalize(
    topology: np.ndarray,
    physical_size: Tuple[int, int],
    rules: DesignRules,
    style: Optional[str] = None,
    max_area_iterations: int = 4,
    engine: str = "vectorized",
) -> LegalizationResult:
    """Legalize ``topology`` into ``physical_size`` nm under ``rules``.

    Pipeline: corner pre-check (unfixable by geometry) -> per-axis interval
    solve -> area check -> iterative area repair -> final full DRC verify.
    ``engine`` selects the run/DRC implementation ("vectorized" is the
    production path; "reference" the scalar ground truth).
    """
    result = LegalizationResult(ok=False)
    t = as_topology(topology)
    width_nm, height_nm = int(physical_size[0]), int(physical_size[1])
    rows, cols = t.shape

    corners = diagonal_touch_pairs(t)
    if corners:
        row, col = corners[0]
        result.failed_region = GridRegion(
            max(0, row - 1), max(0, col - 1),
            min(rows - 1, row + 2), min(cols - 1, col + 2),
        )
        result.log.append(
            f"FAIL corner: {len(corners)} corner-touching polygon pair(s); "
            f"first at cells ({row},{col}); topology-level defect, "
            "no geometry assignment can satisfy the space rule"
        )
        return result

    x_constraints = extract_axis_constraints(t, "x", rules, engine=engine)
    y_constraints = extract_axis_constraints(t, "y", rules, engine=engine)
    result.log.append(
        f"extracted {len(x_constraints)} x / {len(y_constraints)} y "
        f"interval constraints for {rows}x{cols} topology"
    )

    extra_x: List[IntervalConstraint] = []
    extra_y: List[IntervalConstraint] = []
    for iteration in range(max_area_iterations):
        # Count rounds actually run (1-based), matching the success log's
        # "legalized in N round(s)".
        result.area_iterations = iteration + 1
        try:
            sol_x = solve_axis(cols, width_nm, x_constraints + extra_x)
        except AxisInfeasibleError as exc:
            _explain_axis_failure(result, t, "x", rules, exc, rows, cols)
            return result
        try:
            sol_y = solve_axis(rows, height_nm, y_constraints + extra_y)
        except AxisInfeasibleError as exc:
            _explain_axis_failure(result, t, "y", rules, exc, rows, cols)
            return result

        pattern = SquishPattern(
            topology=t.copy(), dx=sol_x.deltas, dy=sol_y.deltas, style=style
        )
        report = check_pattern(pattern, rules, engine=engine)
        result.report = report
        area_violations = [v for v in report.violations if v.rule == "area"]
        other = [v for v in report.violations if v.rule != "area"]
        if other:
            # Cannot happen for a correct solver; fail loudly if it does.
            result.failed_region = other[0].region
            result.log.append("FAIL internal: non-area violation after solve")
            result.log.append(report.summary())
            return result
        if not area_violations:
            result.ok = True
            result.pattern = pattern
            result.log.append(
                f"legalized in {iteration + 1} round(s); "
                f"x slack {sol_x.slack} nm, y slack {sol_y.slack} nm"
            )
            return result

        result.log.append(
            f"area repair round {iteration + 1}: "
            f"{len(area_violations)} undersized polygon(s)"
        )
        grew = _grow_area_constraints(
            pattern, area_violations, rules, extra_x, extra_y
        )
        if not grew:
            result.failed_region = area_violations[0].region
            result.log.append("FAIL area: repair constraints stopped growing")
            return result

    result.failed_region = (
        result.report.worst_region() if result.report else None
    )
    result.log.append(
        f"FAIL area: still violating after {max_area_iterations} repair rounds"
    )
    return result


def _explain_axis_failure(
    result: LegalizationResult,
    topology: np.ndarray,
    axis: str,
    rules: DesignRules,
    exc: AxisInfeasibleError,
    rows: int,
    cols: int,
) -> None:
    """Turn an infeasible axis into an actionable log + failed region."""
    req = requirement_per_line(topology, axis, rules)
    worst_line = int(np.argmax(req))
    a, b = exc.critical_span
    if axis == "x":
        region = GridRegion(worst_line, a, worst_line, max(a, b - 1))
    else:
        region = GridRegion(a, worst_line, max(a, b - 1), worst_line)
    region = region.expanded(2, (rows, cols))
    result.failed_region = region
    result.log.append(
        f"FAIL {axis}-axis: needs {exc.required} nm, budget {exc.total} nm; "
        f"critical span cells [{a},{b}); densest line index {worst_line} "
        f"requires {int(req[worst_line])} nm; "
        f"suggested repair region {region.as_tuple()}"
    )


def _grow_area_constraints(
    pattern: SquishPattern,
    area_violations,
    rules: DesignRules,
    extra_x: List[IntervalConstraint],
    extra_y: List[IntervalConstraint],
) -> bool:
    """Append interval constraints stretching undersized polygons.

    Scales each violating polygon's bounding box by ``sqrt(min_area/area)``
    (the area deficit is split evenly across both axes).  Returns False when
    no constraint got strictly tighter, which means the repair has stalled.
    """
    xs = pattern.x_coords()
    ys = pattern.y_coords()
    existing_x = {(c.start, c.stop): c.min_length for c in extra_x}
    existing_y = {(c.start, c.stop): c.min_length for c in extra_y}
    grew = False
    for violation in area_violations:
        region = violation.region
        scale = math.sqrt(rules.min_area / max(1, violation.measured)) * 1.05
        span_w = int(xs[region.right + 1] - xs[region.left])
        span_h = int(ys[region.bottom + 1] - ys[region.upper])
        want_w = int(math.ceil(span_w * scale))
        want_h = int(math.ceil(span_h * scale))
        key_x = (region.left, region.right + 1)
        key_y = (region.upper, region.bottom + 1)
        if want_w > existing_x.get(key_x, 0):
            existing_x[key_x] = want_w
            grew = True
        if want_h > existing_y.get(key_y, 0):
            existing_y[key_y] = want_h
            grew = True
    extra_x[:] = [
        IntervalConstraint(a, b, length, "area")
        for (a, b), length in sorted(existing_x.items())
    ]
    extra_y[:] = [
        IntervalConstraint(a, b, length, "area")
        for (a, b), length in sorted(existing_y.items())
    ]
    return grew
