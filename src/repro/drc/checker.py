"""Design-rule checking on squish patterns.

Checks run directly on the squish representation, which is exact for
Manhattan geometry: run extents along rows/columns give widths and spaces,
and connected components give polygon areas.  Corner-touching polygons are a
zero-space violation that no geometry assignment can repair.

The hot path is fully vectorized: run extents come from
:class:`~repro.geometry.grid.RunSet` (all scan lines at once), and the row
run set, built once, also yields the polygon labels and the per-polygon
areas and bounding boxes, so a DRC pass costs a handful of NumPy sweeps
instead of a Python loop per run.  Violation
objects are only materialised for the (few) offending runs/polygons, in the
same order the scalar reference produces them — :func:`check_pattern` with
``engine="reference"`` dispatches to :mod:`repro.drc.reference`, the
property-tested ground truth.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.drc.rules import DesignRules
from repro.drc.violations import DRCReport, GridRegion, Violation
from repro.geometry.grid import (
    RunSet,
    column_run_set,
    diagonal_touch_pairs,
    label_runs,
    paint_runs,
    row_run_set,
)
from repro.squish.pattern import SquishPattern

ENGINES = ("vectorized", "reference")


def check_pattern(
    pattern: SquishPattern, rules: DesignRules, engine: str = "vectorized"
) -> DRCReport:
    """Run all rule checks and return the full violation report."""
    if engine == "reference":
        from repro.drc.reference import reference_check_pattern

        return reference_check_pattern(pattern, rules)
    if engine != "vectorized":
        raise ValueError(f"unknown DRC engine {engine!r}; choose from {ENGINES}")
    report = DRCReport()
    # One row run set serves the x-axis run check and the labelling; one
    # labelling serves both the corner and the area check.
    rows = row_run_set(pattern.topology)
    run_labels, n_polygons = label_runs(rows, connectivity=4)
    report.violations.extend(_check_runs(pattern, rules, rows))
    report.violations.extend(
        _check_corners(pattern, paint_runs(rows, run_labels))
    )
    report.violations.extend(
        _check_areas(pattern, rules, rows, run_labels, n_polygons)
    )
    return report


def is_legal(
    pattern: SquishPattern, rules: DesignRules, engine: str = "vectorized"
) -> bool:
    """Definition 1: the pattern is legal iff DRC-clean."""
    return check_pattern(pattern, rules, engine=engine).is_clean


def _axis_run_violations(
    run_set: RunSet, coords: np.ndarray, rules: DesignRules, axis: str
) -> List[Violation]:
    """Vectorized width/space screening of one axis' runs.

    Runs touching the window border are exempt: the clipped shape continues
    outside the pattern (standard window-DRC convention).
    """
    lengths = coords[run_set.stop] - coords[run_set.start]
    interior = run_set.interior
    filled = run_set.value == 1
    bad = interior & np.where(
        filled, lengths < rules.min_width, lengths < rules.min_space
    )
    violations: List[Violation] = []
    for pos in np.flatnonzero(bad):
        index = int(run_set.index[pos])
        start = int(run_set.start[pos])
        last = int(run_set.stop[pos]) - 1
        if axis == "x":
            region = GridRegion(index, start, index, last)
        else:
            region = GridRegion(start, index, last, index)
        if filled[pos]:
            rule, required = "width", rules.min_width
        else:
            rule, required = "space", rules.min_space
        violations.append(
            Violation(rule, region, int(lengths[pos]), required, axis=axis)
        )
    return violations


def _check_runs(
    pattern: SquishPattern, rules: DesignRules, rows: RunSet
) -> List[Violation]:
    """Width of 1-runs and space of interior 0-runs, both axes.

    ``rows`` is the pattern's row run set, shared with the labelling.
    """
    xs = np.concatenate(([0], np.cumsum(pattern.dx)))
    ys = np.concatenate(([0], np.cumsum(pattern.dy)))
    violations = _axis_run_violations(rows, xs, rules, "x")
    violations.extend(
        _axis_run_violations(column_run_set(pattern.topology), ys, rules, "y")
    )
    return violations


def _check_corners(
    pattern: SquishPattern, labels: np.ndarray
) -> List[Violation]:
    """Distinct polygons touching only at a corner (zero spacing)."""
    violations: List[Violation] = []
    for row, col in diagonal_touch_pairs(pattern.topology, labels=labels):
        region = GridRegion(row, col, row + 1, col + 1)
        violations.append(Violation("corner", region, 0, 1))
    return violations


def _check_areas(
    pattern: SquishPattern,
    rules: DesignRules,
    rows: RunSet,
    run_labels: np.ndarray,
    n_polygons: int,
) -> List[Violation]:
    """Polygon area against ``min_area`` (border-touching polygons exempt).

    Works on the labelled row runs: after a stable sort by label, each
    polygon's runs are one contiguous group, and ``reduceat`` over the
    groups gives its exact integer area (run area = ``dy[row]`` times the
    run's physical width) and its bounding box in cells.
    """
    if n_polygons == 0:
        return []
    filled = np.flatnonzero(run_labels)
    order = np.argsort(run_labels[filled], kind="stable")
    runs = filled[order]
    groups = np.searchsorted(
        run_labels[runs], np.arange(1, n_polygons + 1, dtype=run_labels.dtype)
    )
    row = rows.index[runs]
    start = rows.start[runs]
    stop = rows.stop[runs]
    xs = np.concatenate(([0], np.cumsum(pattern.dx)))
    run_areas = pattern.dy[row].astype(np.int64) * (xs[stop] - xs[start])
    areas = np.add.reduceat(run_areas, groups)
    row0 = np.minimum.reduceat(row, groups)
    row1 = np.maximum.reduceat(row, groups)
    col0 = np.minimum.reduceat(start, groups)
    col1 = np.maximum.reduceat(stop, groups) - 1
    n_rows, n_cols = pattern.shape
    interior = (
        (row0 > 0) & (col0 > 0) & (row1 < n_rows - 1) & (col1 < n_cols - 1)
    )
    violations: List[Violation] = []
    for i in np.flatnonzero(interior & (areas < rules.min_area)):
        region = GridRegion(
            int(row0[i]), int(col0[i]), int(row1[i]), int(col1[i])
        )
        violations.append(
            Violation("area", region, int(areas[i]), rules.min_area)
        )
    return violations
