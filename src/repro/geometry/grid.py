"""Binary-grid utilities shared by the squish codec, DRC and legalizer.

A topology matrix ``T`` is a 2-D ``uint8`` array whose entries mark filled
(1) versus empty (0) squish cells.  Rows index the y axis (row 0 is the
bottom scan stripe) and columns index the x axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class Run:
    """A maximal run of equal cells inside one row or column.

    ``index`` is the row (for horizontal runs) or column (for vertical runs),
    ``start``/``stop`` delimit the half-open cell span ``[start, stop)`` and
    ``value`` is the cell value (0 or 1).
    """

    index: int
    start: int
    stop: int
    value: int

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class RunSet:
    """All maximal runs of one scan direction, as a struct of arrays.

    The vectorized counterpart of a ``List[Run]``: entry ``i`` of the four
    parallel arrays describes one run, ordered by scan line then start cell
    (the same order the per-line extractors produce).  ``n_cells`` is the
    length of every scan line, so interiority (the window-DRC border
    exemption) is a pure array expression.
    """

    index: np.ndarray  # scan-line index per run (row for "x", column for "y")
    start: np.ndarray
    stop: np.ndarray
    value: np.ndarray
    n_lines: int
    n_cells: int

    def __len__(self) -> int:
        return int(self.index.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """Cell count of every run."""
        return self.stop - self.start

    @property
    def interior(self) -> np.ndarray:
        """Mask of runs not touching either end of their scan line."""
        return (self.start > 0) & (self.stop < self.n_cells)

    def runs(self) -> List[Run]:
        """Materialise per-run :class:`Run` views (compatibility path)."""
        return [
            Run(index=int(i), start=int(a), stop=int(b), value=int(v))
            for i, a, b, v in zip(self.index, self.start, self.stop, self.value)
        ]


def _run_set(lines: np.ndarray) -> RunSet:
    """Extract maximal runs of every row of ``lines`` in one vectorized pass.

    Boundaries are the positions where consecutive cells differ; each line
    contributes ``changes + 1`` runs.  ``np.nonzero`` returns change
    coordinates in row-major order, which is exactly the flattened run order,
    so starts/stops assemble by masked assignment without any Python loop.
    """
    n_lines, n_cells = lines.shape
    diff = lines[:, 1:] != lines[:, :-1]
    runs_per_line = 1 + np.count_nonzero(diff, axis=1)
    total = int(runs_per_line.sum())
    index = np.repeat(np.arange(n_lines, dtype=np.int64), runs_per_line)
    _, change_col = np.nonzero(diff)

    ends = np.cumsum(runs_per_line)
    is_first = np.zeros(total, dtype=bool)
    is_first[ends - runs_per_line] = True
    is_last = np.zeros(total, dtype=bool)
    is_last[ends - 1] = True

    starts = np.zeros(total, dtype=np.int64)
    starts[~is_first] = change_col + 1
    stops = np.full(total, n_cells, dtype=np.int64)
    stops[~is_last] = change_col + 1
    values = lines[index, starts]
    return RunSet(
        index=index,
        start=starts,
        stop=stops,
        value=values,
        n_lines=n_lines,
        n_cells=n_cells,
    )


def row_run_set(topology: np.ndarray) -> RunSet:
    """Vectorized :func:`all_row_runs`: every row's runs in one pass."""
    return _run_set(as_topology(topology))


def column_run_set(topology: np.ndarray) -> RunSet:
    """Vectorized :func:`all_column_runs`: every column's runs in one pass."""
    return _run_set(as_topology(topology).T)


def as_topology(array: np.ndarray) -> np.ndarray:
    """Validate and canonicalise a topology matrix to 2-D ``uint8`` of {0,1}."""
    t = np.asarray(array)
    if t.ndim != 2:
        raise ValueError(f"topology must be 2-D, got shape {t.shape}")
    if t.size == 0:
        raise ValueError("topology must be non-empty")
    t = t.astype(np.uint8, copy=False)
    if t.max() > 1:
        raise ValueError("topology entries must be 0 or 1")
    return t


def row_runs(topology: np.ndarray, row: int) -> List[Run]:
    """Maximal constant runs along one row (scans the x axis)."""
    return _runs_1d(topology[row, :], row)


def column_runs(topology: np.ndarray, col: int) -> List[Run]:
    """Maximal constant runs along one column (scans the y axis)."""
    return _runs_1d(topology[:, col], col)


def _runs_1d(line: np.ndarray, index: int) -> List[Run]:
    change = np.flatnonzero(np.diff(line)) + 1
    bounds = np.concatenate(([0], change, [line.shape[0]]))
    return [
        Run(index=index, start=int(a), stop=int(b), value=int(line[a]))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def all_row_runs(topology: np.ndarray) -> List[Run]:
    """Runs for every row, concatenated (vectorized extraction)."""
    return row_run_set(topology).runs()


def all_column_runs(topology: np.ndarray) -> List[Run]:
    """Runs for every column, concatenated (vectorized extraction)."""
    return column_run_set(topology).runs()


def label_runs(runs: RunSet, connectivity: int = 4) -> Tuple[np.ndarray, int]:
    """Connected-component label of every run of a row :class:`RunSet`.

    Returns ``(labels, count)``: an ``int32`` label per run (0 for empty
    runs) and the number of components.  Two filled runs in adjacent rows
    touch when their cell spans overlap (4-connectivity) or overlap or meet
    at a corner (8-connectivity); the touching pairs are found with two
    ``searchsorted`` calls over all rows at once.  Components are merged by
    hooking the larger of two roots onto the smaller, then pointer jumping
    until every run points at its root.  A root is therefore its
    component's first run in raster order, and components are numbered
    1..count in the raster order of their first cell, exactly as
    ``scipy.ndimage.label`` numbers them.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    labels = np.zeros(len(runs), dtype=np.int32)
    filled = np.flatnonzero(runs.value == 1)
    n = filled.size
    if n == 0:
        return labels, 0
    row = runs.index[filled]
    start = runs.start[filled]
    stop = runs.stop[filled]
    # Sort keys ordering every run by (row, cell): a row's band is
    # ``n_cells + 2`` wide, so the one-cell corner reach never leaves it.
    band = runs.n_cells + 2
    reach = 0 if connectivity == 4 else 1
    below = (row + 1) * band
    # The next row's runs touching a run form one contiguous slice: from
    # the first whose stop passes the run's start to the last whose start
    # precedes its stop, both widened by ``reach``.
    first = np.searchsorted(
        row * band + stop, below + start - reach, side="right"
    )
    end = np.searchsorted(
        row * band + start, below + stop + reach, side="left"
    )
    degree = np.maximum(end - first, 0)
    a = np.repeat(np.arange(n), degree)
    b = np.repeat(first - (np.cumsum(degree) - degree), degree)
    b += np.arange(b.size)

    parent = np.arange(n)
    while True:
        pa, pb = parent[a], parent[b]
        cross = pa != pb
        if not cross.any():
            break
        pa, pb = pa[cross], pb[cross]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = parent == np.arange(n)
    labels[filled] = np.cumsum(roots, dtype=np.int32)[parent]
    return labels, int(np.count_nonzero(roots))


def paint_runs(runs: RunSet, values: np.ndarray) -> np.ndarray:
    """Grid holding ``values[i]`` on every cell of row run ``i``.

    A row run set tiles its grid in row-major order, so this is one
    ``np.repeat`` over the run lengths.
    """
    return np.repeat(values, runs.lengths).reshape(runs.n_lines, runs.n_cells)


def label_components(topology: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """Label 4- or 8-connected components of filled cells.

    Returns an ``int32`` array of the same shape where 0 marks empty cells and
    components are numbered from 1 in raster order of their first cell (the
    numbering of ``scipy.ndimage.label``), computed by :func:`label_runs`
    over the row runs.
    """
    runs = row_run_set(topology)
    labels, _ = label_runs(runs, connectivity)
    return paint_runs(runs, labels)


def component_count(topology: np.ndarray, connectivity: int = 4) -> int:
    """Number of connected polygons in the topology."""
    return label_runs(row_run_set(topology), connectivity)[1]


def diagonal_touch_pairs(
    topology: np.ndarray, labels: np.ndarray = None
) -> List[tuple]:
    """Cells of *different* polygons touching only at a corner.

    Returns a list of ``(row, col)`` positions naming the lower-left cell of
    each offending 2x2 window.  Corner-touching polygons have zero physical
    spacing, which every space rule forbids.  ``labels`` may carry a
    precomputed 4-connected labelling to spare a relabel on hot paths; a
    grid without any diagonal-only 2x2 window needs no labelling at all.
    """
    t = as_topology(topology).view(bool)
    a = t[:-1, :-1]
    b = t[1:, 1:]
    c = t[:-1, 1:]
    d = t[1:, :-1]
    diag1 = a & b & ~c & ~d
    diag2 = c & d & ~a & ~b
    if not (diag1.any() or diag2.any()):
        return []
    if labels is None:
        labels = label_components(t, connectivity=4)
    diag1 &= labels[:-1, :-1] != labels[1:, 1:]
    diag2 &= labels[:-1, 1:] != labels[1:, :-1]
    rows, cols = np.nonzero(diag1 | diag2)
    return [(int(r), int(cc)) for r, cc in zip(rows, cols)]
