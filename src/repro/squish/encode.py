"""Encoding a rectangle layout into a squish pattern.

Scan lines are drawn along every polygon edge inside the window; intervals
between consecutive scan lines become the delta vectors and each grid cell is
marked filled iff it is covered by a shape (Figure 2 of the paper).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.geometry.rect import Rect, clip_rects
from repro.squish.pattern import SquishPattern


def scan_lines(rects: Sequence[Rect], window: Rect) -> tuple:
    """Compute x and y scan-line coordinates for ``rects`` inside ``window``.

    The window edges are always included, so an empty window still yields a
    valid 1x1 squish grid.
    """
    xs = {window.x0, window.x1}
    ys = {window.y0, window.y1}
    for r in rects:
        xs.update((r.x0, r.x1))
        ys.update((r.y0, r.y1))
    return (np.array(sorted(xs), dtype=np.int64), np.array(sorted(ys), dtype=np.int64))


def encode_rects(
    rects: Iterable[Rect],
    window: Rect,
    style: Optional[str] = None,
) -> SquishPattern:
    """Squish-encode rectangles clipped to ``window``.

    The resulting pattern's origin is the window's lower-left corner; deltas
    sum exactly to the window dimensions.
    """
    clipped = clip_rects(rects, window)
    xs, ys = scan_lines(clipped, window)
    dx = np.diff(xs)
    dy = np.diff(ys)
    # Rect edges are scan lines by construction, so coverage is exact.
    # Each rect marks its four grid corners +1/-1 on a difference grid,
    # whose 2-D prefix sums count the rects covering every cell.
    edges = np.array(
        [(r.x0, r.x1, r.y0, r.y1) for r in clipped], dtype=np.int64
    ).reshape(-1, 4)
    c0, c1 = np.searchsorted(xs, edges[:, 0]), np.searchsorted(xs, edges[:, 1])
    r0, r1 = np.searchsorted(ys, edges[:, 2]), np.searchsorted(ys, edges[:, 3])
    marks = np.zeros((dy.shape[0] + 1, dx.shape[0] + 1), dtype=np.int64)
    np.add.at(
        marks,
        (np.concatenate((r0, r0, r1, r1)), np.concatenate((c0, c1, c0, c1))),
        np.repeat([1, -1, -1, 1], len(clipped)),
    )
    cover = marks.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    topology = (cover > 0).astype(np.uint8)
    return SquishPattern(topology=topology, dx=dx, dy=dy, style=style)


def resquish(pattern: SquishPattern) -> SquishPattern:
    """Remove redundant scan lines (identical adjacent rows/columns).

    A generated topology matrix often contains adjacent duplicate columns or
    rows; the canonical squish form merges them, summing their deltas.  The
    physical layout is unchanged.
    """
    t = pattern.topology
    keep_cols = _distinct_mask(t.T)
    t2 = t[:, keep_cols]
    keep_rows = _distinct_mask(t2)
    return SquishPattern(
        topology=t2[keep_rows],
        dx=_merged_deltas(pattern.dx, keep_cols),
        dy=_merged_deltas(pattern.dy, keep_rows),
        style=pattern.style,
    )


def _merged_deltas(deltas: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each kept stripe's delta plus those of the dropped stripes before it
    (the last stripe is always kept, so no delta is lost)."""
    ends = np.cumsum(np.asarray(deltas, dtype=np.int64))[keep]
    return np.diff(ends, prepend=0)


def _distinct_mask(t: np.ndarray) -> np.ndarray:
    """Mask of rows that differ from the *next* row (last row always kept).

    When merging duplicates we keep the last row of each duplicate block so
    accumulated deltas attach to it.
    """
    keep = np.ones(t.shape[0], dtype=bool)
    keep[:-1] = (t[:-1] != t[1:]).any(axis=1)
    return keep
