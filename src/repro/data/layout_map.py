"""Synthetic layout-map generation (the ICCAD-2014 contest map stand-in).

A layout map is a large field of Manhattan shapes; the dataset builder
splits it into overlapping square tiles.  Maps are DRC-clean by
construction: every randomised dimension is drawn at or above its rule
bound, and shapes never approach each other closer than ``min_space``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np

from repro.data.styles import StyleSpec
from repro.geometry.rect import Rect, clip_rects


@dataclass
class LayoutMap:
    """A generated layout field with window extraction."""

    rects: List[Rect]
    width: int
    height: int
    style: str

    @cached_property
    def _coords(self) -> np.ndarray:
        """``(n, 4)`` int64 array of every rect's ``x0, y0, x1, y1``."""
        return np.array(
            [(r.x0, r.y0, r.x1, r.y1) for r in self.rects], dtype=np.int64
        ).reshape(-1, 4)

    def window(self, x0: int, y0: int, size: int) -> List[Rect]:
        """Rects clipped to the ``size x size`` window at ``(x0, y0)``,
        translated so the window origin is (0, 0).

        A cached ``(n, 4)`` coordinate array screens out the rects without
        positive-area overlap first, so only the few rects that survive
        clipping go through :func:`clip_rects`, in their original order.
        """
        c = self._coords
        x1, y1 = x0 + size, y0 + size
        hit = np.flatnonzero(
            (np.minimum(c[:, 2], x1) > np.maximum(c[:, 0], x0))
            & (np.minimum(c[:, 3], y1) > np.maximum(c[:, 1], y0))
        )
        win = Rect(x0, y0, x1, y1)
        return [
            r.translated(-x0, -y0)
            for r in clip_rects([self.rects[i] for i in hit], win)
        ]


def generate_layout_map(
    spec: StyleSpec, width: int, height: int, rng: np.random.Generator
) -> LayoutMap:
    """Generate one DRC-clean layout map for ``spec``."""
    if spec.kind == "tracks":
        rects = _generate_tracks(spec, width, height, rng)
    elif spec.kind == "blocks":
        rects = _generate_blocks(spec, width, height, rng)
    else:
        raise ValueError(f"unknown style kind {spec.kind!r}")
    return LayoutMap(rects=rects, width=width, height=height, style=spec.name)


def _generate_tracks(
    spec: StyleSpec, width: int, height: int, rng: np.random.Generator
) -> List[Rect]:
    """Routing-like style: orientation-locked strips of wire segments.

    The map is partitioned into vertical strips; each strip holds either
    horizontal or vertical tracks.  Strips are separated by at least
    ``min_space`` so inter-strip spacing can never violate.
    """
    rules = spec.rules
    rects: List[Rect] = []
    x = 0
    while x < width:
        strip_w = spec.snap(
            rng.integers(spec.strip_range[0], spec.strip_range[1] + 1)
        )
        strip_w = min(strip_w, width - x)
        if strip_w < rules.min_width:
            break
        horizontal = rng.random() < 0.6
        rects.extend(
            _fill_tracks(spec, x, 0, strip_w, height, rng, horizontal=horizontal)
        )
        gap = spec.snap(
            rng.integers(rules.min_space, rules.min_space * 3 + 1),
            minimum=rules.min_space,
        )
        x += strip_w + gap
    return rects


def _fill_tracks(
    spec: StyleSpec,
    x0: int,
    y0: int,
    w: int,
    h: int,
    rng: np.random.Generator,
    horizontal: bool,
) -> List[Rect]:
    """Fill one strip with parallel wire segments."""
    rules = spec.rules
    rects: List[Rect] = []
    # Cross-track axis runs over the strip width for vertical wires and the
    # strip height for horizontal wires.
    lateral_extent = h if horizontal else w
    along_extent = w if horizontal else h
    pos = 0
    while True:
        wire_w = int(rng.choice(spec.wire_widths))  # widths are pre-snapped
        if pos + wire_w > lateral_extent:
            break
        # Minimum segment length keeps the Area rule satisfied.
        min_seg = spec.snap(
            max(rules.min_width, -(-rules.min_area // wire_w))
        )
        cursor = 0
        while cursor < along_extent:
            seg = spec.snap(
                rng.integers(spec.segment_range[0], spec.segment_range[1] + 1),
                minimum=min_seg,
            )
            if cursor + seg > along_extent:
                remaining = along_extent - cursor
                if remaining >= min_seg and rng.random() < 0.5:
                    seg = remaining
                else:
                    break
            if rng.random() < spec.fill_probability:
                if horizontal:
                    rects.append(
                        Rect(x0 + cursor, y0 + pos, x0 + cursor + seg, y0 + pos + wire_w)
                    )
                else:
                    rects.append(
                        Rect(x0 + pos, y0 + cursor, x0 + pos + wire_w, y0 + cursor + seg)
                    )
            gap = spec.snap(
                rng.integers(spec.gap_range[0], spec.gap_range[1] + 1),
                minimum=rules.min_space,
            )
            cursor += seg + gap
        space = spec.snap(
            rng.integers(spec.space_range[0], spec.space_range[1] + 1),
            minimum=rules.min_space,
        )
        pos += wire_w + space
    return rects


def _generate_blocks(
    spec: StyleSpec, width: int, height: int, rng: np.random.Generator
) -> List[Rect]:
    """Blocky style: rows of isolated rectangles with generous spacing."""
    rules = spec.rules
    rects: List[Rect] = []
    y = 0
    while y < height:
        row_h = int(rng.choice(spec.wire_widths))  # pre-snapped
        if y + row_h > height:
            break
        x = 0
        while x < width:
            block_w = spec.snap(
                rng.integers(spec.segment_range[0], spec.segment_range[1] + 1),
                minimum=max(rules.min_width, -(-rules.min_area // row_h)),
            )
            if x + block_w > width:
                break
            if rng.random() < spec.fill_probability:
                rects.append(Rect(x, y, x + block_w, y + row_h))
            gap = spec.snap(
                rng.integers(spec.gap_range[0], spec.gap_range[1] + 1),
                minimum=rules.min_space,
            )
            x += block_w + gap
        space = spec.snap(
            rng.integers(spec.space_range[0], spec.space_range[1] + 1),
            minimum=rules.min_space,
        )
        y += row_h + space
    return rects
