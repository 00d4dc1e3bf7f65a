"""Normalising topology matrices to a fixed square size.

Generative models require fixed-size input, so squish topologies are
normalised to ``N x N`` following the adaptive-squish idea (Yang et al., DAC
2019): undersized topologies are *split* along their largest deltas (which
duplicates rows/columns without changing the physical layout) and oversized
topologies are first re-squished; a genuinely oversized topology is a hard
error because splitting cannot reduce scan-line count.
"""

from __future__ import annotations

import numpy as np

from repro.squish.encode import resquish
from repro.squish.pattern import SquishPattern


class NormalizationError(ValueError):
    """Raised when a topology cannot be normalised to the requested size."""


def split_axis(topology: np.ndarray, deltas: np.ndarray, target: int, axis: int) -> tuple:
    """Grow one axis to ``target`` entries by splitting the largest deltas.

    Splitting a column (axis=1) duplicates it in the topology and divides its
    delta in two near-equal halves; the decoded layout is identical.  The
    loop only tracks which source stripe each output stripe copies, so the
    topology is gathered once at the end instead of re-copied per split.
    """
    d = list(int(v) for v in deltas)
    size = topology.shape[axis]
    if size > target:
        raise NormalizationError(
            f"axis {axis} has {size} scan stripes, cannot split down to {target}"
        )
    source = list(range(len(d)))
    while len(d) < target:
        idx = d.index(max(d))  # the first maximum, as ``np.argmax`` picks
        if d[idx] < 2:
            raise NormalizationError(
                "cannot split further: all deltas are 1 nm wide"
            )
        left = d[idx] // 2
        right = d[idx] - left
        d[idx : idx + 1] = [left, right]
        source.insert(idx, source[idx])
    return np.take(topology, source, axis=axis), np.array(d, dtype=np.int64)


def normalize_pattern(pattern: SquishPattern, size: int) -> SquishPattern:
    """Normalise ``pattern`` to a ``size x size`` topology.

    The pattern is first re-squished to canonical form.  If either axis then
    exceeds ``size`` the pattern is rejected (the dataset builder filters
    such tiles, mirroring how real squish datasets choose their topology
    resolution).
    """
    canonical = resquish(pattern)
    rows, cols = canonical.shape
    if rows > size or cols > size:
        raise NormalizationError(
            f"topology {rows}x{cols} exceeds target {size}x{size}"
        )
    t, dy = split_axis(canonical.topology, canonical.dy, size, axis=0)
    t, dx = split_axis(t, canonical.dx, size, axis=1)
    return SquishPattern(topology=t, dx=dx, dy=dy, style=pattern.style)


def uniform_deltas(size_nm: int, cells: int) -> np.ndarray:
    """Deltas dividing ``size_nm`` into ``cells`` near-equal positive parts."""
    if cells <= 0:
        raise ValueError("cells must be positive")
    if size_nm < cells:
        raise ValueError(f"cannot divide {size_nm} nm into {cells} >=1 nm cells")
    base = size_nm // cells
    rem = size_nm - base * cells
    deltas = np.full(cells, base, dtype=np.int64)
    deltas[:rem] += 1
    return deltas
