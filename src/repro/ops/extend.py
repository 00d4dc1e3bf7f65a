"""Free-size pattern extension via In-Painting and Out-Painting (Fig. 7).

Both methods synthesise a ``target_shape`` topology from a window-sized
model whose working space stays small (the paper's memory-friendly
design): at most one row of model windows at a time.

- **Out-Painting** grows an existing pattern outward: windows slide with a
  stride and each new window is re-painted conditioned on its already-known
  overlap.  ``N_out = (ceil((W-L)/S)+1) * (ceil((H-L)/S)+1)`` samplings.
- **In-Painting** first lays independent tiles on a grid, then re-paints the
  seams (vertical, horizontal, then the corner crossings) so adjacent tiles
  merge.  ``N_in = (2*ceil(W/L)-1) * (2*ceil(H/L)-1)`` samplings.

Windows that do not depend on each other run as one batched masked
trajectory (:func:`repro.ops.modify.modify_batch`), which shares each
denoiser call across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.model import ConditionalDiffusionModel
from repro.ops.modify import _resolve_masked_corners, modify_batch


def n_in_samplings(width: int, height: int, window: int) -> int:
    """Paper formula: samplings used by In-Painting extension."""
    gx = math.ceil(width / window)
    gy = math.ceil(height / window)
    return (2 * gx - 1) * (2 * gy - 1)


def n_out_samplings(width: int, height: int, window: int, stride: int) -> int:
    """Paper formula: samplings used by Out-Painting extension."""
    nx = math.ceil(max(0, width - window) / stride) + 1
    ny = math.ceil(max(0, height - window) / stride) + 1
    return nx * ny


@dataclass
class ExtensionResult:
    """Extended topology plus bookkeeping for the agent's documents."""

    topology: np.ndarray
    method: str
    samplings: int
    windows: List[Tuple[int, int]] = field(default_factory=list)


def _window_starts(extent: int, window: int, stride: int) -> List[int]:
    """Window start offsets covering ``[0, extent)`` with a final flush fit."""
    if extent <= window:
        return [0]
    starts = list(range(0, extent - window, stride))
    starts.append(extent - window)
    return starts


def out_paint_plan(
    seed_shape: Tuple[int, int],
    target_shape: Tuple[int, int],
    window: int,
    stride: int,
) -> Tuple[List[Tuple[int, int]], List[np.ndarray]]:
    """The raster-order Out-Painting plan: window corners and keep masks.

    With the seed at the origin, windows are visited in raster order; each
    window that still holds unknown cells keeps the cells known when it is
    reached (1) and paints the rest (0), after which all its cells count
    as known.  Fully known windows are skipped.
    """
    height, width = target_shape
    known = np.zeros((height, width), dtype=np.uint8)
    known[: seed_shape[0], : seed_shape[1]] = 1
    windows: List[Tuple[int, int]] = []
    keeps: List[np.ndarray] = []
    for r0 in _window_starts(height, window, stride):
        for c0 in _window_starts(width, window, stride):
            sub_known = known[r0 : r0 + window, c0 : c0 + window]
            if sub_known.min() == 1:
                continue  # fully known, nothing to generate
            windows.append((r0, c0))
            keeps.append(sub_known.copy())
            sub_known[...] = 1
    return windows, keeps


def wavefront_levels(
    shape: Tuple[int, int],
    windows: Sequence[Tuple[int, int]],
    keeps: Sequence[np.ndarray],
) -> List[int]:
    """Wavefront level of each window of a raster-order out-paint plan.

    ``windows[i]`` is the top-left corner of a window on a ``shape`` canvas
    and ``keeps[i]`` its raster-order keep mask (1 = kept, 0 = painted).  A
    window's level is one more than the deepest level among the earlier
    windows whose painted cells fall inside it (level 1 when none do).  No
    window then reads a cell painted by another window of its own level,
    so a level can run as one batch, and each window still sees exactly
    its raster-order keep mask and context.
    """
    painted_at = np.zeros(shape, dtype=np.intp)
    levels = []
    for (r0, c0), keep in zip(windows, keeps):
        h, w = keep.shape
        area = painted_at[r0 : r0 + h, c0 : c0 + w]
        level = 1 + int(area.max())
        area[keep == 0] = level
        levels.append(level)
    return levels


def _paint_windows(
    model: ConditionalDiffusionModel,
    canvas: np.ndarray,
    windows: Sequence[Tuple[int, int]],
    keeps: Sequence[np.ndarray],
    condition: Optional[int],
    rng: np.random.Generator,
    cap: int,
    sampler_steps,
) -> None:
    """Re-paint mutually independent windows of ``canvas`` in place.

    The windows run as batched masked trajectories of at most ``cap``
    windows each, which bounds the working space to ``cap`` windows.
    """
    for lo in range(0, len(windows), cap):
        chunk = windows[lo : lo + cap]
        masks = np.stack(keeps[lo : lo + cap])
        h, w = masks.shape[1:]
        painted = modify_batch(
            model,
            np.stack([canvas[r0 : r0 + h, c0 : c0 + w] for r0, c0 in chunk]),
            masks,
            [condition] * len(chunk),
            rng,
            sampler_steps=sampler_steps,
        )
        for (r0, c0), tile in zip(chunk, painted):
            canvas[r0 : r0 + h, c0 : c0 + w] = tile


def out_paint(
    model: ConditionalDiffusionModel,
    seed_topology: np.ndarray,
    target_shape: Tuple[int, int],
    condition: Optional[int],
    rng: np.random.Generator,
    stride: Optional[int] = None,
    sampler_steps=None,
) -> ExtensionResult:
    """Extend ``seed_topology`` to ``target_shape`` by Out-Painting.

    The seed is placed at the origin and windows are planned in raster
    order, so every new window overlaps already-known cells on its
    top/left border.  The plan then runs in :func:`wavefront_levels`
    order, each level batched at most one row of windows at a time.  A
    window clears the corner touches it can see; a touch whose diagonal
    pair straddles a window's outer corner is cleared at the end, on the
    whole canvas, without altering the seed.
    """
    seed = np.asarray(seed_topology, dtype=np.uint8)
    window = model.window
    stride = window // 2 if stride is None else stride
    if not 0 < stride <= window:
        raise ValueError("stride must be in (0, window]")
    height, width = target_shape
    if seed.shape[0] > height or seed.shape[1] > width:
        raise ValueError("seed larger than target shape")

    canvas = np.zeros((height, width), dtype=np.uint8)
    canvas[: seed.shape[0], : seed.shape[1]] = seed
    windows, keeps = out_paint_plan(seed.shape, target_shape, window, stride)
    row_size = len(_window_starts(width, window, stride))
    levels = wavefront_levels(canvas.shape, windows, keeps)
    for level in sorted(set(levels)):
        batch = [i for i, value in enumerate(levels) if value == level]
        _paint_windows(
            model, canvas, [windows[i] for i in batch],
            [keeps[i] for i in batch], condition, rng, row_size, sampler_steps,
        )
    seed_cells = np.zeros(canvas.shape, dtype=bool)
    seed_cells[: seed.shape[0], : seed.shape[1]] = True
    canvas = _resolve_masked_corners(canvas, seed_cells)
    return ExtensionResult(
        topology=canvas, method="out", samplings=len(windows), windows=windows
    )


def in_paint(
    model: ConditionalDiffusionModel,
    target_shape: Tuple[int, int],
    condition: Optional[int],
    rng: np.random.Generator,
    seed_topology: Optional[np.ndarray] = None,
    seam_band: Optional[int] = None,
    sampler_steps=None,
) -> ExtensionResult:
    """Synthesise a ``target_shape`` topology by In-Painting.

    Independent window tiles are laid on a grid (the optional seed becomes
    tile (0, 0)); the adjacency borders and corners of the concatenated
    matrix are then re-painted (Fig. 7).  The canvas is generated at the
    tile-aligned size and cropped to ``target_shape``.  Each group (the
    tiles, the vertical seams, the horizontal seams, the corners) holds
    windows that do not overlap, so it runs batched, at most one row of
    tiles at a time.  Corner touches whose diagonal pair straddles a
    window's outer corner are cleared at the end; seed cells that no seam
    window re-paints are never altered.
    """
    window = model.window
    band = window // 2 if seam_band is None else seam_band
    if not 0 < band < window:
        raise ValueError("seam_band must be in (0, window)")
    height, width = target_shape
    gy = math.ceil(height / window)
    gx = math.ceil(width / window)
    full_h, full_w = gy * window, gx * window

    canvas = np.zeros((full_h, full_w), dtype=np.uint8)
    # Seed cells no window has re-painted (yet).
    seed_cells = np.zeros(canvas.shape, dtype=bool)
    tiles = [(j * window, i * window) for j in range(gy) for i in range(gx)]
    drawn = tiles
    if seed_topology is not None:
        seed = np.asarray(seed_topology, dtype=np.uint8)
        if seed.shape != (window, window):
            raise ValueError("seed must match the model window")
        canvas[:window, :window] = seed
        seed_cells[:window, :window] = True
        drawn = tiles[1:]
    for lo in range(0, len(drawn), gx):
        chunk = drawn[lo : lo + gx]
        samples = model.sample_batch(
            [condition] * len(chunk), rng, sampler_steps=sampler_steps
        )
        for (r0, c0), tile in zip(chunk, samples):
            canvas[r0 : r0 + window, c0 : c0 + window] = tile
    samplings = len(drawn)
    visited: List[Tuple[int, int]] = list(tiles)

    mid = window // 2
    lo = mid - band // 2
    hi = lo + band
    vertical = np.ones((window, window), dtype=np.uint8)
    vertical[:, lo:hi] = 0
    horizontal = np.ones((window, window), dtype=np.uint8)
    horizontal[lo:hi, :] = 0
    corner = np.ones((window, window), dtype=np.uint8)
    corner[lo:hi, lo:hi] = 0
    groups = (
        # Vertical seams: windows centred on each internal tile boundary.
        ([(j * window, i * window - mid)
          for i in range(1, gx) for j in range(gy)], vertical),
        # Horizontal seams.
        ([(j * window - mid, i * window)
          for j in range(1, gy) for i in range(gx)], horizontal),
        # Corner crossings.
        ([(j * window - mid, i * window - mid)
          for j in range(1, gy) for i in range(1, gx)], corner),
    )
    for windows, keep in groups:
        _paint_windows(
            model, canvas, windows, [keep] * len(windows), condition, rng,
            gx, sampler_steps,
        )
        samplings += len(windows)
        visited.extend(windows)
        for r0, c0 in windows:
            seed_cells[r0 : r0 + window, c0 : c0 + window] &= keep == 1

    return ExtensionResult(
        topology=_resolve_masked_corners(
            canvas[:height, :width], seed_cells[:height, :width]
        ),
        method="in",
        samplings=samplings,
        windows=visited,
    )


def extend(
    model: ConditionalDiffusionModel,
    target_shape: Tuple[int, int],
    condition: Optional[int],
    rng: np.random.Generator,
    method: str = "out",
    seed_topology: Optional[np.ndarray] = None,
    stride: Optional[int] = None,
    sampler_steps=None,
) -> ExtensionResult:
    """Dispatch to In-Painting or Out-Painting extension.

    When no seed is given one window-sized sample is drawn first (counted in
    ``samplings``), matching the agent's standard pipeline (Fig. 4).
    """
    if method not in ("in", "out"):
        raise ValueError(f"unknown extension method {method!r}")
    extra = 0
    if seed_topology is None:
        seed_topology = model.sample(
            1, condition, rng, sampler_steps=sampler_steps
        )[0]
        extra = 1
    if method == "out":
        result = out_paint(
            model, seed_topology, target_shape, condition, rng, stride=stride,
            sampler_steps=sampler_steps,
        )
    else:
        result = in_paint(
            model, target_shape, condition, rng, seed_topology=seed_topology,
            sampler_steps=sampler_steps,
        )
    result.samplings += extra
    return result
