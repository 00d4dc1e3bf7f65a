"""Pattern modification via masked reverse diffusion (Eq. 12, Fig. 6).

RePaint-style: at every reverse step the *kept* region is replaced by a
forward-noised copy of the existing topology while the masked region is
generated by the model, conditioned (through the denoiser's receptive field)
on the kept context.  The class condition must match the style of the kept
topology — mismatched conditions mix rule decks, the failure mode the
paper's conditional design exists to avoid.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.diffusion.model import ConditionalDiffusionModel
from repro.drc.violations import GridRegion


def region_mask(shape: tuple, region: GridRegion) -> np.ndarray:
    """Keep-mask that regenerates ``region`` and keeps everything else.

    Returns uint8 with 1 = keep (the paper's ``M``), 0 = regenerate.
    """
    mask = np.ones(shape, dtype=np.uint8)
    mask[region.upper : region.bottom + 1, region.left : region.right + 1] = 0
    return mask


def modify(
    model: ConditionalDiffusionModel,
    topology: np.ndarray,
    keep_mask: np.ndarray,
    condition: Optional[int],
    rng: np.random.Generator,
    sampler_steps=None,
) -> np.ndarray:
    """Regenerate the masked-out cells of ``topology``.

    Args:
        topology: existing clean topology ``T_0^known`` (H, W) in {0,1}.
        keep_mask: 1 = keep the existing cell, 0 = regenerate (``M``).
        condition: class condition matching the topology's style.
        rng: random generator.
        sampler_steps: reverse-step schedule override (see
            :meth:`~repro.diffusion.model.ConditionalDiffusionModel.reverse_step_plan`);
            ``None`` keeps the model default.

    Returns:
        A new (H, W) uint8 topology equal to the input on the kept cells.
        This is :func:`modify_batch` over a batch of one.
    """
    known = np.asarray(topology, dtype=np.uint8)
    mask = np.asarray(keep_mask, dtype=np.uint8)
    if known.shape != mask.shape:
        raise ValueError(
            f"mask shape {mask.shape} != topology shape {known.shape}"
        )
    return modify_batch(
        model, known[None], mask[None], [condition], rng,
        sampler_steps=sampler_steps,
    )[0]


def modify_batch(
    model: ConditionalDiffusionModel,
    topologies: np.ndarray,
    keep_masks: np.ndarray,
    conditions: Sequence[Optional[int]],
    rng: np.random.Generator,
    sampler_steps=None,
) -> np.ndarray:
    """:func:`modify` over a ``(B, H, W)`` stack in ONE masked trajectory.

    Item ``i`` keeps the cells where ``keep_masks[i]`` is 1 and regenerates
    the rest under ``conditions[i]``.  The chain starts from a fair coin
    at the plan's first step; under ``"full"`` that is the schedule's
    ``start_step``, where kept cells noised to that level are a fair coin
    too, to within ``SIGNAL_FLOOR / 2``.  Every reverse step is one masked
    step over the whole stack (the model's ``_reverse_step``): kept cells
    are the known stack forward-noised to the step's level, drawn with the
    same one uniform per cell as the painted ones, and the density offsets
    carry from step to step.  Items with nothing to regenerate are
    returned as they are and use no random numbers.
    """
    known = np.asarray(topologies, dtype=np.uint8)
    keep = np.asarray(keep_masks).astype(bool)
    if known.ndim != 3 or known.shape != keep.shape:
        raise ValueError(
            f"mask stack {keep.shape} != topology stack {known.shape}"
        )
    if len(conditions) != known.shape[0]:
        raise ValueError(
            f"{len(conditions)} condition(s) for batch of {known.shape[0]}"
        )
    out = known.copy()
    todo = np.flatnonzero(~keep.all(axis=(1, 2)))
    if not todo.size:
        return out
    known, keep = known[todo], keep[todo]
    conds = [conditions[i] for i in todo]

    xk = model.prior_sample(known.shape, rng)
    offset = None
    for k, k_next in model.reverse_step_plan(sampler_steps):
        # One draw per cell: T_{k_next}^unknown ~ p_theta(. | T_k, c) on
        # the painted cells, T_{k_next}^known ~ q(. | T_0^known) (the
        # forward process to k_next) on the kept ones.
        xk, offset = model._reverse_step(
            xk, k, k_next, conds, rng, offset,
            deterministic=(k_next == 0), keep=keep, known=known,
        )
    combined = np.where(keep, known, model.polish_batch(xk, conds))
    for j, i in enumerate(todo):
        out[i] = _resolve_masked_corners(combined[j], keep[j])
    return out


def _resolve_masked_corners(topology: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Clear corner touches that straddle the keep boundary.

    ``model.polish_batch`` resolves corner defects on the full window, but
    cells in the kept region are restored afterwards, which can
    re-introduce a corner-touching pair across the mask boundary.  Here the
    *regenerated* cell of each offending pair is cleared; kept cells are
    never altered (the existing pattern must survive modification
    byte-for-byte).
    """
    from repro.geometry.grid import diagonal_touch_pairs

    out = topology.copy()
    for _ in range(8):
        touches = diagonal_touch_pairs(out)
        if not touches:
            break
        changed = False
        for row, col in touches:
            cells = [
                (r, c)
                for r, c in (
                    (row, col), (row + 1, col + 1),
                    (row, col + 1), (row + 1, col),
                )
                if out[r, c]
            ]
            editable = [rc for rc in cells if not keep[rc]]
            if editable:
                out[editable[0]] = 0
                changed = True
        if not changed:
            break
    return out


def modify_region(
    model: ConditionalDiffusionModel,
    topology: np.ndarray,
    region: GridRegion,
    condition: Optional[int],
    rng: np.random.Generator,
    margin: int = 1,
    sampler_steps=None,
) -> np.ndarray:
    """Regenerate one rectangular grid region (+ a context margin).

    This is the agent-facing repair primitive: legalization failures hand
    back a :class:`GridRegion` and the agent re-paints exactly that area.
    """
    shape = np.asarray(topology).shape
    expanded = region.expanded(margin, shape)
    return modify(
        model, topology, region_mask(shape, expanded), condition, rng,
        sampler_steps=sampler_steps,
    )
