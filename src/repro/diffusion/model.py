"""The conditional discrete diffusion generator (back-end of ChatPattern).

Bundles a noise schedule with a pluggable denoiser and exposes the two
primitives every higher-level tool builds on: batch sampling (Eq. 11) and
a single x0-resampling reverse step (Eq. 9).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.denoisers.base import LOGIT_CLIP, Denoiser, sigmoid
from repro.diffusion.denoisers.neighborhood import (
    NeighborhoodDenoiser,
    as_stack,
)
from repro.diffusion.schedule import (
    DiffusionSchedule,
    SamplerSteps,
    validate_sampler_steps,
)


class ConditionalDiffusionModel:
    """Class-conditional 2-state discrete diffusion over topology matrices.

    Args:
        denoiser: the learned ``p_theta(x0 | x_k, c)`` backend.
        schedule: noise schedule; linear ramp as in the paper (Eq. 4).  The
            default is K=128 with a gentler ramp (0.003 -> 0.08) than the
            paper's K=1000 / 0.01 -> 0.5: with the paper's parameters the
            cumulative flip probability saturates at 0.5 within a small
            fraction of the chain, so only the final ~60 steps carry
            information — the shorter ramp keeps the same number of
            *informative* steps at an eighth of the CPU cost.  The denoisers
            are noise-level- (not step-) indexed, so any schedule can be
            swapped in at sampling time.
        window: the model's native output size (the paper's 128).
    """

    def __init__(
        self,
        denoiser: Optional[Denoiser] = None,
        schedule: Optional[DiffusionSchedule] = None,
        window: int = 128,
        n_classes: int = 2,
        density_guidance: bool = True,
        sharpen: float = 2.0,
        polish_sweeps: int = 4,
        sampler_steps: SamplerSteps = "full",
    ):
        self.denoiser = denoiser or NeighborhoodDenoiser(n_classes=n_classes)
        self.schedule = schedule or DiffusionSchedule.linear(128, 0.003, 0.08)
        self.window = window
        self.density_guidance = density_guidance
        self.sharpen = float(sharpen)
        self.polish_sweeps = int(polish_sweeps)
        #: default reverse-step schedule ("full" | "bucketed" | int); every
        #: sampling entry point accepts a per-call override.
        self.sampler_steps = validate_sampler_steps(sampler_steps)
        self.fitted = False

    @property
    def n_classes(self) -> int:
        return self.denoiser.n_classes

    def fit(
        self,
        topologies: np.ndarray,
        conditions: Optional[np.ndarray],
        rng: np.random.Generator,
        **fit_kwargs,
    ) -> dict:
        """Train the denoiser on clean topologies (+ class conditions)."""
        info = self.denoiser.fit(
            np.asarray(topologies, dtype=np.uint8),
            conditions,
            self.schedule,
            rng,
            **fit_kwargs,
        )
        self.fitted = True
        return info

    def prior_sample(
        self, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """The chain's starting state: the stationary fair coin.

        It stands in for ``T_k`` at the plan's first step.  Under
        ``"full"`` that is ``schedule.start_step``, where ``q(x_k | x_0)``
        is within ``SIGNAL_FLOOR / 2`` of a fair coin per cell; plans that
        start lower (``"bucketed"``, short int specs) accept a wider gap.
        """
        return (rng.random(shape) < 0.5).astype(np.uint8)

    def reverse_step_plan(
        self, sampler_steps: SamplerSteps = None
    ) -> List[Tuple[int, int]]:
        """The ``(k, k_next)`` pairs a reverse chain visits, in order.

        ``sampler_steps`` overrides the model default (``None`` keeps it).
        Under ``"full"`` the plan walks every step from the schedule's
        ``start_step`` (``S``) down: ``(S, S-1) .. (2, 1), (1, 0)``; the
        steps above ``S`` only re-noise to a fair coin and are skipped.
        ``"bucketed"`` collapses steps sharing a denoiser noise bucket to
        one representative, so a K-step schedule costs ~``n_buckets``
        denoiser evaluations; an int picks that many evenly spaced steps
        over ``S .. 1``.  ``k_next == 0`` marks the deterministic final
        step.
        """
        value = self.sampler_steps if sampler_steps is None else sampler_steps
        ks = self.schedule.reverse_steps(
            value, n_buckets=getattr(self.denoiser, "n_buckets", None)
        )
        return list(zip(ks, ks[1:] + [0]))

    def denoise_evals(self, sampler_steps: SamplerSteps = None) -> int:
        """Denoiser evaluations one trajectory costs under a step spec."""
        return len(self.reverse_step_plan(sampler_steps))

    def denoise_step(
        self,
        xk: np.ndarray,
        k: int,
        condition: Optional[int],
        rng: np.random.Generator,
        deterministic: bool = False,
        k_next: Optional[int] = None,
    ) -> np.ndarray:
        """Single-condition :meth:`denoise_step_batch` over ``(H, W)`` or
        ``(B, H, W)``."""
        stack, batched = as_stack(xk)
        out = self.denoise_step_batch(
            stack, k, [condition] * len(stack), rng,
            deterministic=deterministic, k_next=k_next,
        )
        return out if batched else out[0]

    def polish(
        self,
        x0: np.ndarray,
        condition: Optional[int],
        sweeps: Optional[int] = None,
    ) -> np.ndarray:
        """Single-condition :meth:`polish_batch` over ``(H, W)`` or
        ``(B, H, W)``."""
        stack, batched = as_stack(x0)
        out = self.polish_batch(stack, [condition] * len(stack), sweeps)
        return out if batched else out[0]

    def sample(
        self,
        count: int,
        condition: Optional[int],
        rng: np.random.Generator,
        shape: Optional[Tuple[int, int]] = None,
        sampler_steps: SamplerSteps = None,
    ) -> np.ndarray:
        """Sample ``count`` topologies of one class (Eq. 11).

        Returns a ``(count, H, W)`` uint8 array: :meth:`sample_batch` with
        ``condition`` repeated.  ``shape`` defaults to the model window;
        larger shapes should go through :mod:`repro.ops.extend` instead,
        matching the paper's free-size pipeline.
        """
        return self.sample_batch(
            [condition] * count, rng, shape=shape, sampler_steps=sampler_steps
        )

    # -- batched mixed-condition sampling (the serving path) ------------

    def denoise_step_batch(
        self,
        xk: np.ndarray,
        k: int,
        conditions: Sequence[Optional[int]],
        rng: np.random.Generator,
        deterministic: bool = False,
        k_next: Optional[int] = None,
    ) -> np.ndarray:
        """One reverse step ``x_k -> x_{k_next}`` (Eq. 9; default ``k - 1``)
        over a ``(B, H, W)`` stack with per-item conditions.

        The step is x0-resampling: draw ``x0_hat ~ p_theta(x0|x_k,c)`` and
        re-noise it to level ``k_next`` via the forward process.  It applies
        the denoiser at full strength every step, which anneals global
        structure far more effectively for local (tabular) denoisers, and
        is a standard sampler choice in D3PM implementations.

        ``k_next`` is the step the state is re-noised to — ``k - 1`` for the
        classic chain, further for the strided step schedules of
        :meth:`reverse_step_plan` (the re-noising reaches any level in
        closed form, so a stride costs nothing extra).  ``k_next == 0``
        returns the clean prediction.  ``deterministic`` takes the mode
        instead of sampling — used for the final step, the discrete
        analogue of dropping the noise term at k=1.

        The whole stack shares one denoiser call (the CFG-batching idiom
        adapted to class tables), and the step stays on its float32 logits:
        sharpening scales them, density guidance adds a per-item offset that
        pins each item's class fill rate (solved from 0 here; the trajectory
        loops carry it from step to step), and one uniform per cell draws
        ``x0_hat`` and its re-noising together.  See :meth:`_reverse_step`.
        """
        xk = np.asarray(xk, dtype=np.uint8)
        if xk.ndim != 3:
            raise ValueError("denoise_step_batch expects a (B, H, W) stack")
        if len(conditions) != xk.shape[0]:
            raise ValueError(
                f"{len(conditions)} condition(s) for batch of {xk.shape[0]}"
            )
        if k_next is None:
            k_next = k - 1
        if not 0 <= k_next < k:
            raise ValueError(f"k_next {k_next} must be in [0, {k})")
        return self._reverse_step(
            xk, k, k_next, conditions, rng, deterministic=deterministic
        )[0]

    def _reverse_step(
        self,
        xk: np.ndarray,
        k: int,
        k_next: int,
        conditions: Sequence[Optional[int]],
        rng: np.random.Generator,
        offset: Optional[np.ndarray] = None,
        deterministic: bool = False,
        keep: Optional[np.ndarray] = None,
        known: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The reverse step behind :meth:`denoise_step_batch`,
        :meth:`sample_batch` and :func:`repro.ops.modify.modify_batch`.

        Takes a checked uint8 ``(B, H, W)`` stack and returns the next state
        with the per-item density offsets it calibrated.  ``offset`` is the
        previous step's, from which the calibration starts (``None``: from
        0).  ``keep``/``known`` make the step masked: kept cells take
        ``known`` as their ``x0_hat``, so the re-noising draws them from
        the forward process at ``k_next`` (a one with probability
        ``b + known (1 - 2b)``), with the same single uniform per cell, and
        the deterministic final step returns ``known`` on them exactly.
        """
        level = self.schedule.beta_bar(k)
        z = self.denoiser.predict_logits_many(xk, level, conditions)
        # Progressive sharpening: as the noise anneals away, raise the
        # inverse temperature of the x0 posterior.  Wobbling edges (one
        # cell in/out per row) are the costliest artefact for legalization
        # — they chain interval constraints across rows — and
        # near-deterministic late steps straighten them out.  In logit
        # space ``p^g / (p^g + (1-p)^g)`` is a scale by ``g``.
        gamma = 1.0
        if self.sharpen > 0:
            gamma += self.sharpen * (1.0 - level / 0.5)
        e = _exp_neg_logits(z, gamma)
        if self.density_guidance:
            p, offset = _density_offsets(e, self._targets(conditions), offset)
        else:
            e += 1.0
            p = np.reciprocal(e, out=e)
        if keep is not None:
            np.copyto(p, known, where=keep)
        if deterministic:
            if k_next == 0:
                return (p > 0.5).astype(np.uint8), offset
            p = (p > 0.5).astype(p.dtype)
        # Drawing x0_hat ~ Bernoulli(p) and then flipping each cell with
        # probability b = beta_bar(k_next) gives a one with probability
        # b + (1 - 2b) p: one uniform per cell does both.
        if k_next > 0:
            flip = self.schedule.beta_bar(k_next)
            p *= 1.0 - 2.0 * flip
            p += flip
        draw = rng.random(xk.shape, dtype=np.float32)
        return (draw < p).astype(np.uint8), offset

    def _targets(self, conditions: Sequence[Optional[int]]) -> np.ndarray:
        """Per-item class fill rates, the density-guidance targets."""
        return np.asarray(
            [self.denoiser.target_fill(c) for c in conditions], dtype=np.float64
        )

    def polish_batch(
        self,
        x0: np.ndarray,
        conditions: Sequence[Optional[int]],
        sweeps: Optional[int] = None,
    ) -> np.ndarray:
        """Deterministic low-noise denoiser sweeps (speckle removal) over a
        ``(B, H, W)`` stack with per-item conditions.

        Re-applies the k=1 denoiser in mode-taking form until fixpoint or
        ``sweeps`` iterations; equivalent to appending extra deterministic
        final steps to the reverse chain.  Under density guidance each item
        is thresholded at the quantile that keeps its class fill rate (a
        fixed 0.5 would erase, or flood, the pattern whenever under-trained
        tables sit uniformly below, or above, one half); the per-item
        quantiles come from one vectorized per-row sort of the logits (the
        sigmoid is monotone, so the same cells pass as on probabilities).
        """
        if sweeps is None:
            sweeps = self.polish_sweeps
        level = self.schedule.beta_bar(1)
        x = np.asarray(x0, dtype=np.uint8).copy()
        conditions = list(conditions)
        if not conditions:
            return x
        targets = self._targets(conditions)
        for _ in range(sweeps):
            z = self.denoiser.predict_logits_many(x, level, conditions)
            if self.density_guidance:
                thresholds = _row_quantiles(z, 1.0 - targets)
            else:
                thresholds = np.zeros(x.shape[0])
            nxt = (z > thresholds[:, None, None]).astype(np.uint8)
            if np.array_equal(nxt, x):
                break
            x = nxt
        return self._resolve_corner_touches(x, conditions)

    def _resolve_corner_touches(
        self,
        x: np.ndarray,
        conditions: Sequence[Optional[int]],
        max_rounds: int = 8,
    ) -> np.ndarray:
        """Clear corner-touching polygon pairs from a clean ``(B, H, W)`` stack.

        Training data contains no corner touches (they are zero-space DRC
        defects), so they are off-manifold artefacts of the sampler; of each
        touching diagonal pair the cell with the lower k=1 posterior is
        cleared.  Only *model output* passes through here — seams created by
        naive concatenation never do, matching the paper's dynamics.  Each
        round evaluates the k=1 posterior once, over the sub-stack of items
        that still hold a touch.
        """
        from repro.geometry.grid import diagonal_touch_pairs

        out = np.asarray(x, dtype=np.uint8).copy()
        conditions = list(conditions)
        level = self.schedule.beta_bar(1)
        active = list(range(out.shape[0]))
        for _ in range(max_rounds):
            touches_by_item = {}
            for i in active:
                touches = diagonal_touch_pairs(out[i])
                if touches:
                    touches_by_item[i] = touches
            active = list(touches_by_item)
            if not active:
                break
            z = self.denoiser.predict_logits_many(
                out[active], level, [conditions[i] for i in active]
            )
            for j, i in enumerate(active):
                _clear_weakest_touch_cells(out[i], z[j], touches_by_item[i])
        return out

    def sample_batch(
        self,
        conditions: Sequence[Optional[int]],
        rng: np.random.Generator,
        shape: Optional[Tuple[int, int]] = None,
        sampler_steps: SamplerSteps = None,
    ) -> np.ndarray:
        """Sample ``len(conditions)`` topologies in ONE reverse trajectory.

        The batched serving path: N requests' worth of sampling work —
        possibly with *different* style conditions — costs a single batched
        denoise trajectory instead of N (Eq. 11 over a stacked batch).
        Returns a ``(len(conditions), H, W)`` uint8 array whose i-th item is
        conditioned on ``conditions[i]``.  ``sampler_steps`` overrides the
        model's step schedule for this trajectory.
        """
        if not self.fitted:
            raise RuntimeError("model not fitted; call fit() first")
        conditions = list(conditions)
        h, w = shape or (self.window, self.window)
        if not conditions:
            return np.zeros((0, h, w), dtype=np.uint8)
        xk = self.prior_sample((len(conditions), h, w), rng)
        offset = None
        for k, k_next in self.reverse_step_plan(sampler_steps):
            xk, offset = self._reverse_step(
                xk, k, k_next, conditions, rng, offset,
                deterministic=(k_next == 0),
            )
        return self.polish_batch(xk, conditions)


def _clear_weakest_touch_cells(
    x: np.ndarray, z: np.ndarray, touches: Sequence[Tuple[int, int]]
) -> None:
    """Clear the lower-posterior filled cell of each corner-touching pair.

    Cells compare by their posterior logit ``z``.  ``touches`` holds the
    top-left coordinates of 2x2 windows containing a filled diagonal pair;
    ``x`` is edited in place.
    """
    for row, col in touches:
        cells = [
            (r, c)
            for r, c in (
                (row, col), (row + 1, col + 1),
                (row, col + 1), (row + 1, col),
            )
            if x[r, c]
        ]
        if not cells:
            continue
        weakest = min(cells, key=lambda rc: z[rc])
        x[weakest] = 0


def _row_quantiles(p: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Per-row quantiles of a ``(B, ...)`` stack, one level per row.

    One sort over the flattened trailing axes replaces B separate
    ``np.quantile`` calls; the interpolation matches ``np.quantile``'s
    default ``"linear"`` method exactly.
    """
    flat = np.sort(p.reshape(p.shape[0], -1), axis=1)
    pos = np.clip(np.asarray(qs, dtype=np.float64), 0.0, 1.0) * (
        flat.shape[1] - 1
    )
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, flat.shape[1] - 1)
    rows = np.arange(flat.shape[0])
    lower = flat[rows, lo]
    return lower + (pos - lo) * (flat[rows, hi] - lower)


def _exp_neg_logits(z: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-clip(gamma z))`` in three in-place passes over ``z``.

    ``z`` is overwritten and returned.  The clip bound is ``LOGIT_CLIP``,
    so with the calibration bracket ``|d| <= 30`` the products
    ``e exp(-d)`` stay within about 1e±22 and cannot overflow float32.
    """
    np.multiply(z, -gamma, out=z)
    np.clip(z, -LOGIT_CLIP, LOGIT_CLIP, out=z)
    return np.exp(z, out=z)


def _density_offsets(
    e: np.ndarray, targets: np.ndarray, start: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Moment-matching density guidance over a ``(B, ...)`` stack of
    ``e = exp(-z)``.

    Finds per-item logit offsets ``d`` that bring ``mean(sigmoid(z + d))``
    within 1e-4 of each item's class fill rate; returns the maps
    ``sigmoid(z + d)`` (in ``e``'s dtype) and the float64 offsets.  Local
    structure (the *relative* ordering of pixels) is untouched; only the
    global density is pinned, which prevents the density drift local
    denoisers exhibit over long reverse chains.

    ``sigmoid(z + d) = 1 / (1 + e exp(-d))``, so a round is a multiply, an
    add, a reciprocal and two float64 row reductions, with no ``exp`` of
    the map.  The offsets come from safeguarded Newton on ``[-30, 30]``,
    starting from ``start`` (clipped into the bracket; ``None`` starts at
    0), and the first round leaves items already within 1e-4 as they are.
    Each round shrinks the bracket around the root, and a Newton step that
    leaves it (or divides by a vanished slope) bisects the bracket instead.
    Settled items keep their offset; unreachable targets end at the
    bracket edge; 64 rounds at most.
    """
    flat = e.reshape(len(e), -1)
    offset = np.zeros(len(e)) if start is None else np.clip(start, -30.0, 30.0)
    lo = np.full(len(e), -30.0)
    hi = np.full(len(e), 30.0)
    p = np.empty_like(flat)
    for rounds in range(1, 65):
        np.multiply(flat, np.exp(-offset).astype(flat.dtype)[:, None], out=p)
        p += 1.0
        np.reciprocal(p, out=p)
        mean = p.sum(axis=1, dtype=np.float64) / flat.shape[1]
        excess = mean - targets
        # mean(p (1 - p)); the slope only steers the step, so the sum of
        # squares may accumulate in the map's dtype.
        slope = mean - np.einsum("ij,ij->i", p, p) / flat.shape[1]
        lo = np.where(excess < 0, offset, lo)
        hi = np.where(excess < 0, hi, offset)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = offset - excess / slope
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        settled = (np.abs(excess) < 1e-4) | (np.abs(step - offset) <= 1e-9)
        if settled.all() or rounds == 64:
            return p.reshape(e.shape), offset
        offset = np.where(settled, offset, step)


def _calibrate_density(
    z: np.ndarray, targets: np.ndarray, start: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_density_offsets` for a ``(B, ...)`` logit stack ``z``.

    Returns ``sigmoid(z + d)``, computed from the logits (in ``z``'s
    dtype), and the float64 offsets ``d``; ``z`` is left as it is.  The
    reverse step skips the final sigmoid and keeps the solver's own maps.
    """
    _, offset = _density_offsets(np.exp(-z), targets, start)
    shape = (-1,) + (1,) * (z.ndim - 1)
    return sigmoid(z + offset.astype(z.dtype).reshape(shape)), offset
