"""The conditional discrete diffusion generator (back-end of ChatPattern).

Bundles a noise schedule with a pluggable denoiser and exposes the three
primitives every higher-level tool builds on: batch sampling (Eq. 11), a
single reverse step (Eq. 9) and forward noising (Eq. 2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.denoisers.base import Denoiser
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

    #: Backend-protocol declaration: ``sample_batch`` accepts the
    #: ``sampler_steps`` kwarg.  The serving engine checks this attribute
    #: (not the call signature) before forwarding step schedules, so
    #: legacy stand-in back-ends that lack it are simply never passed the
    #: kwarg.  Keep it in sync with the ``sample_batch`` signature.
    supports_sampler_steps = True

    def __init__(
        self,
        denoiser: Optional[Denoiser] = None,
        schedule: Optional[DiffusionSchedule] = None,
        window: int = 128,
        n_classes: int = 2,
        sampler: str = "x0",
        density_guidance: bool = True,
        sharpen: float = 2.0,
        polish_sweeps: int = 4,
        sampler_steps: SamplerSteps = "full",
    ):
        if sampler not in ("x0", "posterior"):
            raise ValueError("sampler must be 'x0' or 'posterior'")
        self.denoiser = denoiser or NeighborhoodDenoiser(n_classes=n_classes)
        self.schedule = schedule or DiffusionSchedule.linear(128, 0.003, 0.08)
        self.window = window
        self.sampler = sampler
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
        """``T_K``: the fully-noised stationary distribution (fair coin)."""
        return (rng.random(shape) < 0.5).astype(np.uint8)

    def reverse_step_plan(
        self, sampler_steps: SamplerSteps = None
    ) -> List[Tuple[int, int]]:
        """The ``(k, k_next)`` pairs a reverse chain visits, in order.

        ``sampler_steps`` overrides the model default (``None`` keeps it).
        Under ``"full"`` the plan is the exact original chain
        (``(K, K-1) .. (2, 1), (1, 0)``); ``"bucketed"`` collapses steps
        sharing a denoiser noise bucket to one representative, so a K-step
        schedule costs ~``n_buckets`` denoiser evaluations; an int picks
        that many evenly spaced steps.  ``k_next == 0`` marks the
        deterministic final step.
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

    def noise_to(
        self, x0: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Forward-noise clean pixels to step ``k`` (Eq. 2)."""
        if k == 0:
            return np.asarray(x0, dtype=np.uint8).copy()
        return self.schedule.forward_sample(np.asarray(x0, dtype=np.uint8), k, rng)

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

        Two samplers implement the step:

        - ``"posterior"`` — the exact Eq. (5)/(9) ancestral step, summing the
          closed-form posterior over the predicted ``x_0``.
        - ``"x0"`` (default) — x0-resampling: draw ``x0_hat ~ p_theta(x0|x_k,c)``
          and re-noise it to level ``k_next`` via the forward process.  Both
          target the same learned posterior; x0-resampling applies the
          denoiser at full strength every step, which anneals global
          structure far more effectively for local (tabular) denoisers and
          is a standard sampler choice in D3PM implementations.

        ``k_next`` is the step the state is re-noised to — ``k - 1`` for the
        classic chain, further for the strided step schedules of
        :meth:`reverse_step_plan` (x0-resampling re-noises to any level in
        closed form, so a stride costs nothing extra; the adjacent-step
        posterior sampler falls back to the same jump).  ``k_next == 0``
        returns the clean prediction.  ``deterministic`` takes the mode
        instead of sampling — used for the final step, the discrete
        analogue of dropping the noise term at k=1.

        The whole stack shares one denoiser call (the CFG-batching idiom
        adapted to class tables), and density guidance is calibrated per
        item: each item pins its own class fill rate.
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
        level = self.schedule.beta_bar(k)
        p_x0 = self.denoiser.predict_x0_many(xk, level, conditions)
        targets = np.asarray(
            [self.denoiser.target_fill(c) for c in conditions], dtype=np.float64
        )
        if self.sharpen > 0:
            # Progressive sharpening: as the noise anneals away, raise the
            # inverse temperature of the x0 posterior.  Wobbling edges (one
            # cell in/out per row) are the costliest artefact for
            # legalization — they chain interval constraints across rows —
            # and near-deterministic late steps straighten them out.
            gamma = 1.0 + self.sharpen * (1.0 - level / 0.5)
            lifted = p_x0 ** gamma
            p_x0 = lifted / (lifted + (1.0 - p_x0) ** gamma)
        if self.density_guidance:
            p_x0 = _calibrate_density_batch(p_x0, targets)
        if self.sampler == "posterior" and k_next == k - 1:
            p_prev = self.schedule.posterior_mix(xk, p_x0, k)
            if deterministic:
                return (p_prev > 0.5).astype(np.uint8)
            return (rng.random(xk.shape) < p_prev).astype(np.uint8)
        if deterministic:
            x0_hat = (p_x0 > 0.5).astype(np.uint8)
        else:
            x0_hat = (rng.random(xk.shape) < p_x0).astype(np.uint8)
        if k_next == 0:
            return x0_hat
        return self.schedule.forward_sample(x0_hat, k_next, rng)

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
        quantiles come from one vectorized per-row sort.
        """
        if sweeps is None:
            sweeps = self.polish_sweeps
        level = self.schedule.beta_bar(1)
        x = np.asarray(x0, dtype=np.uint8).copy()
        conditions = list(conditions)
        if not conditions:
            return x
        targets = np.asarray(
            [self.denoiser.target_fill(c) for c in conditions],
            dtype=np.float64,
        )
        for _ in range(sweeps):
            p = self.denoiser.predict_x0_many(x, level, conditions)
            if self.density_guidance:
                thresholds = np.clip(
                    _row_quantiles(p, 1.0 - targets), 1e-9, 1.0 - 1e-9
                )
            else:
                thresholds = np.full(x.shape[0], 0.5)
            nxt = (p > thresholds[:, None, None]).astype(np.uint8)
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
            p = self.denoiser.predict_x0_many(
                out[active], level, [conditions[i] for i in active]
            )
            for j, i in enumerate(active):
                _clear_weakest_touch_cells(out[i], p[j], touches_by_item[i])
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
        for k, k_next in self.reverse_step_plan(sampler_steps):
            xk = self.denoise_step_batch(
                xk, k, conditions, rng,
                deterministic=(k_next == 0), k_next=k_next,
            )
        return self.polish_batch(xk, conditions)


def _clear_weakest_touch_cells(
    x: np.ndarray, p: np.ndarray, touches: Sequence[Tuple[int, int]]
) -> None:
    """Clear the lower-posterior filled cell of each corner-touching pair.

    ``touches`` holds the top-left coordinates of 2x2 windows containing a
    filled diagonal pair; ``x`` is edited in place.
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
        weakest = min(cells, key=lambda rc: p[rc])
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


def _calibrate_density_batch(
    p: np.ndarray, targets: np.ndarray, bins: int = 512
) -> np.ndarray:
    """Moment-matching density guidance over a ``(B, H, W)`` stack.

    Shifts each item's probability map in logit space so its mean equals
    the item's class fill rate.  Local structure (the *relative* ordering
    of pixels) is untouched; only the global density is pinned, which
    prevents the density drift local denoisers exhibit over long reverse
    chains.  Items already within 1e-4 of their target are left as they
    are; the offsets of the rest come from :func:`_density_offsets`, and
    only one full-array sigmoid is paid at the end.
    """
    clipped = np.clip(p, 1e-9, 1.0 - 1e-9)
    means = clipped.mean(axis=(1, 2))
    needs = np.abs(means - targets) >= 1e-4
    if not needs.any():
        return clipped
    out = clipped.copy()
    rows = np.flatnonzero(needs)
    logits = np.log(clipped[rows] / (1.0 - clipped[rows]))
    offsets = _density_offsets(
        logits.reshape(len(rows), -1),
        np.asarray(targets, dtype=np.float64)[rows],
        bins,
    )
    out[rows] = 1.0 / (1.0 + np.exp(-(logits + offsets[:, None, None])))
    return out


def _density_offsets(
    logits: np.ndarray, targets: np.ndarray, bins: int = 512
) -> np.ndarray:
    """Per-row logit offset ``d`` with ``mean(sigmoid(logits + d)) = target``.

    ``logits`` is ``(R, N)``.  The mean is taken over a per-row *histogram*
    of the logits with bin-mean representatives, so each solver round
    touches ``bins`` values per row instead of the full map; the density
    error is second-order in the bin width (empirically ~1e-5, inside the
    1e-4 tolerance of the calibration fast path).  The per-row histograms
    are two ``bincount`` calls over row-offset bin indices.

    The root is found by safeguarded Newton on ``[-30, 30]``: each round
    shrinks the bracket around the root, and a Newton step that leaves it
    (or divides by a vanished slope) bisects the bracket instead.  It
    settles in about four rounds where plain bisection needs forty; a root
    beyond the bracket ends at its edge, as bisection's would.
    """
    n_rows, size = logits.shape
    lo_edge = logits.min(axis=1, keepdims=True)
    span = logits.max(axis=1, keepdims=True) - lo_edge
    # Degenerate rows (constant logits) all land in bin 0, whose
    # representative is then the exact value.
    bin_idx = np.floor(
        (logits - lo_edge) / np.where(span > 0, span, 1.0) * bins
    ).astype(np.intp)
    np.clip(bin_idx, 0, bins - 1, out=bin_idx)
    bin_idx += np.arange(n_rows, dtype=np.intp)[:, None] * bins
    counts = np.bincount(
        bin_idx.ravel(), minlength=n_rows * bins
    ).reshape(n_rows, bins)
    sums = np.bincount(
        bin_idx.ravel(), weights=logits.ravel(), minlength=n_rows * bins
    ).reshape(n_rows, bins)
    # Empty bins get zero weight, so their representative value is moot.
    reps = sums / np.maximum(counts, 1)
    weights = counts / size
    lo = np.full(n_rows, -30.0)
    hi = np.full(n_rows, 30.0)
    offset = np.zeros(n_rows)
    for _ in range(64):
        sig = 1.0 / (1.0 + np.exp(-(reps + offset[:, None])))
        mass = weights * sig
        excess = mass.sum(axis=1) - targets
        slope = (mass * (1.0 - sig)).sum(axis=1)
        below = excess < 0
        lo = np.where(below, offset, lo)
        hi = np.where(below, hi, offset)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = offset - excess / slope
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        settled = np.abs(step - offset) <= 1e-12
        offset = step
        if settled.all():
            break
    return offset
