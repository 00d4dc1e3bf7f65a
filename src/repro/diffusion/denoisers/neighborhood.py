"""Multi-scale neighbourhood-statistics denoiser (the default CPU backend).

Substitutes the paper's U-Net: a conditional tabular estimator of
``P(x_0 = 1 | context(x_k), noise bucket, class)``.  The context is a small
neighbourhood of the pixel hashed to an integer code — evaluated at several
spatial scales (the image is average-pooled and re-hashed, the tabular
analogue of U-Net's multi-resolution encoder).  Per-scale probabilities are
fused as a product of experts in logit space, so fine tables decide edges
while coarse tables carry block-scale structure (essential for styles whose
feature pitch far exceeds the neighbourhood radius).

Iterating the reverse process with these local conditionals behaves like
annealed Gibbs sampling of a learned Markov random field; it trains in
seconds on CPU.  See DESIGN.md for why this substitution preserves the
paper's behaviour.

**Compiled logit tables.**  The raw count tables are frozen once ``fit``
returns, so everything the sampling hot loop derives from them per step —
Laplace smoothing toward the class marginal, the probability ratio, the
``log`` — is folded into per-(class, bucket, scale) float32 *logit lookup
tables* at compile time: entry ``[c, b, code]`` holds
``(w_s / sum(w)) * log(p / (1 - p))`` for the smoothed ``p`` of that
neighbourhood code.  ``predict_x0`` then reduces to one gather-and-add per
scale and a single final sigmoid — no per-step elementwise ``log``/``exp``
arithmetic over float64 intermediates.  The compiled form is rebuilt at the
end of every :meth:`NeighborhoodDenoiser.fit` (the only operation that can
change the counts) and rehydrated when a pickled model is loaded, so it is
never stale; ``use_compiled = False`` switches back to the on-the-fly
reference path, which the equivalence tests pin to the compiled output
within 1e-6.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.diffusion.denoisers.base import Denoiser
from repro.diffusion.schedule import DiffusionSchedule

Offset = Tuple[int, int]
WindowSpec = Union[Tuple[int, int], str, Sequence[Offset]]

_EPS = 1e-6


def window_offsets(spec: WindowSpec) -> List[Offset]:
    """Resolve a window spec into neighbourhood offsets.

    Accepts ``(rows, cols)`` for an odd-sided rectangle, ``"diamond<r>"`` /
    ``"plus<r>"`` strings, or an explicit offset list.
    """
    if isinstance(spec, str):
        if spec.startswith("diamond"):
            radius = int(spec[len("diamond"):] or 2)
            return [
                (dr, dc)
                for dr in range(-radius, radius + 1)
                for dc in range(-radius, radius + 1)
                if abs(dr) + abs(dc) <= radius
            ]
        if spec.startswith("plus"):
            radius = int(spec[len("plus"):] or 2)
            offsets = [(0, 0)]
            for d in range(1, radius + 1):
                offsets.extend([(d, 0), (-d, 0), (0, d), (0, -d)])
            return offsets
        raise ValueError(f"unknown window spec {spec!r}")
    spec = list(spec)
    if len(spec) == 2 and all(isinstance(v, int) for v in spec):
        wr, wc = spec
        if wr % 2 == 0 or wc % 2 == 0:
            raise ValueError("rectangular window sides must be odd")
        return [
            (dr, dc)
            for dr in range(-(wr // 2), wr // 2 + 1)
            for dc in range(-(wc // 2), wc // 2 + 1)
        ]
    return [tuple(o) for o in spec]  # explicit offsets


def neighborhood_codes(
    x: np.ndarray,
    offsets: Sequence[Offset],
    pads: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Hash each pixel's neighbourhood (given by offsets) to an int code.

    Pads with zeros outside the image.  Accepts ``(H, W)`` or ``(B, H, W)``.
    ``pads`` may carry the precomputed ``(max_row, max_col)`` offset reach so
    hot callers skip re-deriving it per call.  Codes come back in the
    narrowest unsigned dtype holding ``len(offsets)`` bits (uint16 for the
    13-cell ``diamond2``), which keeps the per-bit shift-and-or passes small.
    """
    batched = x.ndim == 3
    arr = x if batched else x[None]
    if pads is None:
        pads = (
            max(abs(dr) for dr, _ in offsets),
            max(abs(dc) for _, dc in offsets),
        )
    max_r, max_c = pads
    h, w = arr.shape[1], arr.shape[2]
    pad = np.zeros((arr.shape[0], h + 2 * max_r, w + 2 * max_c), dtype=arr.dtype)
    pad[:, max_r : max_r + h, max_c : max_c + w] = arr
    dtype = np.min_scalar_type((1 << len(offsets)) - 1)
    codes = np.zeros(arr.shape, dtype=dtype)
    for bit, (dr, dc) in enumerate(offsets):
        r0, c0 = max_r + dr, max_c + dc
        codes |= np.left_shift(pad[:, r0 : r0 + h, c0 : c0 + w], bit, dtype=dtype)
    return codes if batched else codes[0]


def downsample_binary(x: np.ndarray, scale: int) -> np.ndarray:
    """Majority-pool a binary image by ``scale`` (pads with zeros).

    Accepts ``(H, W)`` or a batched ``(B, H, W)`` stack; the pooling is
    applied to the trailing two axes either way.  A block is set when at
    least half its cells are: ``2 * sum >= scale**2``, with the block sums
    taken in integers as ``scale`` strided row slices, then column slices.
    """
    if scale == 1:
        return x.astype(np.uint8)
    x = np.asarray(x, dtype=np.uint8)
    h, w = x.shape[-2], x.shape[-1]
    ph = (-h) % scale
    pw = (-w) % scale
    padded = x
    if ph or pw:
        padded = np.zeros(x.shape[:-2] + (h + ph, w + pw), dtype=x.dtype)
        padded[..., :h, :w] = x
    dtype = np.min_scalar_type(scale * scale)
    rows = padded[..., 0::scale, :].astype(dtype)
    for i in range(1, scale):
        rows += padded[..., i::scale, :]
    total = rows[..., 0::scale].copy()
    for j in range(1, scale):
        total += rows[..., j::scale]
    # 2 * sum >= scale**2, without the doubling overflowing ``dtype``.
    return (total >= (scale * scale + 1) // 2).astype(np.uint8)


def upsample_to(x: np.ndarray, scale: int, shape: Tuple[int, int]) -> np.ndarray:
    """Nearest-neighbour upsample by ``scale`` and crop to ``shape``.

    ``shape`` names the trailing ``(H, W)``; leading batch axes pass through.
    """
    if scale == 1:
        return x[..., : shape[0], : shape[1]]
    up = x.repeat(scale, axis=-2).repeat(scale, axis=-1)
    return up[..., : shape[0], : shape[1]]


def as_stack(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """``x`` as a uint8 ``(B, H, W)`` stack, and whether it already was one."""
    arr = np.asarray(x, dtype=np.uint8)
    return (arr, True) if arr.ndim == 3 else (arr[None], False)


class NeighborhoodDenoiser(Denoiser):
    """Multi-scale tabular conditional denoiser over noisy neighbourhoods.

    Args:
        n_classes: number of style conditions (0 for unconditional).
        window: neighbourhood spec (default ``"diamond2"``, 13 cells).
        scales: pooling factors of the expert tables (default (1, 2, 4, 8);
            the coarsest expert carries block-pitch alignment, which keeps
            the chained legalization requirement of large extended patterns
            within the physical budget).
        scale_weights: product-of-experts logit weights per scale.
        n_buckets: noise-level buckets over ``beta_bar`` in (0, 0.5].
        smoothing: Laplace-style pull toward the class marginal.
    """

    def __init__(
        self,
        n_classes: int = 0,
        window: WindowSpec = "diamond2",
        scales: Tuple[int, ...] = (1, 2, 4, 8),
        scale_weights: Optional[Tuple[float, ...]] = None,
        n_buckets: int = 16,
        smoothing: float = 2.0,
    ):
        self.n_classes = n_classes
        self.offsets = window_offsets(window)
        if (0, 0) not in self.offsets:
            raise ValueError("window must include the centre cell")
        self.scales = tuple(scales)
        if scale_weights is None:
            scale_weights = tuple(1.0 / (1 + i) for i in range(len(self.scales)))
        if len(scale_weights) != len(self.scales):
            raise ValueError("scale_weights must match scales")
        self.scale_weights = tuple(float(w) for w in scale_weights)
        self.n_buckets = n_buckets
        self.smoothing = float(smoothing)
        self._n_codes = 1 << len(self.offsets)
        # Hoisted once: the PoE normaliser and the neighbourhood's padding
        # reach are constants of the architecture, not of the input.
        self._weight_total = float(sum(self.scale_weights))
        self._pads = (
            max(abs(dr) for dr, _ in self.offsets),
            max(abs(dc) for _, dc in self.offsets),
        )
        slots = max(1, n_classes)
        self._counts = {
            s: np.zeros((slots, n_buckets, self._n_codes, 2), dtype=np.float64)
            for s in self.scales
        }
        self._marginals = np.full((slots, n_buckets), 0.5)
        self._fitted = False
        #: gate for the compiled fast path (the reference path stays
        #: available for equivalence tests and baseline benchmarks)
        self.use_compiled = True
        self._compiled = False
        self._logit_tables: dict = {}

    def bucket_of(self, noise_level: float) -> int:
        """Map ``beta_bar`` in (0, 0.5] to a bucket index."""
        if not 0.0 < noise_level <= 0.5:
            raise ValueError(f"noise_level {noise_level} outside (0, 0.5]")
        return min(self.n_buckets - 1, int(noise_level / 0.5 * self.n_buckets))

    def fit(
        self,
        topologies: np.ndarray,
        conditions: Optional[np.ndarray],
        schedule: DiffusionSchedule,
        rng: np.random.Generator,
        draws_per_pattern: int = 16,
    ) -> dict:
        """Accumulate neighbourhood statistics from noised training pairs.

        Noise levels are drawn uniformly within each bucket so the tables
        cover the full (0, 0.5] range regardless of the training schedule.
        """
        topologies = np.asarray(topologies, dtype=np.uint8)
        if topologies.ndim != 3:
            raise ValueError("topologies must be (N, H, W)")
        n = topologies.shape[0]
        if self.n_classes > 0:
            if conditions is None or len(conditions) != n:
                raise ValueError("conditions must align with topologies")
            cond = np.asarray(conditions, dtype=np.int64)
        else:
            cond = np.zeros(n, dtype=np.int64)

        slots = max(1, self.n_classes)
        flat = {
            s: np.zeros(slots * self.n_buckets * self._n_codes * 2)
            for s in self.scales
        }
        # Vectorized accumulation: buckets and noise levels for every
        # (pattern, draw) pair are drawn up front, then each bucket's draws
        # are noised as one stacked batch and counted with one bincount per
        # (bucket, scale) — the class offset is already folded into the
        # flattened index, so mixed-class batches count in a single pass.
        if draws_per_pattern >= self.n_buckets:
            buckets = np.broadcast_to(
                np.arange(draws_per_pattern) % self.n_buckets,
                (n, draws_per_pattern),
            )
        else:
            buckets = rng.integers(
                0, self.n_buckets, size=(n, draws_per_pattern)
            )
        levels = (
            (buckets + rng.random((n, draws_per_pattern)))
            * 0.5 / self.n_buckets
        )
        levels = np.clip(levels, 1e-4, 0.5)
        for bucket in range(self.n_buckets):
            pat_idx, draw_idx = np.nonzero(buckets == bucket)
            if pat_idx.size == 0:
                continue
            x0 = topologies[pat_idx]
            flip = (
                rng.random(x0.shape)
                < levels[pat_idx, draw_idx][:, None, None]
            )
            xk = np.where(flip, 1 - x0, x0).astype(np.uint8)
            base = (cond[pat_idx] * self.n_buckets + bucket) * self._n_codes
            target = x0.astype(np.int64)
            for s in self.scales:
                codes = neighborhood_codes(
                    downsample_binary(xk, s), self.offsets, pads=self._pads
                )
                pixel_codes = upsample_to(codes, s, x0.shape[1:])
                index = (base[:, None, None] + pixel_codes) * 2 + target
                flat[s] += np.bincount(
                    index.ravel(), minlength=flat[s].shape[0]
                )
        for s in self.scales:
            self._counts[s] = flat[s].reshape(
                slots, self.n_buckets, self._n_codes, 2
            )
        self._record_target_fills(topologies, cond)
        fine = self._counts[self.scales[0]]
        totals = fine.sum(axis=2)
        sums = totals.sum(axis=2)
        self._marginals = np.where(
            sums > 0, totals[..., 1] / np.maximum(sums, 1.0), 0.5
        )
        self._fitted = True
        self.compile_tables(force=True)
        return {
            "patterns": int(n),
            "observations": float(fine.sum()),
            "occupied_codes": {
                s: int((self._counts[s].sum(axis=-1) > 0).sum())
                for s in self.scales
            },
        }

    # -- compiled logit tables -----------------------------------------

    def compile_tables(self, force: bool = False) -> bool:
        """Fold smoothing and the logit transform into float32 lookup tables.

        For each scale ``s`` the table entry ``[class, bucket, code]`` holds
        ``(w_s / sum(w)) * log(p / (1 - p))`` where ``p`` is the smoothed
        probability the reference path derives per pixel — so sampling-time
        prediction becomes gather + add + one sigmoid.  Idempotent unless
        ``force`` (``fit`` forces, because it changes the counts).
        """
        if not self._fitted:
            return False
        if self._compiled and not force:
            return True
        tables = {}
        for s, weight in zip(self.scales, self.scale_weights):
            counts = self._counts[s]
            ones = counts[..., 1]
            total = counts.sum(axis=-1)
            prior = self._marginals[..., None]
            p = (ones + self.smoothing * prior) / (total + self.smoothing)
            p = np.clip(p, _EPS, 1.0 - _EPS)
            tables[s] = (
                (weight / self._weight_total) * np.log(p / (1.0 - p))
            ).astype(np.float32)
        self._logit_tables = tables
        self._compiled = True
        return True

    @property
    def compiled(self) -> bool:
        """Whether the compiled logit tables are built and current."""
        return self._compiled

    def __setstate__(self, state: dict) -> None:
        """Rehydrate pickles, including pre-compiled-table ones.

        Models cached on disk by an older registry lack the hoisted
        attributes and the compiled tables; derive them here so a disk hit
        serves the compiled fast path without a refit.
        """
        self.__dict__.update(state)
        if "_weight_total" not in state:
            self._weight_total = float(sum(self.scale_weights))
        if "_pads" not in state:
            self._pads = (
                max(abs(dr) for dr, _ in self.offsets),
                max(abs(dc) for _, dc in self.offsets),
            )
        if "use_compiled" not in state:
            self.use_compiled = True
        if not state.get("_compiled", False):
            self._compiled = False
            self._logit_tables = {}
            self.compile_tables()

    # -- prediction ----------------------------------------------------

    def predict_x0(
        self, xk: np.ndarray, noise_level: float, condition: Optional[int] = None
    ) -> np.ndarray:
        """Single-condition :meth:`predict_x0_many` over ``(H, W)`` or
        ``(B, H, W)``."""
        stack, batched = as_stack(xk)
        out = self.predict_x0_many(stack, noise_level, [condition] * len(stack))
        return out if batched else out[0]

    def _predict_x0_reference(
        self, xk: np.ndarray, noise_level: float, condition: Optional[int] = None
    ) -> np.ndarray:
        """On-the-fly prediction from the raw count tables.

        The numerical ground truth the compiled tables are pinned against
        (and the baseline of the sampling-throughput benchmark).
        """
        stack, batched = as_stack(xk)
        out = self._predict_x0_many_reference(
            stack, noise_level, [condition] * len(stack)
        )
        return out if batched else out[0]

    def predict_x0_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """Mixed-condition batched prediction with shared pooling/hashing.

        Pooling and neighbourhood hashing are condition-independent, so a
        micro-batch mixing style classes computes them ONCE for the whole
        stack; only the final table gather is per-item (each item reads its
        own class's table row).  This is what makes cross-style batches as
        cheap as single-style ones in the serving scheduler.

        Each scale gathers its table values at the pooled resolution and
        upsamples the float32 values: a pooled block shares one code, so
        this equals gathering the upsampled codes, at ``1/s**2`` the
        gather work.
        """
        stack, conds, bucket = self._check_many(xk, noise_level, conditions)
        if not (self._compiled and self.use_compiled):
            return self._many_reference_core(stack, conds, bucket)
        # Per-item offset into the flattened (class, bucket, code) table:
        # adding it to the codes turns the per-item class lookup into one
        # big gather with no intermediate table copies.
        base = ((conds * self.n_buckets + bucket) * self._n_codes)[:, None, None]
        logit = np.zeros(stack.shape, dtype=np.float32)
        for s in self.scales:
            codes = neighborhood_codes(
                downsample_binary(stack, s), self.offsets, pads=self._pads
            )
            values = self._logit_tables[s].reshape(-1)[base + codes]
            logit += upsample_to(values, s, stack.shape[1:])
        return 1.0 / (1.0 + np.exp(-logit, dtype=np.float64))

    def _predict_x0_many_reference(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """On-the-fly counterpart of :meth:`predict_x0_many`."""
        return self._many_reference_core(
            *self._check_many(xk, noise_level, conditions)
        )

    def _many_reference_core(
        self, stack: np.ndarray, conds: np.ndarray, bucket: int
    ) -> np.ndarray:
        priors = self._marginals[conds, bucket][:, None, None]
        base = ((conds * self.n_buckets + bucket) * self._n_codes)[:, None, None]
        logit = np.zeros(stack.shape, dtype=np.float64)
        for s, weight in zip(self.scales, self.scale_weights):
            codes = neighborhood_codes(
                downsample_binary(stack, s), self.offsets, pads=self._pads
            )
            flat = self._counts[s].reshape(-1, 2)
            index = base + codes
            ones = flat[index, 1]
            total = ones + flat[index, 0]
            p = (ones + self.smoothing * priors) / (total + self.smoothing)
            p = np.clip(p, _EPS, 1.0 - _EPS)
            logit += upsample_to(
                weight * np.log(p / (1.0 - p)), s, stack.shape[1:]
            )
        return 1.0 / (1.0 + np.exp(-logit / self._weight_total))

    def _check_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ):
        stack = np.asarray(xk, dtype=np.uint8)
        if stack.ndim != 3:
            raise ValueError("predict_x0_many expects a (B, H, W) stack")
        if len(conditions) != stack.shape[0]:
            raise ValueError(
                f"{len(conditions)} condition(s) for batch of {stack.shape[0]}"
            )
        if not self._fitted:
            raise RuntimeError("denoiser not fitted; call fit() first")
        conds = np.asarray(
            [self._validate_condition(c) for c in conditions], dtype=np.int64
        )
        return stack, conds, self.bucket_of(noise_level)
