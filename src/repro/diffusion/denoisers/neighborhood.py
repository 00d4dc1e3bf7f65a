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
seconds on CPU.  It estimates the same ``p(x_0 | x_k, c)`` a U-Net would,
so the reverse chain and the modify/extend operators run on it unchanged;
it cannot learn structure beyond its neighbourhoods and pools.

**Compiled logit table.**  Everything the sampling hot loop would derive
per step from the neighbourhood counts — Laplace smoothing toward the
class marginal, the probability ratio, the ``log`` — is folded into one
float32 *logit lookup table* while the model fits, laid out ``(bucket,
scale, class, code)``: each entry holds ``(w_s / sum(w)) * log(p / (1 -
p))`` for the smoothed ``p`` of that neighbourhood code.
``predict_logits_many`` then hashes all scales on one canvas and reads
them with one gather, with no elementwise ``log``/``exp`` arithmetic; the
sampling kernel stays on those float32 logits, and only
``predict_x0_many`` takes their sigmoid.  :meth:`NeighborhoodDenoiser.fit`
counts one noise bucket at a time and compiles that bucket's table slice
from the bucket's counts before counting the next, so the count tables
never exist whole: the fitted denoiser (and its pickle) holds the table,
the class marginals and the target fills.  The float64 reference path is
an oracle, not state: :meth:`NeighborhoodDenoiser.count_tables` replays a
fit's inputs and seed into the full count tables, and
:class:`ReferenceDenoiser` predicts from them on the fly; the equivalence
tests pin the table to it within 1e-6 in probability (1e-5 in logit).
"""

from __future__ import annotations

import functools
import math
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.diffusion.denoisers.base import Denoiser, sigmoid
from repro.diffusion.schedule import DiffusionSchedule

Offset = Tuple[int, int]
WindowSpec = Union[Tuple[int, int], str, Sequence[Offset]]

_EPS = 1e-6

#: Cells per chunk of :func:`neighborhood_codes` and of the compiled
#: canvas hash (four 128x128 items): the padded copy and the run codes of
#: one chunk stay small.
_CHUNK_CELLS = 1 << 16

#: Cells of (pattern, draw) pairs :meth:`NeighborhoodDenoiser.fit` noises,
#: hashes and counts at once (eight 128x128 pairs).  The fit's reused
#: buffers are sized by it: the intp index ``bincount`` reads (8 bytes a
#: cell) is the largest, beside the narrow codes, the noised stack and the
#: pooled scales' float64 weights; the noise is drawn one pair at a time.
#: These buffers sit beside the 4 MiB compiled table, which the fit fills
#: as it counts.  Measured on the default recipe (2-core box, 8 alternating
#: fresh processes): sixteen pairs peak at 57.3 MB ``VmHWM`` and fit in
#: 0.70 s (median), eight at 55.6 MB and 0.76 s, four at 54.5 MB and
#: 0.85 s, where the per-chunk ``bincount`` overhead starts to show.
_FIT_CHUNK_CELLS = 2 * _CHUNK_CELLS

#: Input shapes whose canvas layout a denoiser keeps before starting over.
_LAYOUT_CACHE = 16


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


class _HashPlan(NamedTuple):
    """How :func:`neighborhood_codes` hashes one offsets tuple."""

    #: ``(max_row, max_col)`` offset reach: the zero border a stack needs
    pads: Tuple[int, int]
    #: ``(row offset, first column offset, width, first bit)`` per row
    #: segment, in bit order
    segments: Tuple[Tuple[int, int, int, int], ...]
    #: ``(a, step)`` per run code to build, in order: ``runs[a + step]``
    #: comes from ``runs[a]``
    runs: Tuple[Tuple[int, int], ...]
    #: narrowest unsigned dtype holding one code
    dtype: np.dtype


@functools.lru_cache(maxsize=32)
def _hash_plan(offsets: Tuple[Offset, ...]) -> _HashPlan:
    """The segment and run plan of ``offsets``, derived once per tuple."""
    segments = []
    for bit, (dr, dc) in enumerate(offsets):
        last = segments[-1] if segments else None
        if last and last[0] == dr and last[1] + last[2] == dc:
            last[2] += 1
        else:
            segments.append([dr, dc, 1, bit])
    runs = []
    built = 1
    for width in sorted({width for _, _, width, _ in segments}):
        while built < width:
            step = min(built, width - built)
            runs.append((built, step))
            built += step
    return _HashPlan(
        pads=(
            max(abs(dr) for dr, _ in offsets),
            max(abs(dc) for _, dc in offsets),
        ),
        segments=tuple(tuple(segment) for segment in segments),
        runs=tuple(runs),
        dtype=np.min_scalar_type((1 << len(offsets)) - 1),
    )


def neighborhood_codes(x: np.ndarray, offsets: Sequence[Offset]) -> np.ndarray:
    """Hash each pixel's neighbourhood (given by offsets) to an int code.

    Pads with zeros outside the image.  Accepts ``(H, W)`` or ``(B, H, W)``.
    Codes come back in the narrowest unsigned dtype holding
    ``len(offsets)`` bits (uint16 for the 13-cell ``diamond2``), which
    keeps the shift-and-or passes small.

    Bit ``i`` of a code is the cell at ``offsets[i]``.  Consecutive offsets
    that step one column right along a row form a row segment (``diamond2``
    has segments of width 1, 3, 5, 3 and 1), and a segment's bits are one
    shifted read of a run code: ``runs[n]`` packs ``n`` horizontally
    adjacent cells, and is built from a narrower run by one overlapping
    shift-and-or.  ``diamond2`` thus takes 8 passes instead of 13.  That
    plan is derived once per offsets tuple and cached, so ``fit``, the
    reference path and the compiled canvas share it.  Items are hashed in
    chunks of about ``_CHUNK_CELLS`` cells, so the padded copy and the run
    codes stay small however large the stack.
    """
    batched = x.ndim == 3
    arr = x if batched else x[None]
    plan = _hash_plan(tuple(map(tuple, offsets)))
    codes = np.empty(arr.shape, dtype=plan.dtype)
    _hash_into(arr, plan, codes)
    return codes if batched else codes[0]


def _hash_into(stack: np.ndarray, plan: _HashPlan, out: np.ndarray) -> None:
    """Write the codes of a ``(B, H, W)`` stack into ``out``, in chunks of
    about ``_CHUNK_CELLS`` cells through one reused zero-bordered copy (see
    :func:`neighborhood_codes`).  ``out`` may be wider than the code dtype."""
    max_r, max_c = plan.pads
    n, h, w = stack.shape
    step = max(1, _CHUNK_CELLS // max(1, h * w))
    pad = np.zeros(
        (min(n, step), h + 2 * max_r, w + 2 * max_c), dtype=plan.dtype
    )
    for lo in range(0, n, step):
        chunk = stack[lo : lo + step]
        k = chunk.shape[0]
        pad[:k, max_r : max_r + h, max_c : max_c + w] = chunk
        _hash_padded(pad[:k], plan, out[lo : lo + step])


def _hash_padded(pad: np.ndarray, plan: _HashPlan, out: np.ndarray) -> None:
    """Write the codes of a ``(B, H, W)`` stack into ``out`` from its copy
    ``pad``, which carries a zero border of ``plan.pads`` on every side and
    the code dtype (see :func:`neighborhood_codes`)."""
    max_r, max_c = plan.pads
    h, w = out.shape[1], out.shape[2]
    # runs[n][..., c] holds cells c .. c + n - 1 of a padded row in bits
    # 0 .. n - 1; ORing runs[a] with runs[a] read ``step <= a`` columns on
    # gives runs[a + step] (the overlapping bits agree).
    runs = {1: pad}
    for a, step in plan.runs:
        runs[a + step] = runs[a][..., :-step] | (runs[a][..., step:] << step)
    for i, (dr, dc, width, bit) in enumerate(plan.segments):
        r0, c0 = max_r + dr, max_c + dc
        part = runs[width][:, r0 : r0 + h, c0 : c0 + w]
        if i == 0:
            np.left_shift(part, bit, out=out)
        else:
            out |= part << bit


class _CanvasLayout(NamedTuple):
    """Where the compiled :meth:`NeighborhoodDenoiser.predict_logits_many`
    puts each scale's image on its hashing canvas, for one input shape."""

    #: the input zero-padded to a multiple of every scale
    padded: Tuple[int, int]
    #: the canvas, zero border included
    shape: Tuple[int, int]
    #: top-left of each scale's image (in ``scales`` order), border excluded
    corners: Tuple[Tuple[int, int], ...]
    #: per canvas cell (border excluded): the start of its scale's block
    #: in one bucket's ``(scale, class, code)`` table slice
    offsets: np.ndarray
    plan: _HashPlan


def block_sums(x: np.ndarray, scale: int) -> np.ndarray:
    """Filled-cell count of every ``scale x scale`` block (pads with zeros).

    Accepts ``(H, W)`` or a batched ``(B, H, W)`` stack of {0, 1} cells.
    The sums are taken in the narrowest unsigned dtype holding ``scale**2``
    (see :func:`_sum_blocks`).
    """
    x = np.asarray(x, dtype=np.uint8)
    h, w = x.shape[-2], x.shape[-1]
    ph = (-h) % scale
    pw = (-w) % scale
    padded = x
    if ph or pw:
        padded = np.zeros(x.shape[:-2] + (h + ph, w + pw), dtype=x.dtype)
        padded[..., :h, :w] = x
    return _sum_blocks(padded, scale, np.min_scalar_type(scale * scale))


def _sum_blocks(x: np.ndarray, factor: int, dtype) -> np.ndarray:
    """Sum ``factor x factor`` blocks of ``x`` (sides divisible by
    ``factor``) in ``dtype``: ``factor`` strided row slices, then column
    slices."""
    rows = x[..., 0::factor, :].astype(dtype)
    for i in range(1, factor):
        rows += x[..., i::factor, :]
    total = rows[..., 0::factor].copy()
    for j in range(1, factor):
        total += rows[..., j::factor]
    return total


def _add_bincount(
    rows: np.ndarray, index: np.ndarray, weights: Optional[np.ndarray] = None
) -> None:
    """Add the (weighted) ``bincount`` of the flat ``index`` into the
    narrow unsigned ``rows``, one count per cell of ``rows``.  The counts
    are integers (weighted ones float64 below 2**53), so the unsafe cast
    back to the rows' dtype is exact."""
    counts = np.bincount(index, weights=weights, minlength=rows.size)
    np.add(rows, counts.reshape(rows.shape), out=rows, casting="unsafe")


def block_areas(shape: Tuple[int, int], scale: int) -> np.ndarray:
    """Cell count of every pooled block of a ``shape`` image.

    Interior blocks hold ``scale**2`` cells; blocks on the bottom and right
    edges are cropped when ``scale`` does not divide the side.
    """
    h, w = shape
    heights = np.minimum(scale, h - scale * np.arange(-(-h // scale)))
    widths = np.minimum(scale, w - scale * np.arange(-(-w // scale)))
    return np.outer(heights, widths)


def downsample_binary(x: np.ndarray, scale: int) -> np.ndarray:
    """Majority-pool a binary image by ``scale`` (pads with zeros).

    Accepts ``(H, W)`` or a batched ``(B, H, W)`` stack; the pooling is
    applied to the trailing two axes either way.  A block is set when at
    least half its cells are: ``2 * sum >= scale**2``, over the integer
    :func:`block_sums`.
    """
    if scale == 1:
        return x.astype(np.uint8)
    total = block_sums(x, scale)
    # 2 * sum >= scale**2, without the doubling overflowing the sum dtype.
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
        # Hoisted once: the PoE normaliser is a constant of the
        # architecture, not of the input.
        self._weight_total = float(sum(self.scale_weights))
        self._marginals = np.full((max(1, n_classes), n_buckets), 0.5)
        self._fitted = False
        #: the compiled logits, one float32 array laid out
        #: ``(bucket, scale, class, code)``
        self._table: Optional[np.ndarray] = None
        self._layouts: dict = {}  # (H, W) -> _CanvasLayout, never pickled

    def __getstate__(self) -> dict:
        # The layouts are a cache, rebuilt on first use after a load.
        state = dict(self.__dict__)
        state["_layouts"] = {}
        return state

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
        """Accumulate neighbourhood statistics from noised training pairs
        and compile them into the logit table, one noise bucket at a time.

        Noise levels are drawn uniformly within each bucket so the table
        covers the full (0, 0.5] range regardless of the training schedule.
        :meth:`_bucket_counts` counts one bucket's pairs at a time into
        reused count rows; as soon as a bucket is counted, its column of
        the class marginals and its slice of the table are computed from
        those rows, which the next bucket then reuses.  A bucket's marginal
        and table slice read only that bucket's rows, so the table is what
        compiling the whole count tables at once would give, while those
        tables never exist: the fitted denoiser keeps only the table, the
        marginals and the target fills.  :meth:`count_tables` rebuilds the
        counts from the same inputs and seed for the float64
        :class:`ReferenceDenoiser`.
        """
        topologies, cond = self._fit_inputs(topologies, conditions)
        slots = max(1, self.n_classes)
        table = np.empty(
            (self.n_buckets, len(self.scales), slots, self._n_codes),
            dtype=np.float32,
        )
        marginals = np.empty((slots, self.n_buckets))
        observations = 0
        occupied = dict.fromkeys(self.scales, 0)
        for bucket, rows in self._bucket_counts(
            topologies, cond, rng, draws_per_pattern
        ):
            fine = rows[self.scales[0]]
            totals = fine.sum(axis=1)
            sums = totals.sum(axis=1)
            marginals[:, bucket] = np.where(
                sums > 0, totals[:, 1] / np.maximum(sums, 1.0), 0.5
            )
            self._compile_bucket(table[bucket], rows, marginals[:, bucket])
            observations += int(sums.sum())
            for s in self.scales:
                occupied[s] += int(np.count_nonzero(rows[s].any(axis=-1)))
        self._record_target_fills(topologies, cond)
        self._table = table
        self._marginals = marginals
        self._fitted = True
        return {
            "patterns": int(topologies.shape[0]),
            "observations": float(observations),
            "occupied_codes": occupied,
        }

    def count_tables(
        self,
        topologies: np.ndarray,
        conditions: Optional[np.ndarray],
        rng: np.random.Generator,
        draws_per_pattern: int = 16,
    ) -> Dict[int, np.ndarray]:
        """The per-scale ``(class, bucket, code, target)`` count tables a
        :meth:`fit` on the same inputs and ``rng`` state counts, stacked
        from the same :meth:`_bucket_counts` stream (the fit itself never
        holds them).  The oracle of :class:`ReferenceDenoiser`."""
        topologies, cond = self._fit_inputs(topologies, conditions)
        buckets = [
            {s: r.copy() for s, r in rows.items()}
            for _, rows in self._bucket_counts(
                topologies, cond, rng, draws_per_pattern
            )
        ]
        return {
            s: np.stack([rows[s] for rows in buckets], axis=1)
            for s in self.scales
        }

    def _fit_inputs(
        self, topologies: np.ndarray, conditions: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The checked uint8 stack and int64 per-pattern classes."""
        topologies = np.asarray(topologies, dtype=np.uint8)
        if topologies.ndim != 3:
            raise ValueError("topologies must be (N, H, W)")
        n = topologies.shape[0]
        if self.n_classes > 0:
            if conditions is None or len(conditions) != n:
                raise ValueError("conditions must align with topologies")
            return topologies, np.asarray(conditions, dtype=np.int64)
        return topologies, np.zeros(n, dtype=np.int64)

    def _bucket_counts(
        self,
        topologies: np.ndarray,
        cond: np.ndarray,
        rng: np.random.Generator,
        draws_per_pattern: int,
    ) -> Iterator[Tuple[int, Dict[int, np.ndarray]]]:
        """Yield ``(bucket, {scale: rows})`` for every noise bucket in order.

        Each scale's rows are one ``(class, code, target)`` array of clean
        zero/one counts, reused by every bucket: they hold the yielded
        bucket's counts until the generator resumes.  They are kept in the
        narrowest unsigned dtype holding ``patterns x draws x H x W``
        (``np.min_scalar_type``; ``uint32`` on the default recipe), the
        most all of a bucket's rows can count, so no row can wrap, not even
        ``ones + zeros``.  The pairs are noised and counted in chunks of
        ``_FIT_CHUNK_CELLS`` cells, in buffers allocated once, so the
        working set is fixed however many patterns there are.  The counts
        do not depend on the chunking: they are exact integer sums over
        the same rng stream.
        """
        n, h, w = topologies.shape
        slots = max(1, self.n_classes)
        dtype = np.min_scalar_type(n * draws_per_pattern * h * w)
        rows_of = {
            s: np.zeros((slots, self._n_codes, 2), dtype=dtype)
            for s in self.scales
        }
        # A (class, code) pair names one count row.
        n_rows = slots * self._n_codes
        # Vectorized accumulation: buckets and noise levels for every
        # (pattern, draw) pair are drawn up front, then each bucket's pairs
        # are noised, hashed and counted in chunks of ``_FIT_CHUNK_CELLS``
        # cells, each chunk's counts added into the bucket's rows.  The
        # noise is drawn one pair at a time in pair order, so the float64
        # ``rng.random`` stream is the same as drawing each bucket's whole
        # stack at once, and the counts are sums of integers, so they come
        # out exact: each chunk's ``bincount`` is added straight into the
        # narrow rows (:func:`_add_bincount`).  The class offset is already
        # folded into the flattened index, so mixed-class chunks count in a
        # single pass.
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
        # A pooled block shares one code across its cells, so a coarse
        # scale counts at pooled resolution: each block adds its clean
        # cells' ones and zeros to its code's row.  Those per-block counts
        # come from the clean stack alone, so they are taken once here, in
        # their narrow integer dtype; a cropped edge block counts only the
        # cells it really covers.  Only the current chunk's are cast to
        # float64 for the weighted ``bincount``, whose sums of small
        # integers float64 keeps exact.
        pooled = {
            s: (block_areas((h, w), s), block_sums(topologies, s))
            for s in self.scales
            if s > 1
        }
        # The fine index ``(class, code, target)`` is built in place on the
        # codes, in the narrowest dtype holding a code and that index
        # (uint16 on the default recipe: 2 x 2 classes x 2**13 codes), and
        # copied once into an intp buffer, which ``bincount`` reads as it
        # is.  The noised stack is padded once to a multiple of every
        # scale; each coarse scale is pooled from the block sums of the
        # largest finer scale that divides it, as ``predict_logits_many``
        # does, and cropped to ``ceil(h / s) x ceil(w / s)`` blocks (the
        # padding only adds empty blocks past the image).
        plan = _hash_plan(tuple(self.offsets))
        index_dtype = np.result_type(
            plan.dtype, np.min_scalar_type(2 * n_rows - 1)
        )
        base = (cond * self._n_codes).astype(index_dtype)
        block = math.lcm(*self.scales)
        step = max(1, _FIT_CHUNK_CELLS // max(1, h * w))
        pooled_cells = max(
            [areas.size for areas, _ in pooled.values()], default=0
        )
        # Per-chunk buffers, reused by every chunk.
        uniform = np.empty((h, w))
        flip = np.empty((h, w), dtype=bool)
        x0 = np.empty((step, h, w), dtype=np.uint8)
        xk = np.zeros(
            (step, h + (-h) % block, w + (-w) % block), dtype=np.uint8
        )
        codes = np.empty(step * h * w, dtype=index_dtype)
        index = np.empty(step * h * w, dtype=np.intp)
        weights = np.empty(step * pooled_cells)
        for bucket in range(self.n_buckets):
            for rows in rows_of.values():
                rows.fill(0)
            pat_all, draw_all = np.nonzero(buckets == bucket)
            for lo in range(0, pat_all.size, step):
                pat_idx = pat_all[lo : lo + step]
                k = pat_idx.size
                np.take(topologies, pat_idx, axis=0, out=x0[:k])
                pair_levels = levels[pat_idx, draw_all[lo : lo + step]]
                for i, level in enumerate(pair_levels):
                    rng.random(out=uniform)
                    np.less(uniform, level, out=flip)
                    np.bitwise_xor(x0[i], flip, out=xk[i, :h, :w])
                offset = base[pat_idx][:, None, None]
                sums = {1: xk[:k]}
                for s in self.scales:
                    rows = rows_of[s]
                    if s == 1:
                        image = xk[:k, :h, :w]
                    else:
                        finer = max(t for t in sums if s % t == 0)
                        sums[s] = _sum_blocks(
                            sums[finer], s // finer, np.min_scalar_type(s * s)
                        )
                        areas, block_ones = pooled[s]
                        # A block is set when at least half its cells are.
                        image = (
                            sums[s][:, : areas.shape[0], : areas.shape[1]]
                            >= (s * s + 1) // 2
                        )
                    cells = image.size
                    code = codes[:cells].reshape(image.shape)
                    _hash_into(image, plan, code)
                    code += offset
                    if s == 1:
                        # The fine index also carries the clean target.
                        code <<= 1
                        code += x0[:k]
                    flat = index[:cells]
                    flat[...] = codes[:cells]
                    if s == 1:
                        _add_bincount(rows, flat)
                        continue
                    # One float64 buffer weighs each block by its clean
                    # ones, then in place by its zeros (area less ones).
                    weight = weights[:cells]
                    ones = weight.reshape(image.shape)
                    ones[...] = block_ones[pat_idx]
                    _add_bincount(rows[..., 1], flat, weight)
                    np.subtract(areas, ones, out=ones)
                    _add_bincount(rows[..., 0], flat, weight)
            yield bucket, rows_of

    def _compile_bucket(
        self,
        out: np.ndarray,
        rows: Dict[int, np.ndarray],
        prior: np.ndarray,
    ) -> None:
        """Fold smoothing and the logit transform of one bucket's count
        ``rows`` into its ``(scale, class, code)`` table slice ``out``.

        The entry ``[j, class, code]`` holds ``(w_s / sum(w)) * log(p / (1
        - p))`` for the ``j``-th scale ``s``, where ``p`` is the count's
        Laplace-smoothed probability toward the bucket's class marginal
        ``prior`` (what :class:`ReferenceDenoiser` derives per pixel), so
        sampling-time prediction becomes gather + add + one sigmoid.  With
        the bucket outermost, one step's reads are one contiguous block.
        The counts are read in their narrow unsigned dtype; promotion to
        float64 gives the same values, so the table does not depend on
        that dtype.
        """
        prior = prior[:, None]
        for j, (s, weight) in enumerate(zip(self.scales, self.scale_weights)):
            counts = rows[s]
            ones = counts[..., 1]
            total = counts.sum(axis=-1)
            p = (ones + self.smoothing * prior) / (total + self.smoothing)
            p = np.clip(p, _EPS, 1.0 - _EPS)
            out[j] = (weight / self._weight_total) * np.log(p / (1.0 - p))

    # -- prediction ----------------------------------------------------

    def predict_x0(
        self, xk: np.ndarray, noise_level: float, condition: Optional[int] = None
    ) -> np.ndarray:
        """Single-condition :meth:`predict_x0_many` over ``(H, W)`` or
        ``(B, H, W)``."""
        stack, batched = as_stack(xk)
        out = self.predict_x0_many(stack, noise_level, [condition] * len(stack))
        return out if batched else out[0]

    def predict_x0_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """float64 sigmoid of :meth:`predict_logits_many`."""
        z = self.predict_logits_many(xk, noise_level, conditions)
        return sigmoid(z.astype(np.float64))

    def predict_logits_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """Mixed-condition batched logits with shared pooling/hashing.

        Pooling and neighbourhood hashing are condition-independent, so a
        micro-batch mixing style classes computes them ONCE for the whole
        stack; only the final table gather is per-item (each item reads its
        own class's table row).  This is what makes cross-style batches as
        cheap as single-style ones in the serving scheduler.

        The stack and its majority-pooled images are laid out on one canvas
        per item (see :meth:`_canvas_layout`): zero gutters of
        the neighbourhood reach keep every code what a separate
        :func:`neighborhood_codes` call would give, so ONE hash covers all
        scales.  ONE ``take`` then reads every scale's values from the
        step's bucket of the compiled ``(bucket, scale, class, code)``
        table, each cell offset by its scale (a cached per-shape array) and
        its item's class.  A pooled block shares one code, so its value is
        added to every cell of the block through a broadcast view, at
        ``1/s**2`` the gather work of upsampled codes; the scales are summed
        in their listed order, so the float32 result is bit-identical to a
        per-scale loop.  The stack is zero-padded once to a multiple of
        every scale, and each scale's block sums are pooled from those of
        the largest finer scale that divides it; the padding only adds
        empty blocks past the image, which read as zeros, and is cropped at
        the end.  :class:`ReferenceDenoiser`, the test oracle, keeps float64
        and hashes each scale on its own.
        """
        stack, conds, bucket = self._check_many(xk, noise_level, conditions)
        n, h, w = stack.shape
        layout = self._canvas_layout(h, w)
        hp, wp = layout.padded
        pr, pc = layout.plan.pads
        padded = stack
        if (hp, wp) != (h, w):
            padded = np.zeros((n, hp, wp), dtype=np.uint8)
            padded[:, :h, :w] = stack
        # Every scale's image goes onto one zeroed canvas in the code
        # dtype, border included, so one hash covers them all.
        canvas = np.zeros((n,) + layout.shape, dtype=layout.plan.dtype)
        sums = {1: padded}
        for s, (r, c) in zip(self.scales, layout.corners):
            r, c = pr + r, pc + c
            region = canvas[:, r : r + hp // s, c : c + wp // s]
            if s == 1:
                region[...] = padded
                continue
            finer = max(t for t in sums if s % t == 0)
            if finer != s:
                sums[s] = _sum_blocks(
                    sums[finer], s // finer, np.min_scalar_type(s * s)
                )
            # A block is set when at least half its cells are.
            np.greater_equal(sums[s], (s * s + 1) // 2, out=region)
        codes = np.empty((n,) + layout.offsets.shape, dtype=layout.plan.dtype)
        step = max(1, _CHUNK_CELLS // codes[0].size)
        for lo in range(0, n, step):
            _hash_padded(
                canvas[lo : lo + step], layout.plan, codes[lo : lo + step]
            )
        # One gather for every scale and item: this bucket's (scale, class,
        # code) slice, read from the lowest class present on, at each
        # code plus its cell's scale offset plus its item's class offset.
        low = int(conds.min())
        table = self._table[bucket].reshape(-1)[low * self._n_codes :]
        index = np.add(codes, layout.offsets)
        if (conds != low).any():
            index += ((conds - low) * self._n_codes)[:, None, None]
        values = table.take(index)
        # Sum the scales in their listed order, each block's value added to
        # every cell of the block through a broadcast view.  Repeat along
        # columns, broadcast along the block's rows (a broadcast over both
        # leaves s-long inner loops, slower at s=2).
        logit = np.empty((n, hp, wp), dtype=np.float32)
        for j, (s, (r, c)) in enumerate(zip(self.scales, layout.corners)):
            part = values[:, r : r + hp // s, c : c + wp // s]
            if s > 1:
                part = part.repeat(s, axis=-1)
            rows = logit.reshape(n, hp // s, s, wp)
            if j == 0:
                rows[...] = part[:, :, None, :]
            else:
                rows += part[:, :, None, :]
        if (hp, wp) != (h, w):
            logit = np.ascontiguousarray(logit[:, :h, :w])
        return logit

    def _canvas_layout(self, h: int, w: int) -> "_CanvasLayout":
        """The hashing canvas of an ``(h, w)`` input, derived once per shape.

        The input is zero-padded to ``(hp, wp)``, a multiple of every
        scale.  The finest scale's image sits at the left and every other
        scale's image is stacked in a column to its right, in scale order.
        Zero gutters of the neighbourhood reach separate the images, so
        each code reads only its own image or zeros, exactly as if its
        image were hashed alone.
        """
        layout = self._layouts.get((h, w))
        if layout is not None:
            return layout
        block = math.lcm(*self.scales)
        hp, wp = h + (-h) % block, w + (-w) % block
        plan = _hash_plan(tuple(self.offsets))
        pr, pc = plan.pads
        sizes = [(hp // s, wp // s) for s in self.scales]
        finest = self.scales.index(min(self.scales))
        corners = [(0, 0)] * len(sizes)
        column = sizes[finest][1] + pc
        rows, cols = sizes[finest]
        top = 0
        for j, (height, width) in enumerate(sizes):
            if j != finest:
                corners[j] = (top, column)
                rows = max(rows, top + height)
                cols = max(cols, column + width)
                top += height + pr
        slots = max(1, self.n_classes)
        offsets = np.zeros((rows, cols), dtype=np.intp)
        for j, ((r, c), (height, width)) in enumerate(zip(corners, sizes)):
            offsets[r : r + height, c : c + width] = j * slots * self._n_codes
        layout = _CanvasLayout(
            padded=(hp, wp),
            shape=(rows + 2 * pr, cols + 2 * pc),
            corners=tuple(corners),
            offsets=offsets,
            plan=plan,
        )
        if len(self._layouts) >= _LAYOUT_CACHE:
            self._layouts.clear()
        self._layouts[(h, w)] = layout
        return layout

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


class ReferenceDenoiser(Denoiser):
    """The float64 oracle of a fitted :class:`NeighborhoodDenoiser`.

    Predicts on the fly from ``counts``, the count tables
    :meth:`NeighborhoodDenoiser.count_tables` rebuilds by replaying the
    fit's inputs and seed: each scale's codes are hashed on their own, each
    count is smoothed toward the fitted class marginal and turned into a
    logit in float64, and the weighted logits are summed over upsampled
    scales.  The compiled table is pinned to it, and a model whose
    ``denoiser`` is this wrapper samples, modifies and extends on the
    reference path (the baseline of the sampling-throughput benchmark).
    """

    def __init__(
        self, fitted: NeighborhoodDenoiser, counts: Dict[int, np.ndarray]
    ):
        self.fitted = fitted
        self.counts = counts
        self.n_classes = fitted.n_classes
        self.n_buckets = fitted.n_buckets

    def fit(self, topologies, conditions, schedule, rng) -> dict:
        raise TypeError("a ReferenceDenoiser wraps an already fitted denoiser")

    def target_fill(self, condition: Optional[int] = None) -> float:
        return self.fitted.target_fill(condition)

    def predict_x0(
        self, xk: np.ndarray, noise_level: float, condition: Optional[int] = None
    ) -> np.ndarray:
        stack, batched = as_stack(xk)
        out = self.predict_x0_many(stack, noise_level, [condition] * len(stack))
        return out if batched else out[0]

    def predict_x0_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        return sigmoid(self.predict_logits_many(xk, noise_level, conditions))

    def predict_logits_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """float64 logits derived from the count tables."""
        d = self.fitted
        stack, conds, bucket = d._check_many(xk, noise_level, conditions)
        priors = d._marginals[conds, bucket][:, None, None]
        base = ((conds * d.n_buckets + bucket) * d._n_codes)[:, None, None]
        logit = np.zeros(stack.shape, dtype=np.float64)
        for s, weight in zip(d.scales, d.scale_weights):
            codes = neighborhood_codes(downsample_binary(stack, s), d.offsets)
            flat = self.counts[s].reshape(-1, 2)
            index = base + codes
            ones = flat[index, 1]
            total = ones + flat[index, 0]
            p = (ones + d.smoothing * priors) / (total + d.smoothing)
            p = np.clip(p, _EPS, 1.0 - _EPS)
            logit += upsample_to(
                weight * np.log(p / (1.0 - p)), s, stack.shape[1:]
            )
        return logit / d._weight_total
