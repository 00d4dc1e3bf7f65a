"""Compiled logit tables: numerical identity, lifecycle and vectorized fit.

The sampling hot loop reads precompiled float32 logit lookup tables; these
tests pin that representation to the on-the-fly reference path (within
1e-6 in probability, 1e-5 in logit) and cover compilation across fit and
pickling.
"""

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.diffusion import (
    DiffusionSchedule,
    MarginalDenoiser,
    NeighborhoodDenoiser,
    neighborhood_codes,
)
from repro.api.config import TrainConfig
from repro.diffusion.denoisers.neighborhood import (
    _hash_plan,
    block_areas,
    block_sums,
    downsample_binary,
    upsample_to,
)
from repro.ops.extend import extend
from repro.serve.registry import ModelKey, fit_model

LEVELS = (0.01, 0.1, 0.23, 0.4, 0.5)


def _scale_table(d, s):
    """Scale ``s``'s ``(class, bucket, code)`` view of the compiled table."""
    return d._table[:, d.scales.index(s)].transpose(1, 0, 2)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    base = np.zeros((24, 24), dtype=np.uint8)
    base[:, 2::5] = 1
    base[:, 3::5] = 1
    topos = np.stack(
        [np.roll(base, int(s), axis=1) for s in range(12)]
        + [np.roll(base.T, int(s), axis=0) for s in range(12)]
    )
    conds = np.array([0] * 12 + [1] * 12)
    d = NeighborhoodDenoiser(n_classes=2, scales=(1, 2, 4), n_buckets=8)
    d.fit(topos, conds, DiffusionSchedule.linear(16), rng)
    return d


@pytest.fixture()
def noisy():
    rng = np.random.default_rng(11)
    return (rng.random((4, 24, 24)) < 0.5).astype(np.uint8)


class TestNumericalIdentity:
    def test_predict_x0_matches_reference(self, fitted, noisy):
        for level in LEVELS:
            for c in (0, 1):
                fast = fitted.predict_x0(noisy, level, c)
                slow = fitted._predict_x0_reference(noisy, level, c)
                assert np.abs(fast - slow).max() <= 1e-6

    def test_predict_x0_many_matches_reference(self, fitted, noisy):
        conds = [0, 1, 1, 0]
        for level in LEVELS:
            fast = fitted.predict_x0_many(noisy, level, conds)
            slow = fitted._predict_x0_many_reference(noisy, level, conds)
            assert np.abs(fast - slow).max() <= 1e-6

    def test_logits_match_reference(self, fitted, noisy):
        conds = [0, 1, 1, 0]
        for level in LEVELS:
            fast = fitted.predict_logits_many(noisy, level, conds)
            fitted.use_compiled = False
            try:
                slow = fitted.predict_logits_many(noisy, level, conds)
            finally:
                fitted.use_compiled = True
            assert fast.dtype == np.float32
            assert slow.dtype == np.float64
            assert np.abs(fast - slow).max() <= 1e-5

    def test_single_image_matches_reference(self, fitted, noisy):
        fast = fitted.predict_x0(noisy[0], 0.2, 1)
        slow = fitted._predict_x0_reference(noisy[0], 0.2, 1)
        assert fast.shape == (24, 24)
        assert np.abs(fast - slow).max() <= 1e-6

    def test_probability_range(self, fitted, noisy):
        p = fitted.predict_x0(noisy, 0.3, 0)
        assert ((p > 0) & (p < 1)).all()

    def test_use_compiled_toggle_selects_reference(self, fitted, noisy):
        fitted.use_compiled = False
        try:
            toggled = fitted.predict_x0(noisy, 0.2, 0)
            reference = fitted._predict_x0_reference(noisy, 0.2, 0)
        finally:
            fitted.use_compiled = True
        assert np.array_equal(toggled, reference)


class TestCompileLifecycle:
    def test_compiled_after_fit(self, fitted):
        assert fitted.compiled
        assert fitted._table.dtype == np.float32
        assert fitted._table.shape == (
            fitted.n_buckets, len(fitted.scales), 2, fitted._n_codes
        )
        for s in fitted.scales:
            table = _scale_table(fitted, s)
            assert table.shape == (2, fitted.n_buckets, fitted._n_codes)

    def test_unfitted_cannot_compile(self):
        d = NeighborhoodDenoiser(n_classes=0)
        assert not d.compile_tables()
        assert not d.compiled

    def test_base_denoiser_has_no_tables(self):
        assert MarginalDenoiser(n_classes=0).compile_tables() is False

    def test_compile_is_idempotent_without_force(self, fitted):
        before = fitted._table
        assert fitted.compile_tables()
        # no force -> the compiled table is not rebuilt
        assert fitted._table is before

    def test_refit_invalidates_and_recompiles(self):
        rng = np.random.default_rng(0)
        d = NeighborhoodDenoiser(n_classes=0, scales=(1, 2), n_buckets=4)
        sparse = (rng.random((6, 16, 16)) < 0.1).astype(np.uint8)
        dense = (rng.random((6, 16, 16)) < 0.6).astype(np.uint8)
        schedule = DiffusionSchedule.linear(8)
        d.fit(sparse, None, schedule, rng)
        first = d._table.copy()
        d.fit(dense, None, schedule, rng)
        assert d.compiled
        assert not np.array_equal(d._table, first)

    def test_hoisted_attributes(self, fitted):
        assert fitted._weight_total == pytest.approx(
            sum(fitted.scale_weights)
        )
        assert _hash_plan(tuple(fitted.offsets)).pads == (
            max(abs(r) for r, _ in fitted.offsets),
            max(abs(c) for _, c in fitted.offsets),
        )

    def test_pickle_roundtrip_keeps_compiled_form(self, fitted, noisy):
        clone = pickle.loads(pickle.dumps(fitted))
        assert clone.compiled
        assert np.array_equal(
            clone.predict_x0(noisy, 0.2, 0), fitted.predict_x0(noisy, 0.2, 0)
        )

    def test_pickle_stores_the_table_once_without_layouts(
        self, fitted, noisy
    ):
        fitted.predict_x0(noisy, 0.2, 0)  # fills the layout cache
        assert fitted._layouts
        clone = pickle.loads(pickle.dumps(fitted))
        assert clone._layouts == {}
        payload = len(pickle.dumps(fitted))
        assert payload < 1.5 * fitted._table.nbytes + sum(
            c.nbytes for c in fitted._counts.values()
        )


class TestVectorizedFit:
    def test_observation_count(self):
        rng = np.random.default_rng(5)
        topos = (rng.random((7, 16, 16)) < 0.3).astype(np.uint8)
        d = NeighborhoodDenoiser(n_classes=0, scales=(1, 2), n_buckets=4)
        info = d.fit(
            topos, None, DiffusionSchedule.linear(8), rng,
            draws_per_pattern=12,
        )
        # Every draw contributes exactly one observation per pixel at the
        # finest scale.
        assert info["observations"] == 7 * 12 * 16 * 16

    def test_round_robin_covers_every_bucket(self):
        rng = np.random.default_rng(6)
        topos = (rng.random((4, 16, 16)) < 0.3).astype(np.uint8)
        d = NeighborhoodDenoiser(n_classes=0, scales=(1,), n_buckets=8)
        d.fit(topos, None, DiffusionSchedule.linear(8), rng,
              draws_per_pattern=8)
        per_bucket = d._counts[1][0].sum(axis=(1, 2))
        assert (per_bucket > 0).all()

    def test_learns_structure(self):
        rng = np.random.default_rng(7)
        base = np.zeros((16, 16), dtype=np.uint8)
        base[:, ::4] = 1
        base[:, 1::4] = 1
        topos = np.stack([base] * 12)
        d = NeighborhoodDenoiser(n_classes=0, scales=(1, 2), n_buckets=8)
        d.fit(topos, None, DiffusionSchedule.linear(16), rng)
        noisy = np.where(
            rng.random(base.shape) < 0.15, 1 - base, base
        ).astype(np.uint8)
        recovered = (d.predict_x0(noisy, 0.15) > 0.5).astype(np.uint8)
        assert (recovered == base).mean() > 0.85


def _fit_stack(n, draws, shape, **kwargs):
    """A denoiser fit on ``n`` random ``shape`` patterns, ``draws`` each."""
    rng = np.random.default_rng(n + draws)
    topos = (rng.random((n,) + shape) < 0.4).astype(np.uint8)
    d = NeighborhoodDenoiser(**kwargs)
    d.fit(topos, None, DiffusionSchedule.linear(8), rng,
          draws_per_pattern=draws)
    return d


class TestNarrowCounts:
    """The count tables are stored in the narrowest unsigned dtype that
    holds a row's bound, ``patterns x draws x H x W`` cells."""

    def test_dtype_is_the_bound_of_the_fit(self, fitted, fitted_8):
        for d, bound in ((fitted, 24 * 16 * 24 * 24),
                         (fitted_8, 16 * 16 * 40 * 40)):
            for counts in d._counts.values():
                assert counts.dtype.kind == "u"
                assert counts.dtype == np.min_scalar_type(bound)

    @pytest.mark.parametrize("n,expected", [(15, np.uint16), (16, np.uint32)])
    def test_bound_crossing_two_to_the_16_widens(self, n, expected):
        # 16 x 16 x 16 x 16 = 2**16 cells no longer fit in uint16.
        d = _fit_stack(n, 16, (16, 16), scales=(1, 2), n_buckets=4)
        for counts in d._counts.values():
            assert counts.dtype == expected

    def test_reference_logits_do_not_wrap_near_the_dtype_range(self):
        # One bucket, one scale, a centre-only window: the fullest row
        # counts most of the 15 x 16 x 16 x 16 = 61,440 cells, so its
        # ``ones + zeros`` in uint16 is past what int16 could hold.
        d = _fit_stack(
            15, 16, (16, 16), scales=(1,), n_buckets=1, window=[(0, 0)]
        )
        counts = d._counts[1]
        assert counts.dtype == np.uint16
        totals = counts.sum(axis=-1)
        assert np.iinfo(np.int16).max < totals.max() <= np.iinfo(np.uint16).max
        rng = np.random.default_rng(1)
        stack = (rng.random((2, 16, 16)) < 0.5).astype(np.uint8)
        fast = d.predict_logits_many(stack, 0.3, [None, None])
        d.use_compiled = False
        slow = d.predict_logits_many(stack, 0.3, [None, None])
        # One scale of weight 1: the compiled entry is the reference logit
        # rounded to float32.
        assert np.array_equal(fast, slow.astype(np.float32))

    def test_default_recipe_counts_are_uint32(self, default_model):
        d = default_model.denoiser
        for counts in d._counts.values():
            assert counts.dtype == np.uint32
        assert d._table.nbytes + sum(
            c.nbytes for c in d._counts.values()
        ) == 12 << 20

    def test_unfitted_placeholder_is_narrow(self):
        for counts in NeighborhoodDenoiser(n_classes=2)._counts.values():
            assert counts.dtype == np.uint8


def _loop_counts(d, topos, conds, rng, draws):
    """``d``'s count tables by a plain per-pair, per-scale loop: the rng
    stream of ``fit`` (levels up front, then each bucket's pairs in
    order), int64 indices and ``np.add.at`` at every scale's own pooled
    resolution."""
    n, h, w = topos.shape
    counts = {
        s: np.zeros((d.n_classes, d.n_buckets, d._n_codes, 2), dtype=np.int64)
        for s in d.scales
    }
    if draws >= d.n_buckets:
        buckets = np.broadcast_to(np.arange(draws) % d.n_buckets, (n, draws))
    else:
        buckets = rng.integers(0, d.n_buckets, size=(n, draws))
    levels = np.clip(
        (buckets + rng.random((n, draws))) * 0.5 / d.n_buckets, 1e-4, 0.5
    )
    for bucket in range(d.n_buckets):
        for p, k in zip(*np.nonzero(buckets == bucket)):
            x0 = topos[p]
            xk = x0 ^ (rng.random((h, w)) < levels[p, k])
            for s in d.scales:
                codes = neighborhood_codes(
                    downsample_binary(xk, s), d.offsets
                ).astype(np.int64)
                rows = counts[s][conds[p], bucket]
                if s == 1:
                    np.add.at(rows, (codes, x0), 1)
                    continue
                ones = block_sums(x0, s).astype(np.int64)
                np.add.at(rows[:, 1], codes, ones)
                np.add.at(rows[:, 0], codes, block_areas((h, w), s) - ones)
    return counts


class TestNarrowIndex:
    """The fine index ``(class, code, target)`` is built on the uint16
    codes when ``2 x classes x codes <= 2**16`` and wider past it; stacks
    on both sides of that bound count exactly what a plain loop does."""

    @staticmethod
    def _fit_and_oracle(seed, shape, fills, conds, **kwargs):
        conds = np.asarray(conds)
        fill = np.asarray(fills)[conds][:, None, None]
        tables = []
        for fit in (True, False):
            rng = np.random.default_rng(seed)
            topos = (rng.random(shape) < fill).astype(np.uint8)
            d = NeighborhoodDenoiser(**kwargs)
            if fit:
                d.fit(topos, conds, DiffusionSchedule.linear(16), rng)
                tables.append(d._counts)
            else:
                tables.append(_loop_counts(d, topos, conds, rng, 16))
        fitted, oracle = tables
        for s in d.scales:
            assert np.array_equal(fitted[s], oracle[s]), s
        return d, oracle

    def test_five_classes_past_the_bound(self):
        # 2 x 5 x 2**13 = 81,920 indices; class 4 sits wholly past 2**16.
        d, oracle = self._fit_and_oracle(
            21, (10, 20, 22), (0.1, 0.3, 0.5, 0.7, 0.9), np.arange(10) % 5,
            n_classes=5,
        )
        assert 2 * d.n_classes * d._n_codes > 1 << 16
        assert oracle[1][4].sum() > 0

    def test_fifteen_bit_window_past_the_bound(self):
        # ``fitted_odd``'s recipe: a (3, 5) window has 2**15 codes, so
        # class 1 indexes from 2 x 2**15 = 2**16 on.
        d, oracle = self._fit_and_oracle(
            8, (12, 36, 36), (0.4, 0.4), np.arange(12) % 2,
            n_classes=2, scales=(1, 3, 6), window=(3, 5),
        )
        assert d._n_codes == 1 << 15
        assert oracle[1][1].sum() > 0

    def test_four_classes_at_the_bound(self):
        # 2 x 4 x 2**13 = 2**16: the top index, 65,535, is class 3's
        # all-set neighbourhood over a set clean cell, and is reached.
        d, oracle = self._fit_and_oracle(
            22, (8, 20, 22), (0.1, 0.4, 0.7, 0.95), np.arange(8) % 4,
            n_classes=4,
        )
        assert 2 * d.n_classes * d._n_codes == 1 << 16
        assert oracle[1][3, :, -1, 1].sum() > 0


def _traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedWorkingSet:
    """The fit and the compile keep a fixed working set beside the tables
    they leave behind, however large the training stack."""

    MB = 1 << 20

    @staticmethod
    def _kept(d) -> int:
        return d._table.nbytes + sum(c.nbytes for c in d._counts.values())

    def test_fit_transient_does_not_grow_with_the_stack(self):
        transient = {}
        for n in (16, 64):
            rng = np.random.default_rng(n)
            topos = (rng.random((n, 128, 128)) < 0.4).astype(np.uint8)
            d = NeighborhoodDenoiser(n_classes=2)
            peak = _traced_peak(lambda: d.fit(
                topos, np.arange(n) % 2, DiffusionSchedule.linear(16), rng
            ))
            transient[n] = peak - self._kept(d)
        assert abs(transient[64] - transient[16]) < self.MB, transient

    #: Traced fit transient above the kept tables at 16 random 128x128
    #: patterns: measured 0.63 MB with the reused counting buffers (1.58 MB
    #: with per-chunk draws, flips and int32 indices), plus a 0.25 MB margin.
    DEFAULT_SHAPE_TRANSIENT = 0.88 * MB

    def test_default_shape_fit_transient_is_bounded(self):
        rng = np.random.default_rng(16)
        topos = (rng.random((16, 128, 128)) < 0.4).astype(np.uint8)
        d = NeighborhoodDenoiser(n_classes=2)
        peak = _traced_peak(lambda: d.fit(
            topos, np.arange(16) % 2, DiffusionSchedule.linear(16), rng
        ))
        transient = peak - self._kept(d)
        assert transient < self.DEFAULT_SHAPE_TRANSIENT, transient / self.MB

    def test_default_shape_fit_keeps_table_plus_4_byte_counts(self):
        rng = np.random.default_rng(16)
        topos = (rng.random((16, 128, 128)) < 0.4).astype(np.uint8)
        d = NeighborhoodDenoiser(n_classes=2)
        d.fit(topos, np.arange(16) % 2, DiffusionSchedule.linear(16), rng)
        cells = sum(c.size for c in d._counts.values())
        assert self._kept(d) <= d._table.nbytes + 4 * cells

    def test_compile_has_no_full_float64_temporaries(self, fitted_8):
        peak = _traced_peak(lambda: fitted_8.compile_tables(force=True))
        assert peak < 2 * fitted_8._table.nbytes


@pytest.fixture(scope="module")
def fitted_8():
    """Four scales, so the coarsest pool is 8 and odd shapes get padded."""
    rng = np.random.default_rng(5)
    topos = (rng.random((16, 40, 40)) < 0.35).astype(np.uint8)
    d = NeighborhoodDenoiser(n_classes=2)
    d.fit(topos, np.arange(16) % 2, DiffusionSchedule.linear(16), rng)
    return d


@pytest.fixture(scope="module")
def fitted_odd():
    """Pools of 3 and 6 (not powers of two) and a 3x5 window, whose reach
    differs by axis, so the canvas gutters differ by axis too."""
    rng = np.random.default_rng(8)
    topos = (rng.random((12, 36, 36)) < 0.4).astype(np.uint8)
    d = NeighborhoodDenoiser(n_classes=2, scales=(1, 3, 6), window=(3, 5))
    d.fit(topos, np.arange(12) % 2, DiffusionSchedule.linear(16), rng)
    return d


class TestPooledGather:
    """Gathering at pooled resolution equals gathering upsampled codes."""

    @staticmethod
    def _upsample_then_gather(d, stack, level, conditions):
        conds = np.asarray(conditions, dtype=np.int64)
        bucket = d.bucket_of(level)
        base = ((conds * d.n_buckets + bucket) * d._n_codes)[:, None, None]
        shape = stack.shape[1:]
        if d.use_compiled:
            logit = np.zeros(stack.shape, dtype=np.float32)
            for s in d.scales:
                codes = neighborhood_codes(
                    downsample_binary(stack, s), d.offsets
                ).astype(np.int64)
                pixel_codes = upsample_to(codes, s, shape)
                table = _scale_table(d, s).reshape(-1)
                logit += table[base + pixel_codes]
            return 1.0 / (1.0 + np.exp(-logit, dtype=np.float64))
        priors = d._marginals[conds, bucket][:, None, None]
        logit = np.zeros(stack.shape, dtype=np.float64)
        for s, weight in zip(d.scales, d.scale_weights):
            codes = neighborhood_codes(
                downsample_binary(stack, s), d.offsets
            ).astype(np.int64)
            index = base + upsample_to(codes, s, shape)
            flat = d._counts[s].reshape(-1, 2)
            ones = flat[index, 1]
            total = ones + flat[index, 0]
            p = (ones + d.smoothing * priors) / (total + d.smoothing)
            p = np.clip(p, 1e-6, 1.0 - 1e-6)
            logit += weight * np.log(p / (1.0 - p))
        return 1.0 / (1.0 + np.exp(-logit / d._weight_total))

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("shape", [(2, 100, 90), (3, 40, 40), (1, 13, 21)])
    def test_bit_identical(self, fitted_8, fitted_odd, compiled, shape):
        rng = np.random.default_rng(sum(shape))
        stack = (rng.random(shape) < 0.5).astype(np.uint8)
        conditions = [i % 2 for i in range(shape[0])]
        for d in (fitted_8, fitted_odd):
            d.use_compiled = compiled
            try:
                for level in (0.05, 0.3):
                    expected = self._upsample_then_gather(
                        d, stack, level, conditions
                    )
                    got = d.predict_x0_many(stack, level, conditions)
                    assert np.array_equal(got, expected)
            finally:
                d.use_compiled = True


def _model_digest(d) -> str:
    """SHA-256 over every array ``fit`` leaves behind, in a fixed order.

    The count tables are hashed as float64, the dtype they were recorded
    in: their values, not their storage dtype, are pinned.
    """
    h = hashlib.sha256()
    for s in d.scales:
        h.update(np.ascontiguousarray(d._counts[s], dtype=np.float64).tobytes())
    for s in d.scales:
        h.update(np.ascontiguousarray(_scale_table(d, s)).tobytes())
    h.update(np.ascontiguousarray(d._marginals).tobytes())
    h.update(np.ascontiguousarray(d._target_fills).tobytes())
    return h.hexdigest()


class TestFittedModelPin:
    """The fitted count and logit tables are pinned byte for byte.

    The digests were recorded from the full-resolution, one-``bincount``
    per (bucket, scale) fit; any rewrite of ``fit`` or of the training-set
    build must reproduce them exactly, rng stream included.
    """

    STACK_DIGESTS = {
        ((12, 100, 90), 16): (
            "a010d7728dccba5743218a28209deae8"
            "af1c9779dbc206f01e78985d6ff3b00f"
        ),
        ((12, 100, 90), 5): (
            "5928f1a5990aad8aec11a8d66d65d44b"
            "1a7b1228e40a61936aa86951ed951016"
        ),
        ((7, 13, 21), 16): (
            "edd21510fb2d11ad95c849add3616345"
            "4e9534c7ae8b1d4530231730be0c3800"
        ),
        ((7, 13, 21), 5): (
            "34c5924f5cb873fba6dc1204e9710378"
            "1e6f5ae9555f27da1e7be64dc43aebcd"
        ),
    }
    RECIPE_DIGEST = (
        "afaad8dd87d56be08da3e8139999dc0f"
        "7e21caba45e855e4696fdbe3d48762b4"
    )

    @pytest.mark.parametrize("shape,draws", sorted(STACK_DIGESTS))
    def test_random_stack(self, shape, draws):
        rng = np.random.default_rng(sum(shape) + draws)
        topos = (rng.random(shape) < 0.4).astype(np.uint8)
        conds = np.arange(shape[0]) % 2
        d = NeighborhoodDenoiser(n_classes=2, scales=(1, 2, 4, 8))
        d.fit(topos, conds, DiffusionSchedule.linear(16), rng,
              draws_per_pattern=draws)
        assert _model_digest(d) == self.STACK_DIGESTS[(shape, draws)]

    def test_train_config_recipe(self):
        model = fit_model(ModelKey.from_config(
            TrainConfig(window=64, train_count=3, seed=5)
        ))
        assert _model_digest(model.denoiser) == self.RECIPE_DIGEST


@pytest.fixture(scope="module")
def default_model():
    return fit_model(ModelKey.from_config(TrainConfig()))


class TestPredictionPin:
    """``predict_logits_many`` of the default-recipe model, byte for byte.

    Each digest covers both classes at three noise levels for one random
    stack; they were recorded from the per-scale ``block_sums`` pooling,
    ``repeat`` upsampling and one-shift-per-offset hashing.
    """

    DIGESTS = {
        (1, 128, 128): (
            "b3907aed4a8b74f81b8ce927b0f8a741"
            "c5e9433f574527bed3ccec10c2e6b8d2"
        ),
        (3, 128, 128): (
            "a1aa05e7f1c908b4031ac3227221ba54"
            "210efb2a00c40a3b29b2a9d78f0c3c67"
        ),
        (2, 100, 90): (
            "c9c33a585b968f7c4241389f7702ea5d"
            "2a35e47b034c2fed5f7660e4999dfb72"
        ),
        (1, 13, 21): (
            "e8f1075e9aa3a2d58b9f8d6a8bc68f03"
            "52660a26a4b5bec9d0bf050256449de6"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(DIGESTS))
    def test_logits(self, default_model, shape):
        rng = np.random.default_rng(sum(shape))
        stack = (rng.random(shape) < 0.5).astype(np.uint8)
        h = hashlib.sha256()
        for cls in (0, 1):
            for level in (0.01, 0.2, 0.5):
                z = default_model.denoiser.predict_logits_many(
                    stack, level, [cls] * shape[0]
                )
                assert z.dtype == np.float32 and z.shape == shape
                h.update(z.tobytes())
        assert h.hexdigest() == self.DIGESTS[shape]


class TestTrajectoryPin:
    """``"full"`` trajectories and 256x256 extensions of the default-recipe
    model, byte for byte.

    Recorded from the per-scale hash-and-gather loop of
    ``predict_logits_many``, before the scales shared one canvas and one
    gather.
    """

    SAMPLE_DIGESTS = {
        (0,): (
            "92438e70f09490131f1ef6c6cded992b"
            "a51faa8bb283b0f890861218efe6caad"
        ),
        (1, 0, 1): (
            "a1428ac282aa536f822b83011cfad899"
            "d42c587dc02c48f8502c09ec9af9dba1"
        ),
    }
    EXTEND_DIGESTS = {
        "out": (
            "2b7bf451b79691a410c6f8cb1d24c15f"
            "e97a826088a4b50302c594d3c4b071b1"
        ),
        "in": (
            "9884b8f5876a8e95bef24f298542e962"
            "f0d2a50c1d3ca797671b18303181ddaf"
        ),
    }

    @pytest.mark.parametrize("conditions", sorted(SAMPLE_DIGESTS))
    def test_full_sample_batch(self, default_model, conditions):
        x = default_model.sample_batch(
            list(conditions), np.random.default_rng(len(conditions) // 2),
            sampler_steps="full",
        )
        assert x.dtype == np.uint8 and x.shape == (len(conditions), 128, 128)
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        assert digest == self.SAMPLE_DIGESTS[conditions]

    @pytest.mark.parametrize("method", sorted(EXTEND_DIGESTS))
    def test_extend_256(self, default_model, method):
        result = extend(
            default_model, (256, 256), 0, np.random.default_rng(2),
            method=method,
        )
        x = result.topology
        assert x.dtype == np.uint8 and x.shape == (256, 256)
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        assert digest == self.EXTEND_DIGESTS[method]


class TestBucketedSamplePin:
    """``"bucketed"`` samples of the default-recipe model, byte for byte.

    The bucketed plan starts at k=63, below the schedule's signal start,
    so neither its steps nor its random stream depend on where ``"full"``
    starts.  Recorded before the chain start moved from K to
    ``start_step``.
    """

    DIGESTS = {
        0: (
            "a1966d41983565ebf106a1ca07c89fdb"
            "f456f817835d085af230825c8e92b31d"
        ),
        1: (
            "fbd07d929e5aebefae866408149a89c7"
            "adda3fc3c8a100ed3dc8d3febe10a848"
        ),
    }

    @pytest.mark.parametrize("cls", sorted(DIGESTS))
    def test_sample(self, default_model, cls):
        x = default_model.sample(
            2, cls, np.random.default_rng(0), sampler_steps="bucketed"
        )
        assert x.dtype == np.uint8 and x.shape == (2, 128, 128)
        assert hashlib.sha256(x.tobytes()).hexdigest() == self.DIGESTS[cls]
