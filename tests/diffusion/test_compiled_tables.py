"""Compiled logit tables: numerical identity, lifecycle and vectorized fit.

The sampling hot loop reads precompiled float32 logit lookup tables; these
tests pin that representation to the on-the-fly reference path within 1e-6
and cover compilation/rehydration across fit, pickle and legacy payloads.
"""

import pickle

import numpy as np
import pytest

from repro.diffusion import (
    DiffusionSchedule,
    MarginalDenoiser,
    NeighborhoodDenoiser,
    neighborhood_codes,
)
from repro.diffusion.denoisers.neighborhood import downsample_binary, upsample_to

LEVELS = (0.01, 0.1, 0.23, 0.4, 0.5)


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
        assert set(fitted._logit_tables) == set(fitted.scales)
        for s in fitted.scales:
            table = fitted._logit_tables[s]
            assert table.dtype == np.float32
            assert table.shape == (2, fitted.n_buckets, fitted._n_codes)

    def test_unfitted_cannot_compile(self):
        d = NeighborhoodDenoiser(n_classes=0)
        assert not d.compile_tables()
        assert not d.compiled

    def test_base_denoiser_has_no_tables(self):
        assert MarginalDenoiser(n_classes=0).compile_tables() is False

    def test_compile_is_idempotent_without_force(self, fitted):
        before = dict(fitted._logit_tables)
        assert fitted.compile_tables()
        for s in fitted.scales:
            # no force -> the compiled tables are not rebuilt
            assert fitted._logit_tables[s] is before[s]

    def test_refit_invalidates_and_recompiles(self):
        rng = np.random.default_rng(0)
        d = NeighborhoodDenoiser(n_classes=0, scales=(1, 2), n_buckets=4)
        sparse = (rng.random((6, 16, 16)) < 0.1).astype(np.uint8)
        dense = (rng.random((6, 16, 16)) < 0.6).astype(np.uint8)
        schedule = DiffusionSchedule.linear(8)
        d.fit(sparse, None, schedule, rng)
        first = {s: t.copy() for s, t in d._logit_tables.items()}
        d.fit(dense, None, schedule, rng)
        assert d.compiled
        assert any(
            not np.array_equal(d._logit_tables[s], first[s])
            for s in d.scales
        )

    def test_hoisted_attributes(self, fitted):
        assert fitted._weight_total == pytest.approx(
            sum(fitted.scale_weights)
        )
        assert fitted._pads == (
            max(abs(r) for r, _ in fitted.offsets),
            max(abs(c) for _, c in fitted.offsets),
        )

    def test_pickle_roundtrip_keeps_compiled_form(self, fitted, noisy):
        clone = pickle.loads(pickle.dumps(fitted))
        assert clone.compiled
        assert np.array_equal(
            clone.predict_x0(noisy, 0.2, 0), fitted.predict_x0(noisy, 0.2, 0)
        )

    def test_legacy_pickle_state_rehydrates(self, fitted, noisy):
        """A payload pickled before compiled tables existed must come back
        compiled (the registry's disk tier serves such models)."""
        legacy_keys = (
            "_weight_total", "_pads", "use_compiled",
            "_compiled", "_logit_tables",
        )
        state = {
            k: v for k, v in fitted.__dict__.items() if k not in legacy_keys
        }
        clone = NeighborhoodDenoiser.__new__(NeighborhoodDenoiser)
        clone.__setstate__(state)
        assert clone.compiled
        assert clone.use_compiled
        assert np.array_equal(
            clone.predict_x0(noisy, 0.2, 1), fitted.predict_x0(noisy, 0.2, 1)
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


@pytest.fixture(scope="module")
def fitted_8():
    """Four scales, so the coarsest pool is 8 and odd shapes get padded."""
    rng = np.random.default_rng(5)
    topos = (rng.random((16, 40, 40)) < 0.35).astype(np.uint8)
    d = NeighborhoodDenoiser(n_classes=2)
    d.fit(topos, np.arange(16) % 2, DiffusionSchedule.linear(16), rng)
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
                logit += d._logit_tables[s].reshape(-1)[base + pixel_codes]
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
    def test_bit_identical(self, fitted_8, compiled, shape):
        rng = np.random.default_rng(sum(shape))
        stack = (rng.random(shape) < 0.5).astype(np.uint8)
        conditions = [i % 2 for i in range(shape[0])]
        fitted_8.use_compiled = compiled
        try:
            for level in (0.05, 0.3):
                expected = self._upsample_then_gather(
                    fitted_8, stack, level, conditions
                )
                got = fitted_8.predict_x0_many(stack, level, conditions)
                assert np.array_equal(got, expected)
        finally:
            fitted_8.use_compiled = True
