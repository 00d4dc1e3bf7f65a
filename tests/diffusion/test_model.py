"""Unit tests for the conditional diffusion model facade."""

import numpy as np
import pytest

from repro.diffusion import (
    ConditionalDiffusionModel,
    DiffusionSchedule,
    MarginalDenoiser,
)
from repro.diffusion.model import _calibrate_density_batch, _density_offsets
from repro.geometry import diagonal_touch_pairs


class TestLifecycle:
    def test_sample_before_fit_raises(self):
        model = ConditionalDiffusionModel(window=16, n_classes=0)
        with pytest.raises(RuntimeError):
            model.sample(1, None, np.random.default_rng(0))

    def test_bad_sampler_rejected(self):
        with pytest.raises(ValueError):
            ConditionalDiffusionModel(sampler="nonsense")

    def test_prior_is_fair_coin(self):
        model = ConditionalDiffusionModel(window=16, n_classes=0)
        x = model.prior_sample((64, 64), np.random.default_rng(0))
        assert x.mean() == pytest.approx(0.5, abs=0.05)


class TestSampling:
    @pytest.fixture(scope="class")
    def stripe_model(self):
        rng = np.random.default_rng(0)
        base = np.zeros((24, 24), dtype=np.uint8)
        base[:, 2::6] = 1
        base[:, 3::6] = 1
        topos = np.stack([np.roll(base, int(s), axis=1) for s in range(16)])
        model = ConditionalDiffusionModel(
            schedule=DiffusionSchedule.linear(48, 0.003, 0.08),
            window=24,
            n_classes=0,
        )
        model.fit(topos, None, rng)
        return model

    def test_sample_shape_dtype(self, stripe_model):
        s = stripe_model.sample(3, None, np.random.default_rng(1))
        assert s.shape == (3, 24, 24)
        assert s.dtype == np.uint8
        assert set(np.unique(s)) <= {0, 1}

    def test_sample_density_near_target(self, stripe_model):
        s = stripe_model.sample(4, None, np.random.default_rng(2))
        target = stripe_model.denoiser.target_fill()
        assert abs(s.mean() - target) < 0.12

    def test_samples_have_no_corner_touches(self, stripe_model):
        s = stripe_model.sample(4, None, np.random.default_rng(3))
        for x in s:
            assert diagonal_touch_pairs(x) == []

    def test_custom_shape(self, stripe_model):
        s = stripe_model.sample(1, None, np.random.default_rng(4), shape=(16, 32))
        assert s.shape == (1, 16, 32)

    def test_reproducible_given_seed(self, stripe_model):
        a = stripe_model.sample(2, None, np.random.default_rng(7))
        b = stripe_model.sample(2, None, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_posterior_sampler_runs(self):
        rng = np.random.default_rng(0)
        topos = (rng.random((8, 16, 16)) < 0.3).astype(np.uint8)
        model = ConditionalDiffusionModel(
            denoiser=MarginalDenoiser(n_classes=0),
            schedule=DiffusionSchedule.linear(16),
            window=16,
            n_classes=0,
            sampler="posterior",
            density_guidance=False,
            sharpen=0.0,
        )
        model.fit(topos, None, rng)
        s = model.sample(2, None, rng)
        assert s.shape == (2, 16, 16)


class TestNoiseTo:
    def test_k0_is_identity(self):
        model = ConditionalDiffusionModel(window=8, n_classes=0)
        x0 = np.eye(8, dtype=np.uint8)
        assert np.array_equal(model.noise_to(x0, 0, np.random.default_rng(0)), x0)

    def test_k_positive_flips(self):
        model = ConditionalDiffusionModel(window=8, n_classes=0)
        x0 = np.zeros((64, 64), dtype=np.uint8)
        xk = model.noise_to(x0, model.schedule.steps, np.random.default_rng(0))
        assert xk.mean() == pytest.approx(0.5, abs=0.05)


def _bisection_offsets(logits, targets, bins=512):
    """The 40-round histogram bisection the Newton solver replaced."""
    n_rows, size = logits.shape
    lo_edge = logits.min(axis=1, keepdims=True)
    span = logits.max(axis=1, keepdims=True) - lo_edge
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
    reps = sums / np.maximum(counts, 1)
    weights = counts / size
    lo = np.full(n_rows, -30.0)
    hi = np.full(n_rows, 30.0)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        mean = (weights / (1.0 + np.exp(-(reps + mid[:, None])))).sum(axis=1)
        below = mean < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _logits(p):
    p = np.clip(p, 1e-9, 1.0 - 1e-9)
    return np.log(p / (1.0 - p)).reshape(p.shape[0], -1)


class TestDensityCalibration:
    def _check_offsets(self, p, targets):
        logits = _logits(p)
        targets = np.asarray(targets, dtype=np.float64)
        offsets = _density_offsets(logits, targets)
        assert np.abs(offsets - _bisection_offsets(logits, targets)).max() < 1e-9
        return offsets

    def test_pins_mean(self):
        rng = np.random.default_rng(0)
        p = rng.random((1, 64, 64)) * 0.2  # mean ~0.1
        self._check_offsets(p, [0.35])
        calibrated = _calibrate_density_batch(p, np.array([0.35]))
        assert calibrated.mean() == pytest.approx(0.35, abs=0.01)

    def test_preserves_ordering(self):
        p = np.array([[[0.1, 0.4, 0.8]]])
        self._check_offsets(p, [0.6])
        c = _calibrate_density_batch(p, np.array([0.6]))[0]
        assert c[0, 0] < c[0, 1] < c[0, 2]

    def test_noop_when_matching(self):
        p = np.full((1, 8, 8), 0.3)
        c = _calibrate_density_batch(p, np.array([0.3]))
        assert np.allclose(c, 0.3, atol=1e-3)

    def test_stack_with_distinct_targets(self):
        rng = np.random.default_rng(1)
        p = rng.random((3, 32, 48)) ** 2
        targets = np.array([0.15, 0.4, 0.7])
        self._check_offsets(p, targets)
        calibrated = _calibrate_density_batch(p, targets)
        assert calibrated.mean(axis=(1, 2)) == pytest.approx(targets, abs=1e-3)

    def test_constant_logit_row(self):
        # Every logit lands in the one degenerate bin, whose representative
        # is the exact value: the offset is the closed-form logit shift.
        p = np.full((1, 16, 16), 0.3)
        offsets = self._check_offsets(p, [0.5])
        assert offsets[0] == pytest.approx(-np.log(0.3 / 0.7), abs=1e-9)
        calibrated = _calibrate_density_batch(p, np.array([0.5]))
        assert np.allclose(calibrated, 0.5, atol=1e-9)

    def test_row_at_target_unchanged(self):
        rng = np.random.default_rng(2)
        p = rng.random((2, 16, 16))
        targets = np.array([p[0].mean(), 0.2])
        calibrated = _calibrate_density_batch(p, targets)
        assert np.array_equal(calibrated[0], p[0])
        assert calibrated[1].mean() == pytest.approx(0.2, abs=1e-3)

    def test_extreme_targets_stay_in_bracket(self):
        rng = np.random.default_rng(3)
        p = rng.random((2, 32, 32))
        targets = np.array([0.02, 0.98])
        offsets = self._check_offsets(p, targets)
        assert np.all(np.abs(offsets) < 30.0)
        calibrated = _calibrate_density_batch(p, targets)
        assert calibrated.mean(axis=(1, 2)) == pytest.approx(targets, abs=1e-3)
