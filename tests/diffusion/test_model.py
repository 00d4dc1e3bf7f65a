"""Unit tests for the conditional diffusion model facade."""

import numpy as np
import pytest

from repro.diffusion import ConditionalDiffusionModel, DiffusionSchedule
from repro.diffusion.denoisers.base import sigmoid
from repro.diffusion.model import _calibrate_density
from repro.geometry import diagonal_touch_pairs


class TestLifecycle:
    def test_sample_before_fit_raises(self):
        model = ConditionalDiffusionModel(window=16, n_classes=0)
        with pytest.raises(RuntimeError):
            model.sample(1, None, np.random.default_rng(0))

    def test_sampler_option_removed(self):
        """x0-resampling is the only reverse step; there is no option."""
        with pytest.raises(TypeError):
            ConditionalDiffusionModel(sampler="x0")

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


def _bisection_offsets(logits, targets, bins=512):
    """The 40-round histogram bisection the full-map Newton solver replaced."""
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
    """float32 logit stack of probabilities, clipped like the kernel's."""
    p = np.clip(p, 1e-9, 1.0 - 1e-9)
    return np.log(p / (1.0 - p)).astype(np.float32)


class TestDensityCalibration:
    """The full-map Newton solver against the histogram bisection it
    replaced: the solver stops once each item's density is within 1e-4 of
    its target, so offsets agree up to that tolerance over the map's
    slope ``mean(p (1 - p))``."""

    def _calibrate(self, p, targets):
        z = _logits(p)
        targets = np.asarray(targets, dtype=np.float64)
        calibrated, offsets = _calibrate_density(z, targets)
        assert calibrated.dtype == np.float32
        means = calibrated.mean(axis=(1, 2), dtype=np.float64)
        assert np.abs(means - targets).max() < 1e-4
        shifted = sigmoid(z + offsets.astype(np.float32)[:, None, None])
        assert np.array_equal(calibrated, shifted)
        oracle = _bisection_offsets(
            z.reshape(len(z), -1).astype(np.float64), targets
        )
        slope = (calibrated * (1.0 - calibrated)).mean(axis=(1, 2))
        assert np.all(np.abs(offsets - oracle) * slope < 2e-4)
        return calibrated, offsets

    def test_pins_mean(self):
        rng = np.random.default_rng(0)
        p = rng.random((1, 64, 64)) * 0.2  # mean ~0.1
        calibrated, _ = self._calibrate(p, [0.35])
        assert calibrated.mean() == pytest.approx(0.35, abs=1e-4)

    def test_preserves_ordering(self):
        p = np.array([[[0.1, 0.4, 0.8]]])
        c = self._calibrate(p, [0.6])[0][0]
        assert c[0, 0] < c[0, 1] < c[0, 2]

    def test_noop_when_matching(self):
        p = np.full((1, 8, 8), 0.3)
        calibrated, offsets = self._calibrate(p, [0.3])
        assert offsets[0] == 0.0
        assert np.allclose(calibrated, 0.3, atol=1e-6)

    def test_stack_with_distinct_targets(self):
        rng = np.random.default_rng(1)
        p = rng.random((3, 32, 48)) ** 2
        targets = np.array([0.15, 0.4, 0.7])
        calibrated, _ = self._calibrate(p, targets)
        assert calibrated.mean(axis=(1, 2)) == pytest.approx(targets, abs=1e-4)

    def test_constant_logit_row(self):
        # A constant map needs the closed-form logit shift, up to the
        # density tolerance over the slope 0.25 at the target.
        p = np.full((1, 16, 16), 0.3)
        calibrated, offsets = self._calibrate(p, [0.5])
        assert offsets[0] == pytest.approx(-np.log(0.3 / 0.7), abs=4e-4)
        assert np.allclose(calibrated, 0.5, atol=1e-4)

    def test_row_at_target_unchanged(self):
        rng = np.random.default_rng(2)
        p = rng.random((2, 16, 16))
        z = _logits(p)
        targets = np.array([sigmoid(z[0]).mean(dtype=np.float64), 0.2])
        calibrated, offsets = self._calibrate(p, targets)
        assert offsets[0] == 0.0
        assert np.array_equal(calibrated[0], sigmoid(z[0]))
        assert calibrated[1].mean() == pytest.approx(0.2, abs=1e-4)

    def test_extreme_targets_stay_in_bracket(self):
        rng = np.random.default_rng(3)
        p = rng.random((2, 32, 32))
        targets = np.array([0.02, 0.98])
        calibrated, offsets = self._calibrate(p, targets)
        assert np.all(np.abs(offsets) < 30.0)
        assert calibrated.mean(axis=(1, 2)) == pytest.approx(targets, abs=1e-4)

    def test_unreachable_target_ends_at_bracket_edge(self):
        # Every logit sits at -25, so even d = +30 leaves the density at
        # sigmoid(5) ~ 0.9933: the offset runs to the edge and stops there.
        z = np.full((1, 4, 4), -25.0, dtype=np.float32)
        calibrated, offsets = _calibrate_density(z, np.array([0.9999]))
        assert offsets[0] == pytest.approx(30.0, abs=1e-6)
        assert np.allclose(calibrated, 1.0 / (1.0 + np.exp(-5.0)))
