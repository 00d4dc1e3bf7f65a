"""Unit tests for denoiser backends."""

import numpy as np
import pytest

from repro.diffusion import (
    DiffusionSchedule,
    MarginalDenoiser,
    NeighborhoodDenoiser,
    UNetLite,
    neighborhood_codes,
)
from repro.diffusion.denoisers.neighborhood import (
    downsample_binary,
    upsample_to,
    window_offsets,
)


class TestWindowOffsets:
    def test_rect(self):
        offsets = window_offsets((3, 3))
        assert len(offsets) == 9
        assert (0, 0) in offsets

    def test_diamond(self):
        offsets = window_offsets("diamond2")
        assert len(offsets) == 13
        assert all(abs(r) + abs(c) <= 2 for r, c in offsets)

    def test_plus(self):
        offsets = window_offsets("plus3")
        assert len(offsets) == 13
        assert (3, 0) in offsets and (0, -3) in offsets

    def test_even_rect_rejected(self):
        with pytest.raises(ValueError):
            window_offsets((2, 3))

    def test_explicit_offsets(self):
        offsets = window_offsets([(0, 0), (1, 1)])
        assert offsets == [(0, 0), (1, 1)]


class TestNeighborhoodCodes:
    def test_zero_padding(self):
        x = np.ones((2, 2), dtype=np.uint8)
        codes = neighborhood_codes(x, window_offsets((3, 3)))
        # Corner cell sees 4 ones and 5 padded zeros -> code < full 511.
        assert codes[0, 0] != codes.max() or codes.max() < 511

    def test_distinct_neighbourhoods_distinct_codes(self):
        offsets = window_offsets((3, 3))
        a = np.zeros((3, 3), dtype=np.uint8)
        b = np.zeros((3, 3), dtype=np.uint8)
        b[0, 1] = 1
        assert neighborhood_codes(a, offsets)[1, 1] != neighborhood_codes(b, offsets)[1, 1]

    def test_batch_matches_single(self):
        offsets = window_offsets("diamond2")
        rng = np.random.default_rng(0)
        x = (rng.random((2, 8, 8)) < 0.5).astype(np.uint8)
        batch = neighborhood_codes(x, offsets)
        assert np.array_equal(batch[0], neighborhood_codes(x[0], offsets))


class TestScaling:
    def test_downsample_majority(self):
        x = np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=np.uint8)
        d = downsample_binary(x, 2)
        assert d.shape == (1, 2)
        assert d[0, 0] == 1 and d[0, 1] == 0

    def test_downsample_identity_at_scale_1(self):
        x = np.eye(3, dtype=np.uint8)
        assert np.array_equal(downsample_binary(x, 1), x)

    def test_downsample_pads(self):
        x = np.ones((3, 3), dtype=np.uint8)
        d = downsample_binary(x, 2)
        assert d.shape == (2, 2)

    def test_upsample_crops(self):
        x = np.array([[1, 0]], dtype=np.uint8)
        up = upsample_to(x, 2, (2, 3))
        assert up.shape == (2, 3)
        assert up[0, 0] == 1 and up[1, 2] == 0


class TestMarginalDenoiser:
    def test_unconditional(self):
        d = MarginalDenoiser(n_classes=0)
        sch = DiffusionSchedule.linear(8)
        rng = np.random.default_rng(0)
        topos = np.zeros((4, 8, 8), dtype=np.uint8)
        topos[:, :2] = 1
        d.fit(topos, None, sch, rng)
        p = d.predict_x0(np.zeros((8, 8), dtype=np.uint8), 0.3)
        assert np.allclose(p, 0.25)

    def test_conditional(self):
        d = MarginalDenoiser(n_classes=2)
        sch = DiffusionSchedule.linear(8)
        rng = np.random.default_rng(0)
        topos = np.concatenate(
            [np.zeros((3, 4, 4), dtype=np.uint8), np.ones((3, 4, 4), dtype=np.uint8)]
        )
        conds = np.array([0, 0, 0, 1, 1, 1])
        d.fit(topos, conds, sch, rng)
        assert d.predict_x0(topos[0], 0.2, 0).mean() == pytest.approx(0.0)
        assert d.predict_x0(topos[0], 0.2, 1).mean() == pytest.approx(1.0)

    def test_condition_required_when_conditional(self):
        d = MarginalDenoiser(n_classes=2)
        with pytest.raises(ValueError):
            d.predict_x0(np.zeros((2, 2), dtype=np.uint8), 0.2, None)
        with pytest.raises(ValueError):
            d.predict_x0(np.zeros((2, 2), dtype=np.uint8), 0.2, 5)


class TestNeighborhoodDenoiser:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        # Vertical stripe world: column parity decides the value.
        base = np.zeros((16, 16), dtype=np.uint8)
        base[:, ::4] = 1
        base[:, 1::4] = 1
        topos = np.stack([base] * 12)
        d = NeighborhoodDenoiser(n_classes=0, scales=(1, 2), n_buckets=8)
        info = d.fit(topos, None, DiffusionSchedule.linear(16), rng)
        return d, info, base

    def test_fit_reports(self, fitted):
        _, info, _ = fitted
        assert info["patterns"] == 12
        assert info["observations"] > 0

    def test_predict_probability_range(self, fitted):
        d, _, base = fitted
        rng = np.random.default_rng(1)
        noisy = np.where(rng.random(base.shape) < 0.2, 1 - base, base).astype(np.uint8)
        p = d.predict_x0(noisy, 0.2)
        assert ((p >= 0) & (p <= 1)).all()

    def test_denoises_toward_clean(self, fitted):
        d, _, base = fitted
        rng = np.random.default_rng(2)
        noisy = np.where(rng.random(base.shape) < 0.15, 1 - base, base).astype(np.uint8)
        p = d.predict_x0(noisy, 0.15)
        recovered = (p > 0.5).astype(np.uint8)
        # Interior cells should mostly be recovered.
        assert (recovered == base).mean() > 0.85

    def test_target_fill_recorded(self, fitted):
        d, _, base = fitted
        assert d.target_fill() == pytest.approx(base.mean())

    def test_unfitted_raises(self):
        d = NeighborhoodDenoiser(n_classes=0)
        with pytest.raises(RuntimeError):
            d.predict_x0(np.zeros((4, 4), dtype=np.uint8), 0.2)

    def test_bucket_bounds(self, fitted):
        d, _, _ = fitted
        assert d.bucket_of(0.5) == d.n_buckets - 1
        assert d.bucket_of(1e-6) == 0
        with pytest.raises(ValueError):
            d.bucket_of(0.0)
        with pytest.raises(ValueError):
            d.bucket_of(0.6)


class TestUNetLite:
    def test_output_shape_and_range(self):
        net = UNetLite(n_classes=2, base_channels=4, seed=0)
        x = np.zeros((2, 16, 16), dtype=np.uint8)
        p = net.predict_x0(x, 0.3, 1)
        assert p.shape == (2, 16, 16)
        assert ((p >= 0) & (p <= 1)).all()

    def test_single_image(self):
        net = UNetLite(n_classes=0, base_channels=4, seed=0)
        p = net.predict_x0(np.zeros((16, 16), dtype=np.uint8), 0.3)
        assert p.shape == (16, 16)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        base = np.zeros((16, 16), dtype=np.uint8)
        base[:, ::2] = 1
        topos = np.stack([base] * 16)
        net = UNetLite(n_classes=0, base_channels=4, seed=1)
        info = net.fit(
            topos, None, DiffusionSchedule.linear(16), rng,
            iterations=60, batch_size=4, lr=3e-3,
        )
        losses = info["loss_history"]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


class TestNarrowCodes:
    """The narrow-dtype hashing equals the int64 shift-and-or formula."""

    @staticmethod
    def _int64_codes(x, offsets):
        max_r = max(abs(dr) for dr, _ in offsets)
        max_c = max(abs(dc) for _, dc in offsets)
        pad = np.pad(x, ((0, 0), (max_r, max_r), (max_c, max_c)))
        h, w = x.shape[1:]
        codes = np.zeros(x.shape, dtype=np.int64)
        for bit, (dr, dc) in enumerate(offsets):
            window = pad[:, max_r + dr : max_r + dr + h, max_c + dc : max_c + dc + w]
            codes |= window.astype(np.int64) << bit
        return codes

    @pytest.mark.parametrize(
        "spec,bits", [("plus1", 5), ((3, 3), 9), ("diamond2", 13), ("diamond3", 25)]
    )
    def test_matches_int64_formula(self, spec, bits):
        offsets = window_offsets(spec)
        rng = np.random.default_rng(bits)
        x = (rng.random((3, 37, 29)) < 0.5).astype(np.uint8)
        codes = neighborhood_codes(x, offsets)
        assert np.iinfo(codes.dtype).bits >= bits
        assert codes.dtype.kind == "u"
        assert np.array_equal(codes, self._int64_codes(x, offsets))

    def test_default_window_is_uint16(self):
        codes = neighborhood_codes(
            np.ones((2, 8, 8), dtype=np.uint8), window_offsets("diamond2")
        )
        assert codes.dtype == np.uint16
        assert codes.max() == (1 << 13) - 1

    def test_wide_window_keeps_every_bit(self):
        offsets = window_offsets("diamond3")
        assert len(offsets) == 25
        codes = neighborhood_codes(np.ones((9, 9), dtype=np.uint8), offsets)
        assert codes.dtype == np.uint32
        assert codes[4, 4] == (1 << 25) - 1

    @pytest.mark.parametrize("scale", [2, 3, 4, 8])
    def test_integer_majority_matches_float_mean(self, scale):
        rng = np.random.default_rng(scale)
        x = (rng.random((2, 100, 90)) < 0.5).astype(np.uint8)
        h, w = x.shape[1:]
        ph, pw = (-h) % scale, (-w) % scale
        padded = np.pad(x, ((0, 0), (0, ph), (0, pw)))
        mean = padded.reshape(
            2, (h + ph) // scale, scale, (w + pw) // scale, scale
        ).mean(axis=(-3, -1))
        assert np.array_equal(
            downsample_binary(x, scale), (mean >= 0.5).astype(np.uint8)
        )
