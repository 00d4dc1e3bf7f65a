"""Unit tests for the batched mixed-condition sampling path."""

import numpy as np
import pytest

from repro.diffusion import ConditionalDiffusionModel
from repro.diffusion.denoisers.base import MarginalDenoiser


class TestPredictX0Many:
    def test_matches_per_item_predict(self, small_model):
        rng = np.random.default_rng(3)
        xk = (rng.random((6, 64, 64)) < 0.5).astype(np.uint8)
        conditions = [0, 1, 0, 1, 1, 0]
        level = small_model.schedule.beta_bar(10)
        many = small_model.denoiser.predict_x0_many(xk, level, conditions)
        per_item = np.stack(
            [
                small_model.denoiser.predict_x0(xk[i], level, conditions[i])
                for i in range(len(conditions))
            ]
        )
        assert np.array_equal(many, per_item)

    def test_base_class_fallback_matches(self):
        denoiser = MarginalDenoiser(n_classes=2)
        denoiser.fit(
            np.stack(
                [np.zeros((8, 8), np.uint8), np.ones((8, 8), np.uint8)]
            ),
            np.array([0, 1]),
            schedule=None,
            rng=np.random.default_rng(0),
        )
        xk = np.zeros((3, 8, 8), dtype=np.uint8)
        out = denoiser.predict_x0_many(xk, 0.3, [0, 1, 0])
        assert np.allclose(out[0], denoiser.predict_x0(xk[0], 0.3, 0))
        assert np.allclose(out[1], denoiser.predict_x0(xk[1], 0.3, 1))

    def test_rejects_bad_input(self, small_model):
        level = small_model.schedule.beta_bar(5)
        with pytest.raises(ValueError):
            small_model.denoiser.predict_x0_many(
                np.zeros((8, 8), np.uint8), level, [0]
            )
        with pytest.raises(ValueError):
            small_model.denoiser.predict_x0_many(
                np.zeros((2, 8, 8), np.uint8), level, [0]
            )


class TestSampleBatch:
    def test_shapes_dtype_and_values(self, small_model):
        out = small_model.sample_batch([0, 1, 0], np.random.default_rng(5))
        assert out.shape == (3, 64, 64)
        assert out.dtype == np.uint8
        assert set(np.unique(out)) <= {0, 1}

    def test_empty_batch(self, small_model):
        out = small_model.sample_batch([], np.random.default_rng(0))
        assert out.shape == (0, 64, 64)

    def test_custom_shape(self, small_model):
        out = small_model.sample_batch(
            [0, 1], np.random.default_rng(1), shape=(32, 48)
        )
        assert out.shape == (2, 32, 48)

    def test_deterministic_for_fixed_rng(self, small_model):
        a = small_model.sample_batch([0, 1], np.random.default_rng(7))
        b = small_model.sample_batch([0, 1], np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_items_track_their_class_density(self, small_model):
        conditions = [0, 1, 0, 1]
        out = small_model.sample_batch(conditions, np.random.default_rng(11))
        for topology, condition in zip(out, conditions):
            target = small_model.denoiser.target_fill(condition)
            assert abs(float(topology.mean()) - target) < 0.2

    def test_mismatched_conditions_raise(self, small_model):
        xk = np.zeros((2, 64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            small_model.denoise_step_batch(
                xk, 3, [0], np.random.default_rng(0)
            )
        with pytest.raises(ValueError):
            small_model.denoise_step_batch(
                xk[0], 3, [0], np.random.default_rng(0)
            )

    def test_unfitted_model_raises(self):
        model = ConditionalDiffusionModel(window=16, n_classes=2)
        with pytest.raises(RuntimeError):
            model.sample_batch([0], np.random.default_rng(0))
