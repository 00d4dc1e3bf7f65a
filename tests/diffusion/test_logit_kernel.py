"""The reverse step in logit space with one random draw per cell.

``denoise_step_batch`` sharpens by scaling the denoiser's logits,
calibrates density with a per-item logit offset (solved on
``exp(-clip(gamma z))``, warm-started along a trajectory) and draws the
next state with one uniform per cell, kept cells of a masked chain
included; ``polish_batch`` and corner resolution compare logits.  These
tests pin each piece to the probability-space math it replaced, and pin
the statistics of the compiled kernel to the float64
:class:`ReferenceDenoiser` oracle.
"""

import numpy as np
import pytest

from repro.data import STYLES
from repro.diffusion import (
    ConditionalDiffusionModel,
    DiffusionSchedule,
    MarginalDenoiser,
)
from repro.diffusion.denoisers.base import LOGIT_CLIP
from repro.diffusion.model import (
    _clear_weakest_touch_cells,
    _density_offsets,
    _exp_neg_logits,
    _row_quantiles,
)
from repro.geometry import diagonal_touch_pairs
from repro.metrics import diversity, legalize_many
from repro.ops.extend import extend
from repro.ops.modify import modify_batch


def _marginal_model(p):
    """A model whose denoiser predicts the constant ``p`` everywhere."""
    model = ConditionalDiffusionModel(
        denoiser=MarginalDenoiser(n_classes=0),
        schedule=DiffusionSchedule.linear(16, 0.003, 0.08),
        window=16,
        n_classes=0,
        density_guidance=False,
        sharpen=0.0,
    )
    fill = np.zeros((1, 10, 10), dtype=np.uint8)
    fill.flat[: int(round(p * 100))] = 1
    model.fit(fill, None, np.random.default_rng(0))
    return model


class TestOneDraw:
    """Re-noising ``x0_hat ~ Bernoulli(p)`` with flips of probability
    ``b`` gives a one with probability ``b + (1 - 2b) p``."""

    SHAPE = (4, 128, 128)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("k_next", [0, 3, 15])
    def test_frequency_of_ones(self, p, k_next):
        model = _marginal_model(p)
        flip = model.schedule.beta_bar(k_next) if k_next else 0.0
        expected = flip + (1.0 - 2.0 * flip) * p
        xk = np.zeros(self.SHAPE, dtype=np.uint8)
        out = model.denoise_step_batch(
            xk, 16, [None] * self.SHAPE[0], np.random.default_rng(k_next),
            k_next=k_next,
        )
        n = out.size
        bound = 5.0 * np.sqrt(expected * (1.0 - expected) / n) + 1e-6
        assert abs(out.mean() - expected) < bound, (p, flip, out.mean())

    @pytest.mark.parametrize("p", [0.2, 0.9])
    def test_deterministic_step_renoises_the_mode(self, p):
        model = _marginal_model(p)
        xk = np.zeros(self.SHAPE, dtype=np.uint8)
        rng = np.random.default_rng(1)
        final = model.denoise_step_batch(
            xk, 16, [None] * 4, rng, deterministic=True, k_next=0
        )
        assert np.all(final == int(p > 0.5))
        flip = model.schedule.beta_bar(8)
        out = model.denoise_step_batch(
            xk, 16, [None] * 4, rng, deterministic=True, k_next=8
        )
        expected = 1.0 - flip if p > 0.5 else flip
        bound = 5.0 * np.sqrt(flip * (1.0 - flip) / out.size)
        assert abs(out.mean() - expected) < bound


    @pytest.mark.parametrize("k", [2, 16])
    def test_sharpen_is_the_power_identity(self, k):
        # z *= g equals p^g / (p^g + (1 - p)^g) on probabilities.
        p = 0.3
        model = _marginal_model(p)
        model.sharpen = 2.0
        level = model.schedule.beta_bar(k)
        gamma = 1.0 + model.sharpen * (1.0 - level / 0.5)
        expected = p**gamma / (p**gamma + (1.0 - p) ** gamma)
        out = model.denoise_step_batch(
            np.zeros(self.SHAPE, dtype=np.uint8), k, [None] * 4,
            np.random.default_rng(k), k_next=0,
        )
        bound = 5.0 * np.sqrt(expected * (1.0 - expected) / out.size)
        assert abs(out.mean() - expected) < bound


class TestMaskedDraw:
    """A masked step draws kept cells from the forward process to
    ``k_next`` with the same one uniform per cell as the painted ones."""

    SHAPE = (4, 128, 128)
    P = 0.3

    def _step(self, k_next, deterministic=False):
        model = _marginal_model(self.P)
        rng = np.random.default_rng(k_next)
        known = (rng.random(self.SHAPE) < 0.4).astype(np.uint8)
        keep = np.zeros(self.SHAPE, dtype=bool)
        keep[:, :, :80] = True
        xk = (rng.random(self.SHAPE) < 0.5).astype(np.uint8)
        conditions = [None] * self.SHAPE[0]
        out, _ = model._reverse_step(
            xk, 16, k_next, conditions, rng,
            deterministic=deterministic, keep=keep, known=known,
        )
        return model, out, keep, known

    @staticmethod
    def _assert_frequency(values, expected):
        bound = 5.0 * np.sqrt(expected * (1.0 - expected) / values.size)
        assert abs(values.mean() - expected) < bound, (values.mean(), expected)

    @pytest.mark.parametrize("k_next", [3, 15])
    def test_kept_cells_flip_at_beta_bar(self, k_next):
        model, out, keep, known = self._step(k_next)
        flip = model.schedule.beta_bar(k_next)
        self._assert_frequency((out != known)[keep], flip)
        self._assert_frequency(out[~keep], flip + (1.0 - 2.0 * flip) * self.P)

    def test_final_step_keeps_known(self):
        _, out, keep, known = self._step(0, deterministic=True)
        assert np.array_equal(out[keep], known[keep])
        assert not out[~keep].any()  # the mode of p = 0.3


class TestExpFormCalibration:
    """The step's density solver works on ``e = exp(-clip(gamma z))``:
    its maps are ``sigmoid(clip(gamma z) + d)`` up to float32 rounding,
    from a cold or a warm start."""

    TARGETS = np.array([0.15, 0.4, 0.7])

    @staticmethod
    def _logits(seed):
        rng = np.random.default_rng(seed)
        p = np.clip(rng.random((3, 48, 40)) ** 2, 1e-9, 1.0 - 1e-9)
        return np.log(p / (1.0 - p)).astype(np.float32)

    def _assert_on_target(self, p):
        means = p.mean(axis=(1, 2), dtype=np.float64)
        assert np.abs(means - self.TARGETS).max() < 1e-4

    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_agrees_with_sigmoid(self, gamma):
        z = self._logits(0)
        p, offsets = _density_offsets(
            _exp_neg_logits(z.copy(), gamma), self.TARGETS
        )
        assert p.dtype == np.float32 and p.shape == z.shape
        shifted = np.clip(gamma * z.astype(np.float64), -LOGIT_CLIP, LOGIT_CLIP)
        shifted += offsets[:, None, None]
        expected = 1.0 / (1.0 + np.exp(-shifted))
        assert np.abs(p - expected).max() < 1e-6
        self._assert_on_target(p)

    def test_warm_and_cold_starts_reach_target(self):
        e = _exp_neg_logits(self._logits(1), 2.0)
        p, cold = _density_offsets(e, self.TARGETS)
        self._assert_on_target(p)
        for start in (cold + 0.5, cold - 2.0, np.array([100.0, -100.0, 0.0])):
            p, warm = _density_offsets(e, self.TARGETS, start)
            self._assert_on_target(p)
            assert np.all(np.abs(warm) <= 30.0)
        # A start within the tolerance of the root settles in the first
        # round and is kept as it is.
        _, warm = _density_offsets(e, self.TARGETS, cold + 1e-6)
        assert np.array_equal(warm, cold + 1e-6)

    @pytest.mark.parametrize(
        "logit,target,edge", [(-25.0, 0.9999, 30.0), (25.0, 1e-5, -30.0)]
    )
    @pytest.mark.parametrize("start", [None, 0.5])
    def test_unreachable_target_ends_at_bracket_edge(
        self, logit, target, edge, start
    ):
        e = np.exp(np.full((1, 4, 4), -logit, dtype=np.float32))
        start = None if start is None else np.array([start])
        p, offsets = _density_offsets(e, np.array([target]), start)
        assert offsets[0] == pytest.approx(edge, abs=1e-6)
        assert np.allclose(p, 1.0 / (1.0 + np.exp(-(logit + edge))))


class TestBaseLogits:
    def test_marginal_denoiser_default(self):
        denoiser = MarginalDenoiser(n_classes=3)
        topologies = np.zeros((3, 10, 10), dtype=np.uint8)
        topologies[1] = 1
        topologies[2].flat[:30] = 1
        denoiser.fit(topologies, np.array([0, 1, 2]), None, None)
        z = denoiser.predict_logits_many(
            np.zeros((3, 8, 8), dtype=np.uint8), 0.3, [0, 1, 2]
        )
        assert z.dtype == np.float32 and z.shape == (3, 8, 8)
        assert np.allclose(z[0], -LOGIT_CLIP)
        assert np.allclose(z[1], LOGIT_CLIP)
        assert np.allclose(z[2], np.log(0.3 / 0.7), atol=1e-6)

    def test_guided_step_on_default_logits(self):
        # Sharpening scales the constant logit and calibration shifts it
        # onto the fill target (0.5 for a denoiser that records none).
        model = _marginal_model(0.3)
        model.density_guidance = True
        model.sharpen = 2.0
        target = model.denoiser.target_fill(None)
        out = model.denoise_step_batch(
            np.zeros((2, 128, 128), dtype=np.uint8), 4, [None] * 2,
            np.random.default_rng(0), k_next=0,
        )
        bound = 5.0 * np.sqrt(target * (1.0 - target) / out.size)
        assert abs(out.mean() - target) < bound


def _probability_polish(model, x, conditions):
    """``polish_batch``'s sweeps thresholded on probabilities."""
    level = model.schedule.beta_bar(1)
    targets = np.array([model.denoiser.target_fill(c) for c in conditions])
    x = x.copy()
    for _ in range(model.polish_sweeps):
        p = model.denoiser.predict_x0_many(x, level, conditions)
        if model.density_guidance:
            thresholds = np.clip(
                _row_quantiles(p, 1.0 - targets), 1e-9, 1.0 - 1e-9
            )
        else:
            thresholds = np.full(len(x), 0.5)
        nxt = (p > thresholds[:, None, None]).astype(np.uint8)
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x


class TestPolishOnLogits:
    CONDITIONS = [0, 1, 0, 1]

    @pytest.fixture(scope="class")
    def stacks(self, small_model):
        rng = np.random.default_rng(4)
        noise = (rng.random((4, 64, 64)) < 0.4).astype(np.uint8)
        sampled = small_model.sample_batch(
            self.CONDITIONS, np.random.default_rng(5), sampler_steps=8
        )
        return [noise, sampled]

    @pytest.mark.parametrize("guided", [True, False])
    def test_matches_probability_thresholds(self, small_model, stacks, guided):
        model = ConditionalDiffusionModel(
            denoiser=small_model.denoiser,
            schedule=small_model.schedule,
            window=64,
            density_guidance=guided,
        )
        for stack in stacks:
            expected = model._resolve_corner_touches(
                _probability_polish(model, stack, self.CONDITIONS),
                self.CONDITIONS,
            )
            got = model.polish_batch(stack, self.CONDITIONS)
            assert np.array_equal(got, expected)

    def test_corner_cells_cleared_by_logit_order(self, small_model, stacks):
        level = small_model.schedule.beta_bar(1)
        noise = stacks[0]
        p = small_model.denoiser.predict_x0_many(noise, level, self.CONDITIONS)
        z = small_model.denoiser.predict_logits_many(
            noise, level, self.CONDITIONS
        )
        for i in range(len(noise)):
            touches = diagonal_touch_pairs(noise[i])
            assert touches
            expected = noise[i].copy()
            for row, col in touches:
                window = [(row, col), (row + 1, col + 1),
                          (row, col + 1), (row + 1, col)]
                cells = [rc for rc in window if expected[rc]]
                if cells:
                    expected[min(cells, key=lambda rc: p[i][rc])] = 0
            got = noise[i].copy()
            _clear_weakest_touch_cells(got, z[i], touches)
            assert np.array_equal(got, expected)


class TestReferencePathStatistics:
    """The compiled float32 kernel against the float64 reference path (the
    same model on a :class:`ReferenceDenoiser` whose count tables replay
    the fit): random streams differ, so statistics are pinned, not bytes,
    the way the bucketed sampler is pinned to the full chain."""

    N = 6

    @pytest.fixture(scope="class")
    def outputs(self, small_model, reference_model):
        seeds = {
            cls: small_model.sample(
                self.N, cls, np.random.default_rng(300 + cls)
            )
            for cls in range(len(STYLES))
        }
        keep = np.ones((self.N, 64, 64), dtype=np.uint8)
        keep[:, 16:48, 16:48] = 0
        out = {}
        for path, model in (("compiled", small_model),
                            ("reference", reference_model)):
            per_op = {"sample": {}, "modify": {}, "extend": {}}
            for cls, style in enumerate(STYLES):
                per_op["sample"][style] = model.sample_batch(
                    [cls] * self.N, np.random.default_rng(100)
                )
                per_op["modify"][style] = modify_batch(
                    model, seeds[cls], keep, [cls] * self.N,
                    np.random.default_rng(200),
                )
                per_op["extend"][style] = np.stack([
                    extend(
                        model, (128, 128), cls,
                        np.random.default_rng(400 + j), method="out",
                        seed_topology=seeds[cls][j],
                    ).topology
                    for j in range(2)
                ])
            out[path] = per_op
        return out

    @pytest.mark.parametrize("op", ["sample", "modify", "extend"])
    def test_density_error(self, small_model, outputs, op):
        for path in ("compiled", "reference"):
            for cls, style in enumerate(STYLES):
                target = small_model.denoiser.target_fill(cls)
                error = abs(outputs[path][op][style].mean() - target)
                assert error < 0.03, (path, op, style, error)

    @pytest.mark.parametrize("op", ["sample", "modify", "extend"])
    def test_legality(self, outputs, op):
        for style in STYLES:
            compiled, reference = (
                legalize_many(list(outputs[path][op][style]), style).legality
                for path in ("compiled", "reference")
            )
            assert compiled >= reference - 0.25, (op, style, reference)

    @pytest.mark.parametrize("op", ["sample", "modify"])
    def test_diversity(self, outputs, op):
        for style in STYLES:
            compiled = diversity(list(outputs["compiled"][op][style]))
            reference = diversity(list(outputs["reference"][op][style]))
            assert abs(compiled - reference) <= 0.75, (op, style)

    def test_no_corner_touches(self, outputs):
        for per_op in outputs.values():
            for op in ("sample", "extend"):
                for stack in per_op[op].values():
                    for x in stack:
                        assert diagonal_touch_pairs(x) == []
