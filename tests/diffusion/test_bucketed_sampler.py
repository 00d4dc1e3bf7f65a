"""Step-schedule abstraction and bucket-collapsed sampler equivalence.

``reverse_steps`` / ``reverse_step_plan`` drive the strided reverse chain;
the property tests pin the bucket-collapsed sampler's legality rate,
density error and diversity to the full chain's on the seed dataset.
"""

import time

import numpy as np
import pytest

from repro.data import STYLES
from repro.diffusion import ConditionalDiffusionModel, DiffusionSchedule
from repro.diffusion.model import validate_sampler_steps
from repro.diffusion.schedule import SIGNAL_FLOOR
from repro.geometry import diagonal_touch_pairs
from repro.metrics import diversity, legalize_many


class TestReverseSteps:
    def test_full_visits_every_step(self):
        schedule = DiffusionSchedule.linear(32, 0.003, 0.08)
        assert schedule.reverse_steps("full") == list(range(32, 0, -1))
        assert schedule.reverse_steps(None) == list(range(32, 0, -1))

    def test_bucketed_one_step_per_bucket(self):
        schedule = DiffusionSchedule.linear(128, 0.003, 0.08)
        n_buckets = 16
        ks = schedule.reverse_steps("bucketed", n_buckets=n_buckets)
        assert ks == sorted(set(ks), reverse=True)
        assert ks[-1] == 1
        assert len(ks) <= n_buckets
        # One representative per *occupied* bucket, each bucket distinct.
        buckets = [
            min(n_buckets - 1, int(schedule.beta_bar(k) / 0.5 * n_buckets))
            for k in ks
        ]
        assert len(set(buckets)) == len(buckets)

    def test_bucketed_collapses_the_chain(self):
        schedule = DiffusionSchedule.linear(128, 0.003, 0.08)
        assert len(schedule.reverse_steps("bucketed", n_buckets=16)) <= 17
        assert len(schedule.reverse_steps("full")) == schedule.start_step

    def test_bucketed_without_buckets_falls_back_to_full(self):
        schedule = DiffusionSchedule.linear(16)
        assert schedule.reverse_steps(
            "bucketed", n_buckets=None
        ) == schedule.reverse_steps("full")

    def test_int_spacing_includes_endpoints(self):
        schedule = DiffusionSchedule.linear(64, 0.003, 0.08)
        ks = schedule.reverse_steps(8)
        assert ks[0] == schedule.start_step and ks[-1] == 1
        assert len(ks) == 8
        assert ks == sorted(ks, reverse=True)

    def test_invalid_specs_rejected(self):
        schedule = DiffusionSchedule.linear(16)
        with pytest.raises(ValueError):
            schedule.reverse_steps(0)
        with pytest.raises(ValueError):
            schedule.reverse_steps("nonsense")
        with pytest.raises(ValueError):
            # a bool is not a step count (True would collapse the chain)
            schedule.reverse_steps(True)

    def test_oversized_int_clamps_to_full(self):
        schedule = DiffusionSchedule.linear(16)
        assert schedule.reverse_steps(99) == schedule.reverse_steps("full")

    def test_validate_sampler_steps(self):
        assert validate_sampler_steps("full") == "full"
        assert validate_sampler_steps("bucketed") == "bucketed"
        assert validate_sampler_steps(12) == 12
        assert validate_sampler_steps(None) is None
        for bad in ("nope", 0, -3, True, 1.5):
            with pytest.raises(ValueError):
                validate_sampler_steps(bad)


class TestSignalStart:
    """Chains start at the first step whose re-noise still carries signal."""

    def test_default_schedule_starts_at_82(self):
        schedule = DiffusionSchedule.linear(128, 0.003, 0.08)
        assert schedule.start_step == 82
        assert 1 - 2 * schedule.beta_bar(82) < SIGNAL_FLOOR
        assert 1 - 2 * schedule.beta_bar(81) >= SIGNAL_FLOOR
        assert schedule.reverse_steps("full") == list(range(82, 0, -1))

    def test_schedule_above_the_floor_keeps_every_step(self):
        schedule = DiffusionSchedule.linear(32, 0.003, 0.08)
        assert 1 - 2 * schedule.beta_bar(32) >= SIGNAL_FLOOR
        assert schedule.start_step == 32
        assert schedule.reverse_steps("full") == list(range(32, 0, -1))

    @pytest.mark.parametrize("n", [2, 8, 32, 81, 82, 128])
    def test_int_specs_span_start_to_one(self, n):
        schedule = DiffusionSchedule.linear(128, 0.003, 0.08)
        ks = schedule.reverse_steps(n)
        assert ks[0] == schedule.start_step and ks[-1] == 1
        assert len(ks) == min(n, schedule.start_step)

    def test_default_bucketed_plan_is_unchanged(self):
        schedule = DiffusionSchedule.linear(128, 0.003, 0.08)
        assert schedule.reverse_steps("bucketed", n_buckets=16) == [
            63, 54, 48, 44, 40, 36, 33, 30, 27, 24, 21, 18, 15, 11, 7, 1,
        ]

    def test_bucket_representatives_above_start_are_dropped(self):
        # 1000 buckets split the near-coin levels above k=82 (the top
        # representative would be k=101); only those at or below stay.
        schedule = DiffusionSchedule.linear(128, 0.003, 0.08)
        ks = schedule.reverse_steps("bucketed", n_buckets=1000)
        assert ks[:4] == [82, 81, 80, 79]
        assert ks[-1] == 1


class TestStepPlan:
    def test_plan_chains_to_zero(self, small_model):
        plan = small_model.reverse_step_plan("full")
        ks = [k for k, _ in plan]
        assert ks == list(range(small_model.schedule.start_step, 0, -1))
        for (k, k_next), (nk, _) in zip(plan, plan[1:]):
            assert k_next == nk
        assert plan[-1] == (1, 0)

    def test_denoise_evals(self, small_model):
        full = small_model.denoise_evals("full")
        bucketed = small_model.denoise_evals("bucketed")
        assert full == small_model.schedule.start_step
        assert bucketed <= small_model.denoiser.n_buckets + 1
        assert bucketed < full

    def test_default_model_costs_one_eval_per_bucket(self):
        """The default K=128 model's bucketed chain costs ``n_buckets``
        evaluations against 82 for the full chain."""
        model = ConditionalDiffusionModel()
        assert model.denoise_evals("full") == 82
        assert model.denoiser.n_buckets == 16
        assert model.denoise_evals("bucketed") == 16

    def test_constructor_default_is_used(self):
        model = ConditionalDiffusionModel(
            schedule=DiffusionSchedule.linear(32, 0.003, 0.08),
            window=16,
            n_classes=0,
            sampler_steps="bucketed",
        )
        assert len(model.reverse_step_plan()) < 32
        assert len(model.reverse_step_plan("full")) == 32

    def test_bad_constructor_spec_rejected(self):
        with pytest.raises(ValueError):
            ConditionalDiffusionModel(sampler_steps="warp")

    def test_denoise_step_validates_k_next(self, small_model):
        xk = np.zeros((8, 8), dtype=np.uint8)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            small_model.denoise_step(xk, 4, 0, rng, k_next=4)
        with pytest.raises(ValueError):
            small_model.denoise_step(xk, 4, 0, rng, k_next=-1)


class TestBucketedEquivalence:
    """The acceptance property: the collapsed chain stays statistically
    equivalent to the full chain on the seed dataset."""

    N = 8

    @pytest.fixture(scope="class")
    def samples(self, small_model):
        out = {}
        for mode in ("full", "bucketed"):
            per_style = {}
            for cls, style in enumerate(STYLES):
                per_style[style] = small_model.sample(
                    self.N, cls, np.random.default_rng(100),
                    sampler_steps=mode,
                )
            out[mode] = per_style
        return out

    def test_shape_dtype_and_corner_freedom(self, samples):
        for per_style in samples.values():
            for stack in per_style.values():
                assert stack.shape == (self.N, 64, 64)
                assert stack.dtype == np.uint8
                for x in stack:
                    assert diagonal_touch_pairs(x) == []

    def test_density_error_within_tolerance(self, small_model, samples):
        for mode in ("full", "bucketed"):
            for cls, style in enumerate(STYLES):
                target = small_model.denoiser.target_fill(cls)
                error = abs(samples[mode][style].mean() - target)
                assert error < 0.02, (mode, style, error)

    def test_legality_within_tolerance(self, samples):
        for style in STYLES:
            full = legalize_many(list(samples["full"][style]), style).legality
            bucketed = legalize_many(
                list(samples["bucketed"][style]), style
            ).legality
            assert bucketed >= full - 0.25, (style, full, bucketed)

    def test_diversity_within_tolerance(self, samples):
        for style in STYLES:
            full = diversity(list(samples["full"][style]))
            bucketed = diversity(list(samples["bucketed"][style]))
            assert abs(full - bucketed) <= 0.75, (style, full, bucketed)

    def test_batched_trajectory_supports_bucketed(self, small_model):
        conditions = [0, 1, 0, 1]
        stack = small_model.sample_batch(
            conditions, np.random.default_rng(5), sampler_steps="bucketed"
        )
        assert stack.shape == (4, 64, 64)
        for cls in (0, 1):
            member = stack[[i for i, c in enumerate(conditions) if c == cls]]
            target = small_model.denoiser.target_fill(cls)
            assert abs(member.mean() - target) < 0.05

    def test_bucketed_is_cheaper(self, small_model):
        assert (
            small_model.denoise_evals("bucketed")
            * 3 <= small_model.denoise_evals("full")
        )


class TestSamplingSpeed:
    """The sampling engine's speed over the pre-engine path: compiled
    float32 tables walking the bucketed chain against the float64
    reference denoiser walking the full chain (58 against 16 evaluations
    at K=64), one 4-sample trajectory each, median against median over
    alternated pairs."""

    PAIRS = 7
    # Half the 4.59x first recorded for this workload.
    FLOOR = 2.3

    def test_compiled_bucketed_beats_reference_full(
        self, small_model, reference_model
    ):
        arms = {
            "reference": (reference_model, "full"),
            "compiled": (small_model, "bucketed"),
        }
        walls = {arm: [] for arm in arms}
        small_model.sample(1, 0, np.random.default_rng(0))  # warm-up
        for pair in range(self.PAIRS):
            for arm in list(arms)[:: 1 if pair % 2 == 0 else -1]:
                model, steps = arms[arm]
                started = time.perf_counter()
                model.sample(
                    4, 0, np.random.default_rng(1), sampler_steps=steps
                )
                walls[arm].append(time.perf_counter() - started)
        speedup = np.median(walls["reference"]) / np.median(walls["compiled"])
        assert speedup >= self.FLOOR, (
            f"compiled bucketed sampling is {speedup:.2f}x the reference "
            f"full chain (median of {self.PAIRS} alternated pairs), below "
            f"the {self.FLOOR}x floor; walls {walls}"
        )
