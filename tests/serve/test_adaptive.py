"""The online half of self-tuning: the ``adaptive`` policy on the live
engine (fair-share selection steered by an ``AdaptiveController``), the
service's policy names, and the config round-trip."""

import threading
import time

import numpy as np
import pytest

from repro.api.config import (
    SERVE_POLICIES,
    ConfigError,
    PipelineConfig,
    TuneConfig,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.serve import PatternService, ServeEngine
from repro.tune import AdaptiveController


class StepRecordingModel:
    """Slow sampling back-end that records each batch's step schedule."""

    def __init__(self, delay=0.0):
        self.window = 16
        self.fitted = True
        self.delay = delay
        self.calls = []
        self._lock = threading.Lock()

    def sample_batch(self, conditions, rng, shape=None, sampler_steps=None):
        shape = shape or (self.window, self.window)
        with self._lock:
            self.calls.append(sampler_steps)
        if self.delay:
            time.sleep(self.delay)
        return np.zeros((len(conditions), *shape), dtype=np.uint8)


def pressure_config(**overrides):
    """Hair-trigger controller so tests pressure it with tiny queues."""
    knobs = dict(
        slo_p95=0.5, degrade_ladder=(32, "bucketed"), degrade_after=1,
        restore_after=2, queue_high=3, queue_low=1, tick_interval=0.0,
    )
    knobs.update(overrides)
    return TuneConfig(**knobs)


class TestPolicyRegistry:
    """The policy names (``SERVE_POLICIES``) a service accepts."""

    def test_unknown_name_raises_typed_error_listing_known(self, serve_config):
        with pytest.raises(ConfigError) as excinfo:
            PatternService(
                serve_config(policy="fifo"),
                model=StepRecordingModel(),
            )
        assert isinstance(excinfo.value, ValueError)
        for name in SERVE_POLICIES:
            assert name in str(excinfo.value)


class TestServeConfigRoundTrip:
    def test_adaptive_round_trips_through_pipeline_json(self):
        cfg = PipelineConfig()
        cfg = cfg.replace(
            serve=cfg.serve.replace(policy="adaptive"),
            tune=cfg.tune.replace(slo_p95=1.5, degrade_after=3),
        )
        loaded = PipelineConfig.loads(cfg.dumps())
        assert loaded == cfg
        assert loaded.serve.policy == "adaptive"
        assert loaded.tune.slo_p95 == 1.5
        assert loaded.tune.degrade_after == 3

    def test_config_policy_feeds_the_engine(self, serve_config):
        cfg = PipelineConfig()
        cfg = cfg.replace(
            serve=cfg.serve.replace(policy="adaptive"),
            tune=cfg.tune.replace(slo_p95=1.5),
        )
        service = PatternService(
            cfg, model=StepRecordingModel(), metrics=NULL_METRICS
        )
        with service:
            engine = service.engine
            assert engine.policy == "adaptive"
            assert isinstance(engine.controller, AdaptiveController)
            # Configured, not just named: the controller reads config.tune.
            assert engine.controller.config == cfg.tune
            assert service.stats().engine["policy"] == "adaptive"
        plain = PatternService(
            serve_config(),
            model=StepRecordingModel(),
            metrics=NULL_METRICS,
        )
        with plain:
            assert plain.engine.controller is None
            assert plain.engine.policy == "fair_share"


class TestAdaptiveEngine:
    def test_degrades_under_pressure_and_restores_when_calm(self):
        controller = AdaptiveController(pressure_config())
        metrics = MetricsRegistry()
        model = StepRecordingModel(delay=0.05)
        engine = ServeEngine(
            model, controller=controller, gather_window=0.0, metrics=metrics
        )
        jobs = [engine.submit(1, 0, seed=i) for i in range(12)]
        with engine:
            for job in jobs:
                job.result(timeout=60)
            assert controller.degrades >= 1
            # Idle ticks happen in the dispatcher's wait loop: give the
            # calm streak time to walk the level back to 0.
            deadline = time.time() + 10
            while controller.level > 0 and time.time() < deadline:
                time.sleep(0.05)
            assert controller.level == 0
            assert controller.restores >= 1
            # A post-spike job runs at full requested quality again.
            tail = engine.submit(1, 0, seed=99)
            tail.result(timeout=60)
            assert tail.degrade_level == 0
        # The spike's batches ran degraded schedules.
        assert any(steps in (32, "bucketed") for steps in model.calls)
        transitions = metrics.get("repro_adaptive_degrade_total")
        assert transitions.value(direction="degrade") >= 1
        assert transitions.value(direction="restore") >= 1
        assert metrics.get("repro_adaptive_level").value() == 0.0

    def test_degraded_jobs_carry_their_original_ask(self):
        model = StepRecordingModel(delay=0.05)
        engine = ServeEngine(
            model,
            controller=AdaptiveController(pressure_config()),
            gather_window=0.0,
        )
        jobs = [engine.submit(1, 0, seed=i) for i in range(12)]
        with engine:
            for job in jobs:
                job.result(timeout=60)
        degraded = [j for j in jobs if j.degrade_level > 0]
        assert degraded
        for job in degraded:
            assert job.requested_sampler_steps is None  # asked for default
            assert job.sampler_steps in (32, "bucketed")

    def test_never_degrades_below_the_floor_or_an_explicit_ask(self):
        model = StepRecordingModel(delay=0.05)
        engine = ServeEngine(
            model,
            controller=AdaptiveController(pressure_config(floor_steps=32)),
            gather_window=0.0,
        )
        jobs = [
            engine.submit(1, 0, seed=i, sampler_steps=8) for i in range(12)
        ]
        with engine:
            for job in jobs:
                job.result(timeout=60)
        # Floor 32 stops the ladder's "bucketed" rung; the explicit ask
        # of 8 is already below the floor and must pass through untouched.
        assert set(model.calls) == {8}
        assert all(job.degrade_level == 0 for job in jobs)

    def test_widens_gather_window_while_degraded(self):
        controller = AdaptiveController(
            pressure_config(restore_after=10 ** 6)
        )
        engine = ServeEngine(
            StepRecordingModel(delay=0.05),
            controller=controller,
            gather_window=0.01,
        )
        jobs = [engine.submit(1, 0, seed=i) for i in range(12)]
        with engine:
            for job in jobs:
                job.result(timeout=60)
            assert controller.level > 0
            assert engine.gather_window > 0.01
            # Capped: widening must never eat the whole SLO budget.
            assert engine.gather_window <= max(0.01, 0.25 * 0.5)

    def test_controller_reads_queue_wait_with_metrics_disabled(self):
        """The controller's queue-wait signal is the engine's own: with
        obs off (``NULL_METRICS``) a queue-wait spike still reaches it as
        a non-zero windowed p95, as it does in the tuner's simulation."""
        seen = []

        class Recording(AdaptiveController):
            def observe(self, snapshot):
                seen.append(snapshot)
                return super().observe(snapshot)

        engine = ServeEngine(
            StepRecordingModel(delay=0.02),
            controller=Recording(pressure_config(restore_after=10 ** 6)),
            gather_window=0.0,
            max_batch=1,
            metrics=NULL_METRICS,
        )
        jobs = [engine.submit(1, 0, seed=i) for i in range(8)]
        with engine:
            for job in jobs:
                job.result(timeout=60)
        assert max(s.queue_wait_p95 for s in seen) > 0.0

    def test_load_snapshot_is_publicly_scrapeable(self):
        engine = ServeEngine(StepRecordingModel(), gather_window=0.0)
        engine.submit(2, 0, seed=1)
        snapshot = engine.load_snapshot()
        assert snapshot.queue_depth == 1
        assert snapshot.queued_samples == 2
        assert snapshot.oldest_wait >= 0.0
        with engine:
            pass


class TestAdaptiveSpike:
    """One identical burst of full-quality jobs into a fair-share engine
    and into an adaptive engine whose p95 SLO is half the fair-share p95,
    over trials that alternate which policy runs first.  In every trial
    the adaptive policy degrades during the burst, restores once it
    drains and serves the next job at full quality, and fair-share never
    degrades; one burst's p95 is its slowest job or two, so the p95 gate
    reads the median trial."""

    TRIALS = 5
    JOBS = 10

    def _burst(self, model, tune=None):
        engine = ServeEngine(
            model,
            controller=AdaptiveController(tune) if tune is not None else None,
            gather_window=0.01,
            max_batch=8,
        )
        with engine:
            engine.submit(1, 0, seed=10_000).result(timeout=60)  # warm-up
            submitted, jobs = [], []
            for i in range(self.JOBS):
                submitted.append(time.perf_counter())
                jobs.append(engine.submit(1, i % 2, seed=i))
            latencies = []
            for at, job in zip(submitted, jobs):
                job.result(timeout=60)
                latencies.append(time.perf_counter() - at)
            run = {
                "p95": float(np.percentile(latencies, 95)),
                "degraded": sum(job.degrade_level > 0 for job in jobs),
            }
            if tune is not None:
                controller = engine.controller
                deadline = time.time() + 30
                while controller.level > 0 and time.time() < deadline:
                    time.sleep(0.02)
                run["restored"] = controller.level == 0
                tail = engine.submit(1, 0, seed=9_999)
                tail.result(timeout=60)
                run["tail_level"] = tail.degrade_level
        return run

    def test_degrades_in_the_burst_restores_and_holds_p95(self, small_model):
        trials = []
        for trial in range(self.TRIALS):
            adaptive_first = trial % 2 == 1
            if not adaptive_first:
                static = self._burst(small_model)
            # The SLO comes from the latest fair-share p95 measured before
            # this adaptive run.
            tune = TuneConfig(
                slo_p95=max(0.2, static["p95"] * 0.5),
                degrade_ladder=("bucketed",),
                degrade_after=1,
                restore_after=2,
                queue_high=2,
                queue_low=1,
                tick_interval=0.005,
            )
            adaptive = self._burst(small_model, tune)
            if adaptive_first:
                static = self._burst(small_model)
            trials.append({"fair_share": static, "adaptive": adaptive})
        for trial in trials:
            assert trial["adaptive"]["degraded"] > 0, trial
            assert trial["adaptive"]["restored"], trial
            assert trial["adaptive"]["tail_level"] == 0, trial
            assert trial["fair_share"]["degraded"] == 0, trial
        # >= 1.0 means adaptive's p95 was no worse than fair-share's.
        ratios = sorted(
            t["fair_share"]["p95"] / t["adaptive"]["p95"] for t in trials
        )
        assert ratios[self.TRIALS // 2] >= 0.9, (ratios, trials)


class TestDegradedEngineEvent:
    """A degraded job surfaces a ``degraded`` engine event + trace span."""

    class _FakeEngineJob:
        def __init__(self):
            self.submitted_at = 1.0
            self.selected_at = 2.0
            self.exec_started_at = 2.5
            self.exec_ended_at = 3.0
            self.batch_samples = 4
            self.queue_wait = 1.0
            self.sampler_steps = "bucketed"
            self.requested_sampler_steps = "full"
            self.degrade_level = 2

        def result(self):
            return np.zeros((1, 16, 16), dtype=np.uint8)

    class _FakeEngine:
        def __init__(self):
            self.model = StepRecordingModel()

        def submit(self, count, condition, **kwargs):
            return TestDegradedEngineEvent._FakeEngineJob()

    def test_degraded_hop_is_recorded_with_the_original_ask(self):
        from repro.obs.trace import job_spans
        from repro.serve import BatchedSamplingModel
        from repro.serve.jobs import RUNNING, Job
        from repro.serve.stats import RequestStats

        lifecycle = Job("job-degraded")
        lifecycle.transition(RUNNING, stage="chat")
        client = BatchedSamplingModel(self._FakeEngine(), lifecycle)
        client.sample(1, 0, np.random.default_rng(0))
        hops = {e.kind: e.detail for e in lifecycle.engine_events}
        assert "degraded" in hops
        assert hops["degraded"] == {
            "level": 2,
            "sampler_steps": "bucketed",
            "requested": "full",
        }
        spans = {span["name"]: span for span in job_spans(lifecycle)}
        assert spans["degraded"]["attrs"] == hops["degraded"]
        call = spans["sample_call"]
        assert spans["degraded"]["parent_id"] == call["span_id"]
        # The request's stats read the hop back; these are the values the
        # client's own counters gave before they were derived.
        stats = RequestStats.from_job(lifecycle, request_id=1)
        assert stats.degraded_jobs == 1
        assert (stats.samples, stats.sample_jobs) == (1, 1)
        assert stats.batch_sizes == [4]
        assert stats.queue_wait_seconds == 1.0
        # Undegraded jobs don't emit the hop.
        plain = self._FakeEngineJob()
        plain.degrade_level = 0

        class PlainEngine(self._FakeEngine):
            def submit(self, count, condition, **kwargs):
                return plain

        quiet = Job("job-quiet")
        client2 = BatchedSamplingModel(PlainEngine(), quiet)
        client2.sample(1, 0, np.random.default_rng(0))
        assert "degraded" not in [e.kind for e in quiet.engine_events]
        assert RequestStats.from_job(quiet, request_id=2).degraded_jobs == 0
