"""Micro-batching through ``ServeEngine(model, ...)`` on a real model,
and the :class:`BatchedSamplingModel` client that rides it, writing its
engine hops into a lifecycle job that the request's stats are read from."""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import BatchedSamplingModel, QueueFullError, ServeEngine
from repro.serve.engine import DeadlineExpiredError
from repro.serve.jobs import Job
from repro.serve.stats import RequestStats


def _sampling_fields(stats):
    return {
        "samples": stats.samples,
        "sample_jobs": stats.sample_jobs,
        "batch_sizes": stats.batch_sizes,
        "queue_wait_seconds": stats.queue_wait_seconds,
        "degraded_jobs": stats.degraded_jobs,
    }


class TestSchedulerBatching:
    def test_pre_submitted_jobs_form_one_batch(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.05)
        jobs = [
            engine.submit(1, i % 2, seed=i) for i in range(4)
        ]  # queued before the worker starts
        with engine:
            results = [job.result(timeout=60) for job in jobs]
        for result in results:
            assert result.shape == (1, 64, 64)
            assert result.dtype == np.uint8
        stats = engine.stats().scheduler
        assert stats.batches == 1
        assert stats.jobs == 4
        assert stats.max_batch_size == 4
        assert all(job.batch_samples == 4 for job in jobs)
        assert all(job.queue_wait >= 0.0 for job in jobs)

    def test_eight_concurrent_jobs_share_bucketed_trajectories(
        self, small_model, monkeypatch
    ):
        """Eight jobs submitted to a running engine ride fewer trajectories
        than jobs, and each trajectory costs one evaluation per bucket."""
        evals = []
        model_class = type(small_model)
        reverse_step = model_class._reverse_step

        def counting_reverse_step(self, *args, **kwargs):
            evals.append(1)
            return reverse_step(self, *args, **kwargs)

        monkeypatch.setattr(
            model_class, "_reverse_step", counting_reverse_step
        )
        engine = ServeEngine(
            small_model, sampler_steps="bucketed", gather_window=0.05
        )
        with engine:
            jobs = [engine.submit(1, i % 2, seed=i) for i in range(8)]
            results = [job.result(timeout=60) for job in jobs]
        assert sum(len(r) for r in results) == 8
        stats = engine.stats().scheduler
        assert stats.jobs == 8
        assert stats.batches < 8
        assert small_model.denoise_evals("bucketed") == 16
        assert len(evals) == stats.batches * 16

    def test_multi_count_jobs_split_correctly(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.05)
        a = engine.submit(2, 0, seed=1)
        b = engine.submit(3, 1, seed=2)
        with engine:
            ra = a.result(timeout=60)
            rb = b.result(timeout=60)
        assert ra.shape == (2, 64, 64)
        assert rb.shape == (3, 64, 64)
        assert engine.stats().scheduler.samples == 5

    def test_mixed_shapes_grouped_by_shape(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.05)
        a = engine.submit(1, 0, shape=(64, 64), seed=1)
        b = engine.submit(1, 1, shape=(32, 32), seed=2)
        with engine:
            assert a.result(timeout=60).shape == (1, 64, 64)
            assert b.result(timeout=60).shape == (1, 32, 32)
        stats = engine.stats().scheduler
        # One gather, but two trajectories: shapes cannot share a stack.
        assert stats.batches == 2
        assert stats.max_batch_size == 1

    def test_max_batch_caps_gathering(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.05, max_batch=2)
        jobs = [engine.submit(1, 0, seed=i) for i in range(4)]
        with engine:
            for job in jobs:
                job.result(timeout=60)
        assert engine.stats().scheduler.max_batch_size <= 2

    def test_error_propagates_to_every_rider(self):
        def boom(conditions, rng, shape=None):
            raise RuntimeError("backend exploded")

        model = SimpleNamespace(window=16, fitted=True, sample_batch=boom)
        engine = ServeEngine(model, gather_window=0.05)
        jobs = [engine.submit(1, 0, seed=i) for i in range(2)]
        with engine:
            for job in jobs:
                with pytest.raises(RuntimeError, match="backend exploded"):
                    job.result(timeout=10)

    def test_rejects_bad_arguments(self, small_model):
        engine = ServeEngine(small_model)
        with pytest.raises(ValueError):
            engine.submit(0, 0)
        with pytest.raises(ValueError):
            ServeEngine(small_model, gather_window=-1)
        with pytest.raises(ValueError):
            ServeEngine(small_model, max_batch=0)


class TestSchedulerLifecycle:
    def test_submit_after_stop_fails_fast(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.01)
        with engine:
            engine.submit(1, 0, seed=1).result(timeout=60)
        assert not engine.running
        # No worker will ever drain the queue again: result() would hang.
        with pytest.raises(RuntimeError, match="stopped"):
            engine.submit(1, 0, seed=2)

    def test_restart_after_stop_accepts_jobs_again(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.01)
        with engine:
            engine.submit(1, 0, seed=1).result(timeout=60)
        with engine:  # restart clears the stopped state
            result = engine.submit(1, 0, seed=2).result(timeout=60)
        assert result.shape == (1, 64, 64)

    def test_submit_before_start_still_allowed(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.01)
        job = engine.submit(1, 0, seed=3)  # worker not up
        with engine:
            assert job.result(timeout=60).shape == (1, 64, 64)

    def test_stop_before_start_keeps_scheduler_usable(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.01)
        engine.stop()  # no-op: never started
        job = engine.submit(1, 0, seed=4)
        with engine:
            assert job.result(timeout=60).shape == (1, 64, 64)


class TestBatchedSamplingModel:
    def test_delegates_model_attributes(self, small_model):
        client = BatchedSamplingModel(
            ServeEngine(small_model), Job("job-delegate")
        )
        assert client.window == small_model.window
        assert client.n_classes == small_model.n_classes
        assert client.fitted is True
        assert client.schedule is small_model.schedule

    def test_sample_rides_scheduler_and_records_stats(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.05)
        job = Job("job-sample")
        client = BatchedSamplingModel(engine, job)
        with engine:
            samples = client.sample(2, 0, np.random.default_rng(3))
        assert samples.shape == (2, 64, 64)
        assert [e.kind for e in job.engine_events] == [
            "admission", "queue_wait", "batch_gather", "execute",
        ]
        stats = RequestStats.from_job(job, request_id=1)
        assert stats.sample_jobs == 1
        assert stats.samples == 2
        assert stats.batch_sizes == [2]
        assert engine.stats().scheduler.jobs == 1

    def test_concurrent_clients_coalesce(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.2)
        clients = [
            BatchedSamplingModel(engine, Job(f"job-{i}")) for i in range(4)
        ]
        outputs = [None] * 4

        def worker(i):
            outputs[i] = clients[i].sample(
                1, i % 2, np.random.default_rng(i)
            )

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        with engine:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert all(out.shape == (1, 64, 64) for out in outputs)
        # All four single-sample jobs rode batched trajectories.
        assert engine.stats().scheduler.max_batch_size > 1


class TestSamplerStepsForwarding:
    """The engine forwards a set step schedule to ``sample_batch``."""

    def test_backend_receives_the_schedule(self):
        calls = []

        def sample_batch(conditions, rng, shape=None, sampler_steps=None):
            calls.append({"sampler_steps": sampler_steps})
            return np.zeros((len(conditions), *shape), dtype=np.uint8)

        model = SimpleNamespace(
            window=16, fitted=True, sample_batch=sample_batch
        )
        engine = ServeEngine(
            model, sampler_steps="bucketed", gather_window=0.01
        )
        with engine:
            engine.submit(1, 0, seed=1).result(timeout=30)
        assert calls == [{"sampler_steps": "bucketed"}]


class TestSchedulerEngineKnobs:
    """Admission and executor knobs of the engine on a stub model."""

    def test_scheduler_exposes_queue_limit_backpressure(self):
        model = SimpleNamespace(
            window=16,
            fitted=True,
            sample_batch=lambda conditions, rng, shape=None: np.zeros(
                (len(conditions), *shape), dtype=np.uint8
            ),
        )
        engine = ServeEngine(model, queue_limit=1)
        engine.submit(1, 0, seed=1)
        with pytest.raises(QueueFullError):
            engine.submit(1, 0, seed=2)

    def test_scheduler_serves_mixed_shapes(self, small_model):
        engine = ServeEngine(small_model, gather_window=0.05)
        jobs = [
            engine.submit(
                1, i % 2, shape=(64, 64) if i % 2 == 0 else (32, 32), seed=i
            )
            for i in range(4)
        ]
        with engine:
            shapes = [job.result(timeout=60).shape for job in jobs]
        assert shapes == [(1, 64, 64), (1, 32, 32)] * 2
        engine_stats = engine.stats()
        assert engine_stats.policy == "fair_share"
        assert engine_stats.submitted == 4


class TestClientThreadSafety:
    """One client and one job shared across threads: the record balances.

    Operator code may drive a single :class:`BatchedSamplingModel` (and
    so one lifecycle job) from many threads; their hops interleave in the
    job's ``engine_events``, and the stats read back from them must still
    count every call exactly.
    """

    def test_hammered_shared_client_keeps_exact_totals(self):
        model = SimpleNamespace(
            window=16,
            fitted=True,
            sample_batch=lambda conditions, rng, shape=None: np.zeros(
                (len(conditions), *shape), dtype=np.uint8
            ),
        )
        engine = ServeEngine(model, gather_window=0.001)
        job = Job("job-hammer")
        client = BatchedSamplingModel(engine, job)
        threads_n, per_thread = 8, 25
        errors = []

        def worker(i):
            rng = np.random.default_rng(i)
            try:
                for k in range(per_thread):
                    out = client.sample(1 + (i + k) % 3, 0, rng)
                    assert out.shape[1:] == (16, 16)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads_n)
        ]
        with engine:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        expected_jobs = threads_n * per_thread
        expected_samples = sum(
            1 + (i + k) % 3
            for i in range(threads_n)
            for k in range(per_thread)
        )
        # Exact, not approximate: a lost hop shows up as a short count.
        stats = RequestStats.from_job(job, request_id=1)
        assert stats.sample_jobs == expected_jobs
        assert stats.samples == expected_samples
        assert len(stats.batch_sizes) == expected_jobs
        assert stats.degraded_jobs == 0
        assert stats.queue_wait_seconds >= 0.0
        kinds = [e.kind for e in job.engine_events]
        assert kinds.count("admission") == expected_jobs
        assert engine.stats().scheduler.jobs == expected_jobs
        assert engine.stats().scheduler.samples == expected_samples


class _FakeEngineJob:
    """An engine job with fixed hop stamps, done (or expired) on result."""

    def __init__(self, count, batch_samples=4, degrade_level=0, fail=False):
        self.count = count
        self.submitted_at = 1.0
        self.selected_at = 2.0
        self.exec_started_at = 2.5
        self.exec_ended_at = 3.0
        self.batch_samples = batch_samples
        self.queue_wait = 1.0
        self.sampler_steps = "bucketed"
        self.requested_sampler_steps = "full"
        self.degrade_level = degrade_level
        self.fail = fail

    def result(self):
        if self.fail:
            raise DeadlineExpiredError("job deadline expired in queue")
        return np.zeros((self.count, 16, 16), dtype=np.uint8)


class _FakeEngine:
    """Hands out prepared engine jobs in submission order."""

    def __init__(self, *jobs):
        self.model = SimpleNamespace(window=16)
        self._jobs = list(jobs)

    def submit(self, count, condition, **kwargs):
        return self._jobs.pop(0)


class TestDerivedRequestStats:
    """``RequestStats.from_job`` equals the per-client counters it replaced.

    The expected values are what ``BatchedSamplingModel``'s own counters
    (``samples``, ``sample_jobs``, ``batch_sizes``, ``queue_wait_seconds``,
    ``degraded_jobs``) read for the same calls before the stats were
    derived from the job's engine hops.
    """

    def test_two_sampling_calls(self):
        job = Job("job-two")
        client = BatchedSamplingModel(
            _FakeEngine(
                _FakeEngineJob(2, batch_samples=3),
                _FakeEngineJob(3, batch_samples=5),
            ),
            job,
        )
        client.sample(2, 0, np.random.default_rng(0))
        client.sample(3, 1, np.random.default_rng(1))
        assert _sampling_fields(RequestStats.from_job(job, request_id=1)) == {
            "samples": 5,
            "sample_jobs": 2,
            "batch_sizes": [3, 5],
            "queue_wait_seconds": 2.0,
            "degraded_jobs": 0,
        }

    def test_degraded_job(self):
        job = Job("job-degraded")
        client = BatchedSamplingModel(
            _FakeEngine(_FakeEngineJob(1, degrade_level=2)), job
        )
        client.sample(1, 0, np.random.default_rng(0))
        assert [e.kind for e in job.engine_events] == [
            "admission", "queue_wait", "batch_gather", "execute", "degraded",
        ]
        assert _sampling_fields(RequestStats.from_job(job, request_id=1)) == {
            "samples": 1,
            "sample_jobs": 1,
            "batch_sizes": [4],
            "queue_wait_seconds": 1.0,
            "degraded_jobs": 1,
        }

    def test_call_expired_after_admission_is_not_counted(self):
        job = Job("job-expired")
        client = BatchedSamplingModel(
            _FakeEngine(
                _FakeEngineJob(2, batch_samples=2),
                _FakeEngineJob(3, fail=True),
            ),
            job,
        )
        client.sample(2, 0, np.random.default_rng(0))
        with pytest.raises(DeadlineExpiredError):
            client.sample(3, 0, np.random.default_rng(1))
        # The second call was admitted, so its admission stays on record;
        # it never returned samples, so the stats do not count it.
        assert [e.kind for e in job.engine_events] == [
            "admission", "queue_wait", "batch_gather", "execute", "admission",
        ]
        assert job.engine_events[-1].detail == {"count": 3}
        assert _sampling_fields(RequestStats.from_job(job, request_id=1)) == {
            "samples": 2,
            "sample_jobs": 1,
            "batch_sizes": [2],
            "queue_wait_seconds": 1.0,
            "degraded_jobs": 0,
        }
