"""Unit tests for the serving engine.

Covers the three layers in isolation from the diffusion back-end (stub
models keep these tests fast): admission control (backpressure at
``queue_limit``, typed deadline expiry), the fair-share selection rule
and the executor's lifecycle under concurrent submit/stop.  One test runs
a real (tiny) fitted model to pin seeded-batch determinism.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.api.config import SERVE_POLICIES
from repro.obs import NULL_METRICS
from repro.serve import (
    DeadlineExpiredError,
    ModelKey,
    ModelRegistry,
    QueueFullError,
    ServeEngine,
)
from repro.serve.engine import BATCH_RECORD_RING
from repro.serve.stats import SchedulerStats
from repro.tune import AdaptiveController


class StubModel:
    """A sampling back-end that records every trajectory it runs."""

    def __init__(self, window=16, delay=0.0):
        self.window = window
        self.fitted = True
        self.delay = delay
        self.calls = []
        self._calls_lock = threading.Lock()

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        shape = shape or (self.window, self.window)
        with self._calls_lock:
            self.calls.append(
                {"conditions": list(conditions), "shape": tuple(shape), **kwargs}
            )
        if self.delay:
            time.sleep(self.delay)
        return np.zeros((len(conditions), *shape), dtype=np.uint8)


class TestAdmission:
    def test_queue_limit_fast_fails_with_backpressure(self):
        engine = ServeEngine(StubModel(), queue_limit=2, gather_window=0.0)
        jobs = [engine.submit(1, 0, seed=i) for i in range(2)]
        with pytest.raises(QueueFullError, match="queue_limit=2"):
            engine.submit(1, 0, seed=9)
        stats = engine.stats()
        assert stats.rejected == 1
        assert stats.submitted == 2
        assert stats.queued == 2
        # The accepted jobs still run once the pool comes up.
        with engine:
            for job in jobs:
                assert job.result(timeout=30).shape == (1, 16, 16)
        assert engine.stats().queued == 0

    def test_expired_job_fails_with_typed_error(self):
        engine = ServeEngine(StubModel(), gather_window=0.0)
        doomed = engine.submit(1, 0, seed=1, deadline=0.01)
        time.sleep(0.05)  # expires while the pool is still down
        alive = engine.submit(1, 0, seed=2)
        with engine:
            with pytest.raises(DeadlineExpiredError):
                doomed.result(timeout=30)
            assert alive.result(timeout=30).shape == (1, 16, 16)
        assert engine.stats().expired == 1

    def test_engine_default_deadline_applies_to_every_job(self):
        engine = ServeEngine(StubModel(), gather_window=0.0, deadline=0.01)
        job = engine.submit(1, 0, seed=1)
        assert job.deadline is not None
        time.sleep(0.05)
        with engine:
            with pytest.raises(DeadlineExpiredError):
                job.result(timeout=30)

    def test_bad_submit_arguments_rejected(self):
        engine = ServeEngine(StubModel())
        with pytest.raises(ValueError):
            engine.submit(0, 0)
        with pytest.raises(ValueError):
            engine.submit(1, 0, deadline=-1.0)
        with pytest.raises(ValueError):
            ServeEngine(StubModel(), queue_limit=0)
        with pytest.raises(ValueError):
            ServeEngine(StubModel(), deadline=0.0)


class TestGatherRule:
    """The gather window is spent only while a companion can still arrive.

    Requests opened with ``request_started`` that are all blocked in
    ``EngineJob.result`` cannot submit again before a job completes, so
    the worker dispatches at once; callers that open no requests gather as
    before.
    """

    @staticmethod
    def _counts(engine):
        """The engine's (open requests, blocked callers)."""
        return engine._requests, engine._blocked

    @staticmethod
    def _wait_in_thread(job):
        waiter = threading.Thread(target=job.result, args=(5,))
        waiter.start()
        return waiter

    def test_raw_clients_gather_the_full_window(self):
        with ServeEngine(StubModel(), gather_window=0.2) as engine:
            job = engine.submit(1, 0)
            job.result(timeout=5)
        assert job.queue_wait >= 0.15

    def test_lone_open_request_dispatches_at_once(self):
        with ServeEngine(StubModel(), gather_window=0.5) as engine:
            engine.request_started()
            job = engine.submit(1, 0)
            job.result(timeout=5)
            engine.request_finished()
            assert self._counts(engine) == (0, 0)
        assert job.queue_wait < 0.1

    def test_gather_ends_when_the_last_open_request_blocks(self):
        with ServeEngine(StubModel(), gather_window=0.5) as engine:
            engine.request_started()
            engine.request_started()
            first = engine.submit(1, 0)
            waiter = self._wait_in_thread(first)
            time.sleep(0.05)
            second = engine.submit(1, 1)
            second.result(timeout=5)
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            engine.request_finished()
            engine.request_finished()
            assert self._counts(engine) == (0, 0)
        # One batch, dispatched when the second request blocked.
        assert first.batch_samples == second.batch_samples == 2
        assert 0.04 <= first.queue_wait < 0.4

    def test_gather_ends_when_another_request_finishes(self):
        with ServeEngine(StubModel(), gather_window=0.5) as engine:
            engine.request_started()
            engine.request_started()
            job = engine.submit(1, 0)
            waiter = self._wait_in_thread(job)
            time.sleep(0.05)
            engine.request_finished()  # it never submitted
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            engine.request_finished()
        assert job.queue_wait < 0.4

    def test_callers_not_blocked_keep_the_gather(self):
        # A request that has submitted but not blocked on the job could
        # still submit again, so the worker waits for it.
        with ServeEngine(StubModel(), gather_window=0.2) as engine:
            engine.request_started()
            job = engine.submit(1, 0)
            job.future.result(timeout=5)
            engine.request_finished()
        assert job.queue_wait >= 0.15

    def test_expired_and_failed_waits_leave_the_count_balanced(self):
        class Failing(StubModel):
            def sample_batch(self, conditions, rng, shape=None, **kwargs):
                if conditions == [7]:
                    raise RuntimeError("boom")
                return super().sample_batch(conditions, rng, shape, **kwargs)

        engine = ServeEngine(Failing(), queue_limit=1, gather_window=0.0)
        expiring = engine.submit(1, 0, deadline=0.001)
        with pytest.raises(QueueFullError):
            engine.submit(1, 0)
        time.sleep(0.01)
        with engine:
            with pytest.raises(DeadlineExpiredError):
                expiring.result(timeout=5)
            assert self._counts(engine) == (0, 0)
            failing = engine.submit(1, 7)
            with pytest.raises(RuntimeError, match="boom"):
                failing.result(timeout=5)
            assert self._counts(engine) == (0, 0)

    def test_counts_balance_under_concurrent_requests(self):
        errors = []

        def request(engine, i):
            engine.request_started()
            try:
                for _ in range(5):
                    engine.submit(1, i % 2).result(timeout=10)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
            finally:
                engine.request_finished()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServeEngine(StubModel(), gather_window=0.01) as engine:
                threads = [
                    threading.Thread(target=request, args=(engine, i))
                    for i in range(16)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert self._counts(engine) == (0, 0)
                assert engine.stats().submitted == 16 * 5
        finally:
            sys.setswitchinterval(switch)


class TestBatchPolicies:
    def test_greedy_keeps_fifo_window_semantics(self):
        """One source: the default rule is the classic greedy FIFO prefix."""
        engine = ServeEngine(StubModel(), gather_window=0.0, max_batch=4)
        # Interleaved shapes: the rule takes a FIFO prefix of 4, which
        # fragments into two 2-sample trajectories per selection.
        jobs = [
            engine.submit(1, 0, shape=(16, 16) if i % 2 == 0 else (8, 8), seed=i)
            for i in range(8)
        ]
        with engine:
            for job in jobs:
                job.result(timeout=30)
        stats = engine.stats().scheduler
        assert stats.batches == 4
        assert stats.max_batch_size == 2

    def test_fair_share_prevents_bulk_starvation(self):
        model = StubModel()
        engine = ServeEngine(model, gather_window=0.0, max_batch=4)
        assert engine.policy == "fair_share"
        bulk = [
            engine.submit(1, 0, seed=i, source="bulk") for i in range(8)
        ]
        live = engine.submit(1, 1, seed=99, source="interactive")
        with engine:
            for job in bulk + [live]:
                job.result(timeout=30)
        # The interactive job (submitted LAST, behind 8 bulk jobs) must
        # ride the very first batch instead of waiting out the backlog.
        assert 1 in model.calls[0]["conditions"]

    def test_default_engine_serves_the_interactive_job_first_batch(self):
        """No controller: the default rule still lets an interactive job
        that sits behind a bulk backlog ride the very first batch."""
        model = StubModel()
        engine = ServeEngine(model, gather_window=0.0, max_batch=4)
        bulk = [engine.submit(1, 0, seed=i, source="bulk") for i in range(8)]
        live = engine.submit(1, 1, seed=99, source="interactive")
        with engine:
            for job in bulk + [live]:
                job.result(timeout=30)
        assert model.calls[0]["conditions"] == [0, 0, 0, 1]

    def test_distinct_sources_leave_no_per_source_state(self):
        """Selection depends only on the queue: ten thousand one-off
        sources leave nothing keyed by source on the engine once
        served."""
        engine = ServeEngine(StubModel(), gather_window=0.0, max_batch=64)
        before = set(vars(engine))
        jobs = [
            engine.submit(1, 0, seed=i, source=f"tenant-{i}")
            for i in range(10_000)
        ]
        with engine:
            for job in jobs:
                job.result(timeout=60)
        assert set(vars(engine)) == before
        for value in vars(engine).values():
            if isinstance(value, dict):
                assert not any(
                    str(key).startswith("tenant-") for key in value
                )
        assert engine._jobs == []
        assert engine.stats().scheduler.batches == 10_000 // 64 + 1

    def test_bad_source_fails_the_submitter_and_the_worker_lives(self):
        model = StubModel()
        engine = ServeEngine(model, gather_window=0.0)
        with engine:
            for bad in (["x"], "", 7):
                with pytest.raises(ValueError, match="source"):
                    engine.submit(1, 0, source=bad)
            assert engine.stats().submitted == 0
            # The worker survived: the next job is served.
            engine.submit(1, 0, seed=1).result(timeout=30)
        assert len(model.calls) == 1


class TestExecutorPool:
    def test_concurrent_submit_and_stop_never_hang(self):
        engine = ServeEngine(StubModel(delay=0.002), gather_window=0.001)
        engine.start()
        accepted = []
        accepted_lock = threading.Lock()

        def submitter(offset):
            for i in range(20):
                try:
                    job = engine.submit(1, 0, seed=offset * 100 + i)
                except RuntimeError:
                    return  # engine stopped underneath us: acceptable
                with accepted_lock:
                    accepted.append(job)
                time.sleep(0.001)

        threads = [
            threading.Thread(target=submitter, args=(t,)) for t in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.02)
        engine.stop(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
        assert not engine.running
        # Every accepted job resolves: samples from the graceful drain, or
        # a typed failure from the shutdown sweep — never a hang.
        for job in accepted:
            try:
                result = job.result(timeout=10)
            except RuntimeError:
                continue
            assert result.shape == (1, 16, 16)

    def test_graceful_stop_drains_the_queue(self):
        engine = ServeEngine(StubModel(delay=0.01), gather_window=0.2)
        jobs = [engine.submit(1, 0, seed=i) for i in range(6)]
        engine.start()
        engine.stop(timeout=30)  # must not wait out the gather window 6x
        for job in jobs:
            assert job.result(timeout=1).shape == (1, 16, 16)

    def test_restart_after_stop(self):
        engine = ServeEngine(StubModel(), gather_window=0.0)
        with engine:
            engine.submit(1, 0, seed=1).result(timeout=30)
        with pytest.raises(RuntimeError, match="stopped"):
            engine.submit(1, 0, seed=2)
        with engine:
            assert engine.submit(1, 0, seed=3).result(timeout=30).shape == (
                1, 16, 16,
            )


class _StubPlan:
    """What ``ServeEngine._account`` reads off a trajectory plan."""

    def __init__(self, jobs, samples):
        self.jobs = [None] * jobs
        self.samples = samples
        self.shape = (16, 16)


def _aggregate_list(records):
    """``SchedulerStats`` aggregated over a whole record list at once, as
    the engine did before it kept running totals."""
    if not records:
        return SchedulerStats(0, 0, 0, 0, 0.0, 0.0, 0.0)
    sizes = [r.samples for r in records]
    return SchedulerStats(
        batches=len(records),
        jobs=sum(r.jobs for r in records),
        samples=sum(sizes),
        max_batch_size=max(sizes),
        mean_batch_size=sum(sizes) / len(sizes),
        wall_seconds=max(r.ended_at for r in records)
        - min(r.started_at for r in records),
        busy_seconds=sum(r.wall_seconds for r in records),
    )


class TestBatchHistory:
    """The engine keeps a fixed ring of recent batch records beside
    running totals over every batch."""

    def test_history_stays_at_the_ring_bound(self):
        engine = ServeEngine(StubModel(), metrics=NULL_METRICS)
        n = 100_000
        for i in range(n):
            engine._account(_StubPlan(1 + i % 3, 1 + i % 5), float(i), 0.5)
        assert len(engine.batch_records) == BATCH_RECORD_RING
        assert engine.batch_records[-1].started_at == float(n - 1)
        stats = engine.stats().scheduler
        assert stats.batches == n
        assert stats.jobs == sum(1 + i % 3 for i in range(n))
        assert stats.samples == sum(1 + i % 5 for i in range(n))
        assert stats.busy_seconds == 0.5 * n
        assert stats.wall_seconds == n - 1 + 0.5
        assert engine.recent_records(3) == engine.batch_records[-3:]

    def test_concurrent_accounting_loses_no_batch(self):
        """Writers book batches while a reader takes snapshots: no batch
        is lost and no snapshot sees a batch half-booked."""
        engine = ServeEngine(StubModel(), metrics=NULL_METRICS)
        per_thread = 5000
        torn = []
        done = threading.Event()

        def book():
            for i in range(per_thread):
                engine._account(_StubPlan(1, 2), float(i), 0.25)

        def read():
            while not done.is_set():
                stats = engine.stats().scheduler
                if stats.busy_seconds != 0.25 * stats.batches:
                    torn.append(stats)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            writers = [threading.Thread(target=book) for _ in range(3)]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
            assert not any(t.is_alive() for t in writers + [reader])
        finally:
            sys.setswitchinterval(interval)
        assert torn == []
        stats = engine.stats().scheduler
        assert stats.batches == 3 * per_thread
        assert stats.jobs == 3 * per_thread
        assert stats.samples == 6 * per_thread

    def test_totals_match_the_list_aggregate_while_the_run_fits(self):
        rng = np.random.default_rng(0)
        engine = ServeEngine(StubModel(), metrics=NULL_METRICS)
        started = 0.0
        for _ in range(BATCH_RECORD_RING):
            started += float(rng.random())
            engine._account(
                _StubPlan(int(rng.integers(1, 5)), int(rng.integers(1, 65))),
                started, float(rng.random()),
            )
        records = engine.batch_records
        assert len(records) == BATCH_RECORD_RING
        assert engine.stats().scheduler == _aggregate_list(records)
        assert SchedulerStats.from_records(records) == _aggregate_list(records)
        assert SchedulerStats.from_records([]) == _aggregate_list([])


def _engine_for(policy, model, **kwargs):
    """The engine a service builds for a policy name: ``adaptive`` steers
    fair share with a controller, ``fair_share`` runs it plain."""
    controller = AdaptiveController() if policy == "adaptive" else None
    engine = ServeEngine(model, controller=controller, **kwargs)
    assert engine.policy == policy
    return engine


#: The smallest recipe the dataset builder can extract tiles for.
TINY_KEY = ModelKey(window=64, train_count=4)
TINY_SEEDS = (101, 202, 303, 404)


@pytest.fixture(scope="module")
def tiny_model():
    return ModelRegistry().get_or_fit(TINY_KEY)


class TestDeliveryIdentity:
    """Each job must receive ITS samples, however selection reordered."""

    class MarkerModel:
        """Returns each sample filled with its condition value."""

        window = 16
        fitted = True

        def sample_batch(self, conditions, rng, shape=None, **kwargs):
            out = np.empty((len(conditions), *shape), dtype=np.uint8)
            for i, condition in enumerate(conditions):
                out[i] = condition
            return out

    @pytest.mark.parametrize("policy", SERVE_POLICIES)
    def test_every_job_gets_its_own_samples(self, policy):
        engine = _engine_for(
            policy, self.MarkerModel(), gather_window=0.0, max_batch=64
        )
        jobs = []
        for i in range(12):
            jobs.append(
                engine.submit(
                    1 + i % 3,
                    condition=i,  # the per-job payload marker
                    seed=i,
                    source=f"src-{i % 3}",
                )
            )
        with engine:
            for i, job in enumerate(jobs):
                result = job.result(timeout=30)
                assert result.shape[0] == 1 + i % 3
                # Every row of this job's slice carries its own marker —
                # a mis-sliced or reordered batch would leak a neighbor's.
                assert set(np.unique(result)) == {i}

    def test_fair_share_batch_composition_is_arrival_ordered(self):
        """Riders line up by arrival inside a trajectory even when the
        fair-share rotation picked them in interleaved source order, so a
        fixed batch composition reproduces identical sample streams."""
        recorded = []

        class Recorder:
            window = 16
            fitted = True

            def sample_batch(self, conditions, rng, shape=None):
                recorded.append(list(conditions))
                return np.zeros((len(conditions), *shape), dtype=np.uint8)

        engine = ServeEngine(Recorder(), gather_window=0.0)
        for i, source in enumerate(["bulk", "bulk", "bulk", "live"]):
            engine.submit(1, condition=i, seed=i, source=source)
        with engine:
            pass  # drain on exit
        assert recorded == [[0, 1, 2, 3]]

    @staticmethod
    def _run_seeded_batch(model):
        """Submit every seeded job before start, so one batch carries
        them all."""
        engine = ServeEngine(model, gather_window=0.01)
        jobs = [
            engine.submit(count=3, condition=i % 2, seed=seed)
            for i, seed in enumerate(TINY_SEEDS)
        ]
        engine.start()
        try:
            samples = [job.result(timeout=240) for job in jobs]
        finally:
            engine.stop()
        return samples, engine.batch_records

    def test_fresh_engines_give_identical_samples(self, tiny_model):
        """A trajectory's samples depend on its riders only: the same
        seeded batch run through two fresh engines gives the same bytes,
        whatever the engine instance (start time, thread).  The full
        denoise kernel runs on a real fitted model."""
        first, first_records = self._run_seeded_batch(tiny_model)
        second, second_records = self._run_seeded_batch(tiny_model)
        for records in (first_records, second_records):
            assert [r.jobs for r in records] == [len(TINY_SEEDS)]
        assert len(first) == len(second) == len(TINY_SEEDS)
        for a, b in zip(first, second):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert not np.array_equal(first[0], first[1])
