"""Job lifecycle state machine tests: transitions, cancellation, TTL,
the journal format, and the service-level contract that
``PipelineResult.timings`` and ``Job.stage_events`` hold one record."""

import gc
import json
import math
import sys
import threading
import time
import types
import weakref

import numpy as np
import pytest

from repro.obs.trace import StageTiming
from repro.serve import (
    PatternService,
    QueueFullError,
    ServeRequest,
)
from repro.serve.jobs import (
    CANCELLED,
    CODE_CANCELLED,
    CODE_DEADLINE_EXPIRED,
    CODE_INVALID_REQUEST,
    CODE_QUEUE_FULL,
    EXPIRED,
    FAILED,
    LEGALIZING,
    PENDING,
    PERSISTING,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Job,
    JobCancelled,
    JobStateError,
    JobTable,
    PackedTopology,
    error_code_for,
    terminal_state_for,
)


class StubModel:
    """Instant fake sampler: legal 16x16 patterns, records every call."""

    def __init__(self, window=16):
        self.window = window
        self.fitted = True
        self.n_classes = 2
        self.calls = []
        self._lock = threading.Lock()

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        with self._lock:
            self.calls.append(len(conditions))
        shape = shape or (self.window, self.window)
        out = np.zeros((len(conditions), *shape), dtype=np.uint8)
        out[:, 4:12, 4:12] = 1
        return out


class BlockingModel(StubModel):
    """Blocks inside ``sample_batch`` until released — pins both the
    engine worker and the request worker awaiting the result."""

    def __init__(self, window=16):
        super().__init__(window)
        self.started = threading.Event()
        self.release = threading.Event()

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        self.started.set()
        if not self.release.wait(timeout=30.0):
            raise RuntimeError("BlockingModel never released")
        return super().sample_batch(conditions, rng, shape=shape, **kwargs)


def _pipeline_request(count=2, **extra):
    return ServeRequest(
        text="",
        kind="pipeline",
        params={"count": count, "style": "Layer-10001"},
        **extra,
    )


# -- pure state machine ------------------------------------------------------


class TestJobStateMachine:
    def test_legal_walk_and_monotonic_log(self):
        job = Job("job-1")
        assert job.state == PENDING
        assert job.transition(QUEUED)
        assert job.transition(RUNNING, stage="sample")
        assert job.stage == "sample"
        assert job.transition(LEGALIZING, stage="legalize")
        assert job.transition(RUNNING, stage="score")
        assert job.transition(PERSISTING, stage="persist")
        assert job.succeed(produced=4)
        assert job.state == SUCCEEDED
        assert job.stage is None
        times = [t.t for t in job.transitions]
        assert times == sorted(times)
        states = [t.state for t in job.transitions]
        assert states[0] == PENDING and states[-1] == SUCCEEDED

    def test_illegal_edge_raises(self):
        job = Job("job-2")
        with pytest.raises(JobStateError):
            job.transition("NOT_A_STATE")
        job.transition(RUNNING, stage="sample")
        with pytest.raises(JobStateError):
            job.transition(QUEUED)  # no edges back into the queue

    def test_terminal_states_are_absorbing(self):
        job = Job("job-3")
        job.transition(QUEUED)
        assert job.succeed()
        # every further transition is a no-op, not an error
        assert not job.transition(RUNNING, stage="sample")
        assert not job.fail("late failure")
        assert not job.expire()
        assert job.state == SUCCEEDED
        assert job.error is None

    def test_cancel_while_queued_is_immediate(self):
        job = Job("job-4")
        job.transition(QUEUED)
        assert job.request_cancel()
        assert job.state == CANCELLED
        assert job.error_code == CODE_CANCELLED
        assert job.wait(timeout=0.1)

    def test_double_cancel_idempotent(self):
        job = Job("job-5")
        job.transition(QUEUED)
        assert job.request_cancel()
        assert job.request_cancel()  # second cancel also reports True
        assert job.state == CANCELLED
        assert len([t for t in job.transitions if t.state == CANCELLED]) == 1

    def test_cancel_after_success_is_a_noop(self):
        job = Job("job-6")
        job.transition(RUNNING, stage="sample")
        job.succeed()
        assert not job.request_cancel()
        assert job.state == SUCCEEDED
        assert not job.cancel_requested

    def test_cancel_checkpoint_raises_when_active(self):
        job = Job("job-7")
        job.transition(RUNNING, stage="sample")
        assert job.request_cancel()
        assert job.state == RUNNING  # cooperative: still running
        with pytest.raises(JobCancelled):
            job.check_cancelled()

    def test_enter_stage_maps_states(self):
        job = Job("job-8")
        job.enter_stage("sample")
        assert job.state == RUNNING and job.stage == "sample"
        job.enter_stage("legalize")
        assert job.state == LEGALIZING
        job.enter_stage("persist")
        assert job.state == PERSISTING

    def test_maybe_expire_only_while_waiting(self):
        job = Job("job-9", deadline=0.001)
        time.sleep(0.01)
        assert job.maybe_expire()
        assert job.state == EXPIRED
        assert job.error_code == CODE_DEADLINE_EXPIRED

        active = Job("job-10", deadline=0.001)
        active.transition(RUNNING, stage="sample")
        time.sleep(0.01)
        assert not active.maybe_expire()  # mid-flight jobs are not reaped
        assert active.state == RUNNING

    def test_as_dict_is_json_safe_view(self):
        import json

        job = Job("job-11", request=_pipeline_request())
        job.transition(QUEUED)
        job.record_stage(StageTiming("sample", 0.5, {"produced": 2}))
        job.fail("boom", code=CODE_INVALID_REQUEST)
        view = json.loads(json.dumps(job.as_dict()))
        assert view["state"] == FAILED
        assert view["error_code"] == CODE_INVALID_REQUEST
        assert view["request"]["kind"] == "pipeline"
        assert view["stage_events"][0]["stage"] == "sample"

    def test_error_code_mapping(self):
        assert error_code_for(ValueError("bad")) == CODE_INVALID_REQUEST
        assert error_code_for(KeyError("k")) == CODE_INVALID_REQUEST
        assert error_code_for(JobCancelled("c")) == CODE_CANCELLED
        assert error_code_for(RuntimeError("x")) == "internal"
        assert (
            error_code_for(RuntimeError("x"), state=LEGALIZING)
            == "legalize_failed"
        )
        assert terminal_state_for(CODE_CANCELLED) == CANCELLED
        assert terminal_state_for("shutdown") == CANCELLED
        assert terminal_state_for(CODE_DEADLINE_EXPIRED) == EXPIRED
        assert terminal_state_for("internal") == FAILED


class TestJobTable:
    def test_ids_unique_and_counts(self):
        table = JobTable(ttl=60.0)
        jobs = [table.create() for _ in range(5)]
        assert len({j.job_id for j in jobs}) == 5
        jobs[0].transition(QUEUED)
        jobs[1].transition(QUEUED)
        jobs[1].request_cancel()
        assert table.counts()[PENDING] == 3
        assert table.counts()[QUEUED] == 1
        assert table.counts()[CANCELLED] == 1
        assert table.queued_count() == 4  # PENDING + QUEUED

    def test_ttl_purges_terminal_jobs_only(self):
        table = JobTable(ttl=0.05)
        done = table.create()
        live = table.create()
        done.succeed()
        time.sleep(0.1)
        assert table.get(done.job_id) is None
        assert table.get(live.job_id) is live  # live jobs are never purged
        assert len(table) == 1

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            JobTable(ttl=0.0)

    @staticmethod
    def _patch_clock(monkeypatch, clock):
        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(
            jobs_module,
            "time",
            types.SimpleNamespace(perf_counter=lambda: clock[0], time=time.time),
        )

    def test_purge_pops_exactly_the_expired_jobs(self, monkeypatch):
        """Terminal jobs leave in the order their terminal edges ran, each
        once ``ttl`` has passed since its edge; live jobs never leave, and
        the client-key index forgets exactly the purged jobs' keys."""
        clock = [100.0]
        self._patch_clock(monkeypatch, clock)
        table = JobTable(ttl=10.0)
        live = table.create(client_id="k-live")
        first = table.create(client_id="k-first")
        second = table.create()
        third = table.create(client_id="k-third")
        first.succeed()  # t=100
        clock[0] = 105.0
        third.fail("boom")  # t=105: edges run out of creation order
        clock[0] = 106.0
        second.request_cancel()  # t=106
        live.transition(RUNNING, stage="sample")

        clock[0] = 110.0  # nothing is older than ttl yet
        assert table.purge() == 0
        assert len(table) == 4
        clock[0] = 110.5  # first's edge is 10.5 s old
        assert table.get(first.job_id) is None
        assert table.find_client("k-first") is None
        assert [j.job_id for j in table.jobs()] == [
            live.job_id, second.job_id, third.job_id
        ]
        clock[0] = 115.5  # third goes next, though created after second
        assert table.purge() == 1
        assert table.get(third.job_id) is None
        assert table.find_client("k-third") is None
        assert table.get(second.job_id) is second
        clock[0] = 1000.0
        assert table.purge() == 1
        assert table.jobs() == [live]  # the live job outlives them all
        assert table.find_client("k-live") is live
        assert not table._retiring
        live.succeed()  # t=1000: its retention starts now
        clock[0] = 1009.0
        assert table.get(live.job_id) is live
        clock[0] = 1010.5
        assert len(table) == 0
        assert table._by_client == {}

    def test_purge_keeps_a_reused_client_key(self, monkeypatch):
        clock = [0.0]
        self._patch_clock(monkeypatch, clock)
        table = JobTable(ttl=1.0)
        old = table.create(client_id="k")
        old.succeed()
        new = table.create(client_id="k")  # the key now names the new job
        clock[0] = 2.0
        assert table.get(old.job_id) is None
        assert table.find_client("k") is new

    def test_restored_jobs_retire_from_boot(self, tmp_path, monkeypatch):
        clock = [50.0]
        self._patch_clock(monkeypatch, clock)
        first = JobTable(ttl=5.0, state_dir=tmp_path)
        done = first.create(client_id="k-done")
        done.succeed()
        first.create()  # in flight at the "crash"
        first.close()
        clock[0] = 500.0  # the restart: retention restarts here
        table = JobTable(ttl=5.0, state_dir=tmp_path)
        try:
            assert table.restored == 1 and table.resurrected == 1
            clock[0] = 504.0
            assert len(table) == 2
            clock[0] = 505.5
            assert len(table) == 0
            assert table.find_client("k-done") is None
        finally:
            table.close()

    @staticmethod
    def _brute_counts(table):
        """``counts()`` and ``queued_count()`` as a scan of every job."""
        counts = {}
        for job in table.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        queued = sum(
            1 for job in table.jobs() if job.state in (PENDING, QUEUED)
        )
        return counts, queued

    def test_counts_match_a_brute_force_count(self, tmp_path, monkeypatch):
        """The live set and the per-state terminal counts give what a scan
        of every retained job gives, through create, terminal, purge and
        restore."""
        clock = [0.0]
        self._patch_clock(monkeypatch, clock)

        def check(table):
            assert (table.counts(), table.queued_count()) == (
                self._brute_counts(table)
            )

        table = JobTable(ttl=10.0, state_dir=tmp_path)
        jobs = [table.create() for _ in range(12)]
        check(table)
        for i, job in enumerate(jobs):
            if i % 4 != 0:
                job.transition(QUEUED)
            if i % 4 == 2:
                job.transition(RUNNING, stage="sample")
            check(table)
        for i, job in enumerate(jobs[:8]):
            clock[0] = float(i)
            if i % 3 == 0:
                job.succeed()
            elif i % 3 == 1:
                job.fail("boom")
            else:
                job.request_cancel()
            check(table)
        for now in (10.5, 13.5, 20.0):  # purge the oldest edges, then all
            clock[0] = now
            table.purge()
            check(table)
        # Job 2 was RUNNING when cancelled: it stops at its checkpoint.
        assert table.counts() == {PENDING: 1, QUEUED: 2, RUNNING: 2}
        fresh = [table.create() for _ in range(3)]
        fresh[0].succeed()
        fresh[1].transition(QUEUED)
        check(table)
        table.close()
        # Restore: every terminal record is within its wall-clock TTL and
        # comes back (a purge does not rewrite the journal), and the seven
        # in-flight jobs resurface as FAILED ``server_restart``.
        rebooted = JobTable(ttl=10.0, state_dir=tmp_path)
        try:
            assert rebooted.restored == 8 and rebooted.resurrected == 7
            check(rebooted)
            assert rebooted.counts() == {
                SUCCEEDED: 4, FAILED: 10, CANCELLED: 1
            }
            assert rebooted.queued_count() == 0
            extra = rebooted.create()
            extra.transition(QUEUED)
            check(rebooted)
            clock[0] = 1000.0
            rebooted.purge()
            check(rebooted)
            assert rebooted.counts() == {QUEUED: 1}
        finally:
            rebooted.close()

    def test_concurrent_edges_and_polls_keep_the_table_consistent(self):
        """More threads than cores finish jobs while others poll: no live
        job is ever purged, and once every retention has run out the
        table, its client index and its retirement queue are all empty."""
        table = JobTable(ttl=0.005)
        errors = []
        stop = threading.Event()

        def worker(index):
            try:
                for n in range(60):
                    job = table.create(client_id=f"k-{index}-{n % 7}")
                    if table.get(job.job_id) is not job:
                        errors.append(f"live job {job.job_id} purged")
                    job.transition(QUEUED)
                    (job.succeed if n % 2 else job.request_cancel)()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(repr(exc))

        def poller():
            while not stop.is_set():
                len(table)
                table.jobs()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            pollers = [threading.Thread(target=poller) for _ in range(2)]
            for thread in threads + pollers:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            stop.set()
            for thread in pollers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + pollers)
        assert errors == []
        time.sleep(0.02)
        assert len(table) == 0
        assert table._by_client == {}
        assert not table._retiring


class TestPackedTopology:
    @pytest.mark.parametrize("shape", [(5, 3), (16, 16), (7, 1)])
    def test_round_trip_and_size(self, shape):
        rng = np.random.default_rng(sum(shape))
        topology = (rng.random(shape) < 0.5).astype(np.uint8)
        packed = PackedTopology.pack(topology)
        assert packed.shape == shape
        assert len(packed.bits) == math.ceil(shape[0] * shape[1] / 8)
        unpacked = packed.unpack()
        assert unpacked.dtype == np.uint8
        assert np.array_equal(unpacked, topology)


#: A terminal journal line as the table wrote it when stage records had a
#: job-side copy class: a pipeline job with its stage and engine events.
JOURNAL_LINE = (
    '{"op": "terminal", "record": {"cancel_requested": false, "client_id": '
    '"compat-1", "created_unix": 1792386809.931, "elapsed_seconds": 0.0164,'
    ' "engine_events": [{"detail": {"count": 2}, "kind": "admission", "seco'
    'nds": 0.000179, "t": 0.011957}, {"kind": "queue_wait", "seconds": 0.00'
    '0258, "t": 0.012009}, {"detail": {"batch_samples": 2}, "kind": "batch_'
    'gather", "seconds": 0.000108, "t": 0.012267}, {"kind": "execute", "sec'
    'onds": 3.2e-05, "t": 0.012374}], "job_id": "job-000001-65ae2557", "pro'
    'duced": 2, "request": {"kind": "pipeline", "objective": "legality", "r'
    'equest_id": 1, "source": "default", "text": ""}, "stage": null, "stage'
    '_events": [{"detail": {"count": 2, "sampler_steps": "full", "size": 16'
    ', "style": "Layer-10001"}, "seconds": 0.0112, "stage": "sample"}, {"de'
    'tail": {"legal": 2, "total": 2}, "seconds": 0.0029, "stage": "legalize'
    '"}, {"seconds": 0.0006, "stage": "score"}, {"detail": {"output": null,'
    ' "store_added": 0}, "seconds": 0.0, "stage": "persist"}], "state": "SU'
    'CCEEDED", "transitions": [{"state": "PENDING", "t": 0.0}, {"state": "Q'
    'UEUED", "t": 0.00071}, {"stage": "pipeline", "state": "RUNNING", "t": '
    '0.001154}, {"stage": "sample", "state": "RUNNING", "t": 0.001322}, {"s'
    'tage": "legalize", "state": "LEGALIZING", "t": 0.012632}, {"stage": "s'
    'core", "state": "RUNNING", "t": 0.015626}, {"stage": "persist", "state'
    '": "PERSISTING", "t": 0.016263}, {"detail": {"produced": 2}, "state": '
    '"SUCCEEDED", "t": 0.016401}]}}'
)


class TestJournalFormat:
    def test_older_terminal_line_restores_unchanged(self, tmp_path):
        (tmp_path / "jobs.jsonl").write_text(JOURNAL_LINE + "\n")
        record = json.loads(JOURNAL_LINE)["record"]
        # A record is restored while its wall-clock finish is within the
        # TTL: give this one a window that covers its age.
        age = time.time() - record["created_unix"]
        table = JobTable(state_dir=tmp_path, ttl=age + 600.0)
        try:
            assert table.restored == 1
            job = table.get(record["job_id"])
            assert job is not None and job.state == SUCCEEDED
            assert job.as_dict() == {**record, "restored": True}
            assert all(isinstance(e, StageTiming) for e in job.stage_events)
            assert [e.as_dict() for e in job.stage_events] == (
                record["stage_events"]
            )
            assert table.find_client("compat-1") is job
        finally:
            table.close()


# -- service integration -----------------------------------------------------


class TestServiceJobs:
    def test_timings_and_stage_events_are_one_record(self, serve_config):
        """Acceptance: GET-status progress comes from the same transitions
        that produce ``PipelineResult.timings`` — equal field for field."""
        service = PatternService(
            serve_config(max_workers=2, gather_window=0.0),
            model=StubModel(),
        )
        try:
            job = service.submit_job(_pipeline_request(count=3))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            outcome = job.outcome
            assert outcome.produced == 3
            assert [t.as_dict() for t in outcome.timings] == [
                e.as_dict() for e in job.stage_events
            ]
            # Not copies: the job holds the pipeline's own records.
            assert all(
                a is b for a, b in zip(outcome.timings, job.stage_events)
            )
            stages = [e.stage for e in job.stage_events]
            assert stages == ["sample", "legalize", "score", "persist"]
        finally:
            service.stop()

    def test_purged_job_releases_its_result(self, serve_config):
        """A finished job never holds its request's full result: the
        in-process caller's response is its only holder.  Once the table
        purges the job, its compact outcome can be collected too, and the
        service totals still count the request."""
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0, job_ttl=0.05),
            model=StubModel(),
        )
        try:
            response = service.serve([_pipeline_request(count=2)])[0]
            assert response.ok and response.result.produced == 2
            # A strong reference: the job stays alive whatever the purge.
            job = service.jobs.get(response.job_id)
            assert job is not None and job.state == SUCCEEDED
            result = weakref.ref(response.result)
            del response
            gc.collect()
            assert result() is None
            assert job.produced == 2
            outcome = weakref.ref(job.outcome)
            job_id = job.job_id
            del job
            time.sleep(0.2)
            assert service.jobs.get(job_id) is None  # purged past its TTL
            gc.collect()
            assert outcome() is None
            stats = service.stats()
            assert stats.requests == 1
            assert stats.produced == 2
            assert stats.legalize_calls == 2
        finally:
            service.stop()

    def test_resubmitted_client_key_gets_the_retained_outcome(
        self, serve_config
    ):
        """serve() with a client key already used runs nothing: the
        response names the first job and carries its stats, not a
        result the job did not keep."""
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=StubModel(),
        )
        try:
            first = service.serve(
                [_pipeline_request(count=2, client_job_id="ck-1")]
            )[0]
            assert first.ok and first.result.produced == 2
            calls = len(service.model.calls)
            again = service.serve(
                [_pipeline_request(count=2, client_job_id="ck-1")]
            )[0]
            assert again.job_id == first.job_id
            assert again.ok and again.result is None
            assert again.stats is service.jobs.get(first.job_id).outcome.stats
            assert again.stats.produced == 2
            assert len(service.model.calls) == calls  # nothing re-ran
        finally:
            service.stop()

    def test_finished_job_is_journaled_once_and_restores_unchanged(
        self, tmp_path, serve_config
    ):
        """The terminal edge writes a finished job's one terminal line,
        response included; a restarted table restores it as it was."""
        service = PatternService(
            serve_config(
                max_workers=1, gather_window=0.0, state_dir=str(tmp_path)
            ),
            model=StubModel(),
        )
        try:
            jobs = [service.submit_job(_pipeline_request(count=2))
                    for _ in range(2)]
            for job in jobs:
                assert job.wait(timeout=30.0)
                assert job.state == SUCCEEDED
            finished = {job.job_id: job.as_dict() for job in jobs}
        finally:
            service.stop()
        lines = [
            json.loads(line)
            for line in (tmp_path / "jobs.jsonl").read_text().splitlines()
        ]
        terminal = [e["record"] for e in lines if e["op"] == "terminal"]
        assert sorted(r["job_id"] for r in terminal) == sorted(finished)
        for record in terminal:
            assert record == finished[record["job_id"]]
            assert record["produced"] == 2
        table = JobTable(state_dir=tmp_path)
        try:
            assert table.restored == 2
            for job_id, view in finished.items():
                assert table.get(job_id).as_dict() == {
                    **view, "restored": True
                }
        finally:
            table.close()

    def test_request_stats_count_every_batch_legalize_call(self, serve_config):
        """The request's ``legalize_calls`` sums the ``total`` of its
        legalize stage events: every pattern the batch stage legalized."""
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=StubModel(),
        )
        try:
            job = service.submit_job(_pipeline_request(count=3))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            assert job.outcome.stats.legalize_calls == 3
            assert job.outcome.stats.legalize_seconds > 0
        finally:
            service.stop()

    def test_restored_succeeded_job_serves_only_its_record(
        self, tmp_path, serve_config
    ):
        """The terminal journal line is the job's ``as_dict`` view, not its
        outcome: after a restart the result payload of a succeeded job
        holds its id, state, produced count and stage events — no stats,
        no library."""
        from repro.serve.http import _result_payload

        service = PatternService(
            serve_config(
                max_workers=1, gather_window=0.0, state_dir=str(tmp_path)
            ),
            model=StubModel(),
        )
        try:
            job = service.submit_job(_pipeline_request(count=2))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            live = _result_payload(job, include_topologies=False)
            assert {"stats", "library", "timings"} <= set(live)
        finally:
            service.stop()
        table = JobTable(state_dir=tmp_path)
        try:
            payload = _result_payload(
                table.get(job.job_id), include_topologies=True
            )
        finally:
            table.close()
        assert payload == {
            "job_id": job.job_id,
            "state": SUCCEEDED,
            "produced": 2,
            "stage_events": live["stage_events"],
        }

    def test_start_after_drain_serves_again(self, serve_config):
        """An explicit ``start()`` after ``drain()`` rebuilds the request
        pool, though the engine never stopped."""
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=StubModel(),
        )
        try:
            service.start()
            service.drain()
            assert service.running and not service.accepting
            service.start()
            assert service.accepting
            job = service.submit_job(_pipeline_request(count=1))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            assert job.error_code is None
        finally:
            service.stop()

    def test_submission_after_drain_is_shed(self, serve_config):
        """Admission does not reopen a drained service: a late submission
        fails with ``shutdown`` (the HTTP drain window)."""
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=StubModel(),
        )
        try:
            service.start()
            service.drain()
            job = service.submit_job(_pipeline_request(count=1))
            assert job.wait(timeout=30.0)
            assert job.state == CANCELLED
            assert job.error_code == "shutdown"
            assert not service.accepting
            (response,) = service.serve([_pipeline_request(count=1)])
            assert response.error_code == "shutdown"
        finally:
            service.stop()

    def test_cancel_while_queued_never_executes(self, serve_config):
        model = BlockingModel()
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=model,
        )
        try:
            blocker = service.submit_job(_pipeline_request(count=1))
            assert model.started.wait(timeout=10.0)
            # the single request worker is pinned; this one stays QUEUED
            queued = service.submit_job(_pipeline_request(count=7))
            assert queued.state == QUEUED
            cancelled_job, effective = service.cancel_job(queued.job_id)
            assert cancelled_job is queued and effective
            assert queued.state == CANCELLED
            assert queued.error_code == CODE_CANCELLED
            model.release.set()
            assert blocker.wait(timeout=30.0)
            assert queued.wait(timeout=10.0)
            assert blocker.state == SUCCEEDED
            # the distinctive batch size 7 never reached the model
            assert 7 not in model.calls
            service.drain()  # the pool has finished the cancelled job
            assert queued.outcome is not None
            assert queued.outcome.patterns is None
            assert queued.produced == 0
        finally:
            model.release.set()
            service.stop()

    def test_cancel_mid_stage_stops_at_next_checkpoint(self, serve_config):
        model = BlockingModel()
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=model,
        )
        try:
            job = service.submit_job(_pipeline_request(count=2))
            assert model.started.wait(timeout=10.0)
            assert job.state == RUNNING and job.stage == "sample"
            _, effective = service.cancel_job(job.job_id)
            assert effective
            assert not job.is_terminal  # cooperative, not preemptive
            model.release.set()
            assert job.wait(timeout=30.0)
            # the sample stage finished; legalize's checkpoint raised
            assert job.state == CANCELLED
            assert job.error_code == CODE_CANCELLED
            assert job.outcome.patterns is None
            stages = [e.stage for e in job.stage_events]
            assert "sample" in stages and "legalize" not in stages
        finally:
            model.release.set()
            service.stop()

    def test_transition_logs_monotonic_under_concurrent_requests(
        self, serve_config
    ):
        service = PatternService(
            serve_config(max_workers=4, gather_window=0.0),
            model=StubModel(),
        )
        try:
            jobs = [service.submit_job(_pipeline_request(count=2)) for _ in range(6)]
            for job in jobs:
                assert job.wait(timeout=60.0)
                assert job.state == SUCCEEDED
                times = [t.t for t in job.transitions]
                assert times == sorted(times)
                states = [t.state for t in job.transitions]
                assert states[0] == PENDING
                assert states[1] == QUEUED
                assert states[-1] == SUCCEEDED
                assert all(s in TERMINAL_STATES for s in states[-1:])
                assert job.engine_events, "engine hops should be mirrored"
        finally:
            service.stop()

    def test_unknown_kind_fails_with_invalid_request_code(self, serve_config):
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=StubModel(),
        )
        try:
            job = service.submit_job(ServeRequest(text="", kind="bogus"))
            assert job.wait(timeout=30.0)
            assert job.state == FAILED
            assert job.error_code == CODE_INVALID_REQUEST
            assert job.outcome.patterns is None
            assert job.produced == 0
        finally:
            service.stop()

    def test_unknown_pipeline_param_rejected(self, serve_config):
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=StubModel(),
        )
        try:
            request = ServeRequest(
                text="", kind="pipeline", params={"count": 1, "bogus": True}
            )
            job = service.submit_job(request)
            assert job.wait(timeout=30.0)
            assert job.state == FAILED
            assert job.error_code == CODE_INVALID_REQUEST
        finally:
            service.stop()

    def test_queue_limit_enforced_on_http_admission_path(self, serve_config):
        model = BlockingModel()
        service = PatternService(
            serve_config(max_workers=1, queue_limit=1, gather_window=0.0),
            model=model,
        )
        try:
            blocker = service.submit_job(
                _pipeline_request(count=1), enforce_queue_limit=True
            )
            assert model.started.wait(timeout=10.0)
            queued = service.submit_job(
                _pipeline_request(count=1), enforce_queue_limit=True
            )
            with pytest.raises(QueueFullError) as excinfo:
                service.submit_job(
                    _pipeline_request(count=1), enforce_queue_limit=True
                )
            assert excinfo.value.code == CODE_QUEUE_FULL
            model.release.set()
            assert blocker.wait(timeout=30.0) and queued.wait(timeout=30.0)
        finally:
            model.release.set()
            service.stop()

    def test_deadline_expires_queued_job(self, serve_config):
        model = BlockingModel()
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=model,
        )
        try:
            blocker = service.submit_job(_pipeline_request(count=1))
            assert model.started.wait(timeout=10.0)
            doomed = service.submit_job(_pipeline_request(count=1, deadline=0.01))
            time.sleep(0.05)
            view = service.job_status(doomed.job_id)
            assert view["state"] == EXPIRED
            assert view["error_code"] == CODE_DEADLINE_EXPIRED
            model.release.set()
            assert blocker.wait(timeout=30.0)
            assert doomed.wait(timeout=10.0)
            assert doomed.state == EXPIRED
            assert 1 in model.calls  # only the blocker sampled
            assert len(model.calls) == 1
        finally:
            model.release.set()
            service.stop()

    def test_serve_responses_carry_job_ids_and_codes(self, serve_config):
        service = PatternService(
            serve_config(max_workers=2, gather_window=0.0),
            model=StubModel(),
        )
        try:
            responses = service.serve(
                [_pipeline_request(count=2), ServeRequest(text="", kind="bogus")]
            )
            assert responses[0].ok and responses[0].error_code is None
            assert responses[0].job_id is not None
            assert not responses[1].ok
            assert responses[1].error_code == CODE_INVALID_REQUEST
            assert service.jobs.get(responses[0].job_id).state == SUCCEEDED
        finally:
            service.stop()
