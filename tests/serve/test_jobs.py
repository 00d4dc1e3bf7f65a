"""Job lifecycle state machine tests: transitions, cancellation, TTL,
the journal format, and the service-level contract that
``PipelineResult.timings`` and ``Job.stage_events`` hold one record."""

import gc
import json
import threading
import time
import weakref

import numpy as np
import pytest

from repro.api.config import PipelineConfig, ServeConfig
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
        table = JobTable(state_dir=tmp_path)
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
    def test_timings_and_stage_events_are_one_record(self):
        """Acceptance: GET-status progress comes from the same transitions
        that produce ``PipelineResult.timings`` — equal field for field."""
        service = PatternService(
            model=StubModel(), max_workers=2, gather_window=0.0
        )
        try:
            job = service.submit_job(_pipeline_request(count=3))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            result = job.response.result
            assert result.produced == 3
            assert [t.as_dict() for t in result.timings] == [
                e.as_dict() for e in job.stage_events
            ]
            # Not copies: the job holds the pipeline's own records.
            assert all(
                a is b for a, b in zip(result.timings, job.stage_events)
            )
            stages = [e.stage for e in job.stage_events]
            assert stages == ["sample", "legalize", "score", "persist"]
        finally:
            service.stop()

    def test_purged_job_releases_its_result(self):
        """The job is the only holder of a finished request's response:
        once the table purges the job, its result can be collected, and
        the service totals still count the request."""
        service = PatternService(
            model=StubModel(),
            max_workers=1,
            gather_window=0.0,
            config=PipelineConfig(serve=ServeConfig(job_ttl=0.05)),
        )
        try:
            job = service.submit_job(_pipeline_request(count=2))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            result = weakref.ref(job.response.result)
            job_id = job.job_id
            del job
            time.sleep(0.2)
            assert service.jobs.get(job_id) is None  # purged past its TTL
            gc.collect()
            assert result() is None
            stats = service.stats()
            assert stats.requests == 1
            assert stats.produced == 2
            assert stats.legalize_calls == 2
        finally:
            service.stop()

    def test_finished_job_is_journaled_once_and_restores_unchanged(
        self, tmp_path
    ):
        """The terminal edge writes a finished job's one terminal line,
        response included; a restarted table restores it as it was."""
        service = PatternService(
            model=StubModel(),
            max_workers=1,
            gather_window=0.0,
            config=PipelineConfig(serve=ServeConfig(state_dir=str(tmp_path))),
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

    def test_request_stats_count_every_batch_legalize_call(self):
        """The legalize stage runs on the request thread, so the request's
        thread-local legalize counters see every pattern it legalized."""
        service = PatternService(
            model=StubModel(), max_workers=1, gather_window=0.0
        )
        try:
            job = service.submit_job(_pipeline_request(count=3))
            assert job.wait(timeout=30.0)
            assert job.state == SUCCEEDED
            assert job.response.stats.legalize_calls == 3
            assert job.response.stats.legalize_seconds > 0
        finally:
            service.stop()

    def test_cancel_while_queued_never_executes(self):
        model = BlockingModel()
        service = PatternService(
            model=model, max_workers=1, gather_window=0.0
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
            assert queued.response is not None
            assert queued.response.error_code == CODE_CANCELLED
        finally:
            model.release.set()
            service.stop()

    def test_cancel_mid_stage_stops_at_next_checkpoint(self):
        model = BlockingModel()
        service = PatternService(
            model=model, max_workers=1, gather_window=0.0
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
            assert job.response.error_code == CODE_CANCELLED
            stages = [e.stage for e in job.stage_events]
            assert "sample" in stages and "legalize" not in stages
        finally:
            model.release.set()
            service.stop()

    def test_transition_logs_monotonic_under_concurrent_requests(self):
        service = PatternService(
            model=StubModel(),
            max_workers=4,
            gather_window=0.0,
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

    def test_unknown_kind_fails_with_invalid_request_code(self):
        service = PatternService(
            model=StubModel(), max_workers=1, gather_window=0.0
        )
        try:
            job = service.submit_job(ServeRequest(text="", kind="bogus"))
            assert job.wait(timeout=30.0)
            assert job.state == FAILED
            assert job.error_code == CODE_INVALID_REQUEST
            assert job.response.error_code == CODE_INVALID_REQUEST
            assert not job.response.ok
        finally:
            service.stop()

    def test_unknown_pipeline_param_rejected(self):
        service = PatternService(
            model=StubModel(), max_workers=1, gather_window=0.0
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

    def test_queue_limit_enforced_on_http_admission_path(self):
        model = BlockingModel()
        service = PatternService(
            model=model, max_workers=1, queue_limit=1, gather_window=0.0
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

    def test_deadline_expires_queued_job(self):
        model = BlockingModel()
        service = PatternService(
            model=model, max_workers=1, gather_window=0.0
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

    def test_serve_responses_carry_job_ids_and_codes(self):
        service = PatternService(
            model=StubModel(), max_workers=2, gather_window=0.0
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
