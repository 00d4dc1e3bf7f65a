"""HTTP conformance tests against a live ephemeral-port server.

Every status code in the contract is exercised end to end through real
sockets: 202 (accepted / still running), 200, 400, 404, 405, 409
(cancelled + cancel-conflict), 429 (queue_full) and 504
(deadline_expired), plus /metrics parsed with the repro.obs exposition
parser and the acceptance check that DELETE on a queued job prevents its
execution entirely."""

import math
import threading
import time

import numpy as np
import pytest

from repro.obs.export import parse_exposition
from repro.core.chatpattern import ChatResult
from repro.serve import (
    PatternHttpServer,
    PatternService,
    ServeClient,
    ServeClientError,
    ServeRequest,
)
from repro.serve.jobs import (
    CANCELLED,
    CODE_CANCELLED,
    CODE_DEADLINE_EXPIRED,
    CODE_QUEUE_FULL,
    EXPIRED,
    SUCCEEDED,
    JobOutcome,
)


class StubModel:
    """Instant fake sampler producing legal 16x16 patterns."""

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
    def __init__(self, window=16):
        super().__init__(window)
        self.started = threading.Event()
        self.release = threading.Event()

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        self.started.set()
        if not self.release.wait(timeout=30.0):
            raise RuntimeError("BlockingModel never released")
        return super().sample_batch(conditions, rng, shape=shape, **kwargs)


PARAMS = {"count": 2, "style": "Layer-10001"}


@pytest.fixture()
def live(serve_config):
    """(server, client, model) on an ephemeral port, torn down after."""
    model = StubModel()
    service = PatternService(
        serve_config(max_workers=2, gather_window=0.0),
        model=model,
    )
    server = PatternHttpServer(service, port=0)
    server.start()
    try:
        yield server, ServeClient(server.url), model
    finally:
        server.stop()


@pytest.fixture()
def blocked(serve_config):
    """Single-worker server whose model blocks until released."""
    model = BlockingModel()
    service = PatternService(
        serve_config(max_workers=1, queue_limit=1, gather_window=0.0),
        model=model,
    )
    server = PatternHttpServer(service, port=0)
    server.start()
    try:
        yield server, ServeClient(server.url), model
    finally:
        model.release.set()
        server.stop()


class TestHttpHappyPath:
    def test_submit_poll_result_roundtrip(self, live):
        server, client, _model = live
        assert server.port != 0  # the ephemeral port was resolved
        job_id = client.submit(kind="pipeline", params=PARAMS)
        final = client.wait(job_id, timeout=30.0)
        assert final["state"] == SUCCEEDED
        stages = [e["stage"] for e in final["stage_events"]]
        assert stages == ["sample", "legalize", "score", "persist"]
        states = [t["state"] for t in final["transitions"]]
        assert states[0] == "PENDING" and states[-1] == SUCCEEDED
        times = [t["t"] for t in final["transitions"]]
        assert times == sorted(times)

        result = client.result(job_id)
        assert result["produced"] == 2
        # the wire view keeps timings == stage_events: one record, two views
        assert result["timings"] == result["stage_events"]
        assert result["stats"]["samples"] == 2
        assert len(result["library"]) == 2
        assert "topology" not in result["library"][0]

    def test_result_with_topologies(self, live):
        _server, client, _model = live
        job_id = client.submit(kind="pipeline", params=PARAMS)
        client.wait(job_id, timeout=30.0)
        result = client.result(job_id, include_topologies=True)
        entry = result["library"][0]
        assert entry["shape"] == [16, 16]
        assert entry["topology"][4][4] == 1

    def test_result_202_while_running(self, blocked):
        _server, client, model = blocked
        job_id = client.submit(kind="pipeline", params=PARAMS)
        assert model.started.wait(timeout=10.0)
        with pytest.raises(ServeClientError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 202
        model.release.set()
        assert client.wait(job_id, timeout=30.0)["state"] == SUCCEEDED

    def test_healthz_and_metrics(self, live):
        _server, client, _model = live
        health = client.health()
        assert health["ok"] is True
        job_id = client.submit(kind="pipeline", params=PARAMS)
        client.wait(job_id, timeout=30.0)
        families = parse_exposition(client.metrics())
        assert "repro_requests_total" in families
        assert "repro_job_terminal_total" in families
        terminal = families["repro_job_terminal_total"]["samples"]
        succeeded = [
            value
            for _name, labels, value in terminal
            if labels.get("state") == SUCCEEDED
        ]
        assert succeeded and succeeded[0] >= 1


class TestHttpErrors:
    def test_unknown_job_404(self, live):
        _server, client, _model = live
        for method in ("status", "result", "cancel"):
            with pytest.raises(ServeClientError) as excinfo:
                getattr(client, method)("job-999999-deadbeef")
            assert excinfo.value.status == 404
            assert excinfo.value.code == "not_found"

    def test_unknown_route_404_and_405(self, live):
        _server, client, _model = live
        status, _payload = client._request("GET", "/v1/nope")
        assert status == 404
        status, _payload = client._request("PUT", "/v1/jobs")
        assert status == 405

    def test_bad_submit_bodies_400(self, live):
        _server, client, _model = live
        # chat without text
        status, payload = client._request("POST", "/v1/jobs", {"kind": "chat"})
        assert status == 400 and payload["error_code"] == "invalid_request"
        # unknown field
        status, payload = client._request(
            "POST", "/v1/jobs", {"text": "x", "bogus": 1}
        )
        assert status == 400 and "bogus" in payload["error"]

    def test_bad_source_400_and_the_next_job_is_served(self, live):
        _server, client, _model = live
        for source in (["x"], "", 7):
            status, payload = client._request(
                "POST", "/v1/jobs",
                {"kind": "pipeline", "params": PARAMS, "source": source},
            )
            assert status == 400
            assert payload["error_code"] == "invalid_request"
            assert "source" in payload["error"]
        job_id = client.submit(kind="pipeline", params=PARAMS, source="ok")
        assert client.wait(job_id, timeout=30.0)["state"] == SUCCEEDED

    def test_bad_objective_400_creates_no_job(self, live):
        server, client, _model = live
        for objective in ("bogus", "", 7, ["legality"]):
            status, payload = client._request(
                "POST", "/v1/jobs",
                {"kind": "pipeline", "params": PARAMS,
                 "objective": objective},
            )
            assert status == 400
            assert payload["error_code"] == "invalid_request"
            assert "legality" in payload["error"]
            assert "diversity" in payload["error"]
        assert list(server.service.jobs.jobs()) == []
        job_id = client.submit(
            kind="pipeline", params=PARAMS, objective="diversity"
        )
        assert client.wait(job_id, timeout=30.0)["state"] == SUCCEEDED

    def test_failed_job_result_maps_invalid_request_to_400(self, live):
        _server, client, _model = live
        job_id = client.submit(
            kind="pipeline", params={"count": 1, "bogus": True}
        )
        final = client.wait(job_id, timeout=30.0)
        assert final["state"] == "FAILED"
        with pytest.raises(ServeClientError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"

    def test_queue_full_429(self, blocked):
        _server, client, model = blocked
        client.submit(kind="pipeline", params=PARAMS)  # pins the worker
        assert model.started.wait(timeout=10.0)
        client.submit(kind="pipeline", params=PARAMS)  # fills queue_limit=1
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(kind="pipeline", params=PARAMS)
        assert excinfo.value.status == 429
        assert excinfo.value.code == CODE_QUEUE_FULL

    def test_queue_full_429_carries_retry_after(self, blocked):
        """Backpressure responses pace clients: a 429 carries a
        Retry-After header derived from live batch latency."""
        server, client, model = blocked
        client.submit(kind="pipeline", params=PARAMS)  # pins the worker
        assert model.started.wait(timeout=10.0)
        client.submit(kind="pipeline", params=PARAMS)  # fills queue_limit=1
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(kind="pipeline", params=PARAMS)
        assert excinfo.value.status == 429
        assert isinstance(excinfo.value.retry_after, int)
        assert 1 <= excinfo.value.retry_after <= 60
        assert client.last_retry_after == excinfo.value.retry_after
        # the hint matches what the service would advertise right now
        assert excinfo.value.retry_after == server.service.retry_after_hint()
        # non-backpressure responses carry no hint
        client.health()
        assert client.last_retry_after is None

    def test_deadline_expired_504(self, blocked):
        _server, client, model = blocked
        client.submit(kind="pipeline", params=PARAMS)  # pins the worker
        assert model.started.wait(timeout=10.0)
        doomed = client.submit(
            kind="pipeline", params=PARAMS, deadline=0.01
        )
        final = client.wait(doomed, timeout=10.0)
        assert final["state"] == EXPIRED
        with pytest.raises(ServeClientError) as excinfo:
            client.result(doomed)
        assert excinfo.value.status == 504
        assert excinfo.value.code == CODE_DEADLINE_EXPIRED

    def test_expiry_through_a_result_poll_is_counted(self, blocked):
        server, client, model = blocked
        pinned = client.submit(kind="pipeline", params=PARAMS)
        assert model.started.wait(timeout=10.0)
        doomed = client.submit(
            kind="pipeline", params=PARAMS, deadline=0.05
        )
        time.sleep(0.1)
        # GET result is the first to look: it expires the queued job.
        with pytest.raises(ServeClientError) as excinfo:
            client.result(doomed)
        assert excinfo.value.status == 504
        model.release.set()
        assert client.wait(pinned, timeout=30.0)["state"] == SUCCEEDED
        assert server.service.jobs.get(doomed).wait(timeout=10.0)
        metrics = server.service.metrics
        terminal = metrics.get("repro_job_terminal_total")
        assert metrics.get("repro_jobs_active").value() == 0
        assert terminal.value(state=EXPIRED) == 1
        assert terminal.value(state=SUCCEEDED) == 1


class TestHttpCancel:
    def test_delete_on_queued_job_prevents_execution(self, blocked):
        """Acceptance: DELETE on a queued job stops it before any work."""
        server, client, model = blocked
        client.submit(kind="pipeline", params=PARAMS)  # pins the worker
        assert model.started.wait(timeout=10.0)
        queued = client.submit(
            kind="pipeline", params={"count": 7, "style": "Layer-10001"}
        )
        assert client.status(queued)["state"] == "QUEUED"
        cancelled = client.cancel(queued)
        assert cancelled["state"] == CANCELLED
        model.release.set()
        final = client.wait(queued, timeout=10.0)
        assert final["state"] == CANCELLED
        assert final["error_code"] == CODE_CANCELLED
        # drain everything, then assert batch size 7 never ran
        server.service.drain()
        assert 7 not in model.calls
        with pytest.raises(ServeClientError) as excinfo:
            client.result(queued)
        assert excinfo.value.status == 409

    def test_cancel_after_success_conflicts_409(self, live):
        _server, client, _model = live
        job_id = client.submit(kind="pipeline", params=PARAMS)
        client.wait(job_id, timeout=30.0)
        with pytest.raises(ServeClientError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "conflict"
        # the job is untouched: still SUCCEEDED, result still served
        assert client.status(job_id)["state"] == SUCCEEDED
        assert client.result(job_id)["produced"] == 2

    def test_double_cancel_idempotent_over_the_wire(self, blocked):
        _server, client, model = blocked
        client.submit(kind="pipeline", params=PARAMS)
        assert model.started.wait(timeout=10.0)
        queued = client.submit(kind="pipeline", params=PARAMS)
        first = client.cancel(queued)
        second = client.cancel(queued)  # idempotent: still 200
        assert first["state"] == second["state"] == CANCELLED


class TestCompactOutcome:
    CHAT = (
        "Generate 1 legal patterns, 256*256 topology, physical size "
        "4096nm * 4096nm, style Layer-10001."
    )

    def test_free_size_chat_over_the_wire_matches_in_process(
        self, small_model, serve_config
    ):
        """The in-process caller gets the full ChatResult; the job keeps
        packed topologies only, and the wire unpacks them bit for bit."""
        service = PatternService(
            serve_config(max_workers=1, gather_window=0.0),
            model=small_model,
        )
        server = PatternHttpServer(service, port=0).start()
        try:
            response = service.serve([ServeRequest(text=self.CHAT)])[0]
            assert response.ok, response.error
            assert isinstance(response.result, ChatResult)
            library = response.result.library
            assert len(library) >= 1
            job = service.jobs.get(response.job_id)
            assert isinstance(job.outcome, JobOutcome)
            assert not hasattr(job, "response")
            for packed, pattern in zip(job.outcome.patterns, library):
                rows, cols = pattern.topology.shape
                assert (rows, cols) == (256, 256)
                assert len(packed.bits) == math.ceil(rows * cols / 8)

            client = ServeClient(server.url)
            wire = client.result(response.job_id, include_topologies=True)
            assert wire["produced"] == response.produced
            assert len(wire["library"]) == len(library)
            for entry, pattern in zip(wire["library"], library):
                assert entry["shape"] == [256, 256]
                assert entry["topology"] == pattern.topology.astype(int).tolist()
            bare = client.result(response.job_id)
            assert [e["shape"] for e in bare["library"]] == [
                [256, 256]
            ] * len(library)
            assert all("topology" not in e for e in bare["library"])
            assert bare["stats"]["samples"] == response.stats.samples
        finally:
            server.stop()
