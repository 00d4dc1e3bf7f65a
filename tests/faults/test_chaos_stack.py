"""Full-stack chaos scenarios: seeded fault plans against a live stack.

The acceptance bar of the fault-injection harness, asserted end to end:

- **no request is lost silently** — every submitted job reaches a terminal
  state, even when responses are dropped on the floor mid-flight;
- **no data is corrupted** — stores and job journals reopen clean;
- **the engine keeps serving** — a fault consumes one batch (at most),
  never the service.
"""

import threading

import numpy as np
import pytest

from repro import faults
from repro.api.config import FaultConfig, PipelineConfig
from repro.faults import FaultPlan, FaultPoint, injected
from repro.serve import (
    PatternHttpServer,
    PatternService,
    ServeClient,
    ServeClientError,
    ServeEngine,
    ServeRequest,
)
from repro.serve.jobs import TERMINAL_STATES

PARAMS = {"count": 2, "style": "Layer-10001"}


@pytest.fixture(autouse=True)
def clean_active_plan():
    faults.reset()
    yield
    faults.reset()


class StubModel:
    """Instant fake sampler producing legal 16x16 patterns."""

    def __init__(self, window=16):
        self.window = window
        self.fitted = True
        self.n_classes = 2

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        shape = shape or (self.window, self.window)
        out = np.zeros((len(conditions), *shape), dtype=np.uint8)
        out[:, 4:12, 4:12] = 1
        return out


def _live_server(serve_config):
    service = PatternService(
        serve_config(max_workers=2, gather_window=0.0), model=StubModel()
    )
    server = PatternHttpServer(service, port=0)
    server.start()
    return server


class TestEngineChaos:
    def test_thread_tier_fault_fails_one_batch_not_the_engine(self):
        model = StubModel()
        engine = ServeEngine(model, gather_window=0.0)
        plan = FaultPlan(
            [FaultPoint(site="engine.execute", nth=1, times=1)]
        )
        with injected(plan), engine:
            doomed = engine.submit(count=1, condition=0, seed=1)
            with pytest.raises(Exception, match="injected fault"):
                doomed.result(timeout=30)
            healthy = engine.submit(count=1, condition=0, seed=2)
            assert healthy.result(timeout=30).shape == (1, 16, 16)
        assert plan.injected_total() == 1

    def test_config_enabled_plan_installs_through_the_service(self):
        cfg = PipelineConfig().replace(
            faults=FaultConfig.from_dict(
                {"enabled": True, "seed": 3,
                 "points": [{"site": "engine.execute", "nth": 1,
                             "times": 1}]}
            )
        )
        service = PatternService(cfg, model=StubModel())
        try:
            active = faults.active_plan()
            assert active.enabled
            assert active.points[0].site == "engine.execute"
            with service:
                responses = service.serve(
                    [ServeRequest(text="Generate 2 legal patterns, 16*16 "
                                       "topology, physical size 1024nm * "
                                       "1024nm, style Layer-10001.")]
                )
            # The injected batch failure was retried by the agent
            # pipeline or surfaced as a clean failure — never a hang.
            assert responses[0].error is None or responses[0].error_code
        finally:
            faults.reset()


class TestHttpChaos:
    def test_dropped_response_plus_idempotent_retry_runs_once(
        self, serve_config
    ):
        """http.respond kills the submit's response on the wire; the
        client's transport retry re-POSTs the same client key and lands
        on the job already created — exactly one job, no silent loss."""
        server = _live_server(serve_config)
        try:
            client = ServeClient(
                server.url, retries=3, backoff_base=0.01, backoff_cap=0.05
            )
            plan = FaultPlan(
                [FaultPoint(site="http.respond", nth=1, times=1)]
            )
            with injected(plan):
                job_id = client.submit(kind="pipeline", params=PARAMS)
            assert client.retries_performed >= 1
            final = client.wait(job_id, timeout=120)
            assert final["state"] in TERMINAL_STATES
            assert len(server.service.jobs) == 1  # ran once, not twice
        finally:
            server.stop()

    def test_accept_faults_shed_connections_not_the_server(self, serve_config):
        server = _live_server(serve_config)
        try:
            client = ServeClient(
                server.url, retries=5, backoff_base=0.01, backoff_cap=0.05
            )
            plan = FaultPlan(
                [FaultPoint(site="http.accept", nth=1, times=1)]
            )
            with injected(plan):
                job_id = client.submit(kind="pipeline", params=PARAMS)
            final = client.wait(job_id, timeout=120)
            assert final["state"] in TERMINAL_STATES
        finally:
            server.stop()

    def test_draining_server_answers_503_with_retry_after(self, serve_config):
        server = _live_server(serve_config)
        try:
            # Flip the drain gate without stopping the loop: exactly the
            # window a client sees during graceful shutdown.
            server._draining.set()
            client = ServeClient(server.url)
            with pytest.raises(ServeClientError) as excinfo:
                client.submit(kind="pipeline", params=PARAMS)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "shutdown"
            assert excinfo.value.retry_after is not None
            server._draining.clear()
            # The gate was temporary: the server still serves.
            job_id = client.submit(kind="pipeline", params=PARAMS)
            assert client.wait(job_id, timeout=120)["state"] in TERMINAL_STATES
        finally:
            server.stop()

    def test_drain_under_load_finishes_admitted_jobs(self, serve_config):
        server = _live_server(serve_config)
        stopper = None
        try:
            client = ServeClient(server.url)
            job_ids = [
                client.submit(kind="pipeline", params=PARAMS)
                for _ in range(4)
            ]
            stopper = threading.Thread(
                target=server.stop, kwargs={"drain": True}
            )
            stopper.start()
            stopper.join(timeout=120)
            assert not stopper.is_alive()
            # Every admitted job reached a terminal state before the
            # loop went down — none were abandoned mid-flight.
            for job_id in job_ids:
                job = server.service.jobs.get(job_id)
                assert job is not None
                assert job.state in TERMINAL_STATES
        finally:
            if stopper is None or not stopper.is_alive():
                server.stop()


class TestDurableServiceAcrossRestart:
    def test_terminal_jobs_survive_a_service_reboot(self, tmp_path):
        cfg = PipelineConfig()
        cfg = cfg.replace(serve=cfg.serve.replace(state_dir=str(tmp_path)))
        service = PatternService(cfg, model=StubModel())
        with service:
            request = ServeRequest(
                text="Generate 2 legal patterns, 16*16 topology, physical "
                     "size 1024nm * 1024nm, style Layer-10001.",
                client_job_id="ck-durable",
            )
            job = service.submit_job(request)
            job.wait(timeout=120)
            job_id, state = job.job_id, job.state
        assert state in TERMINAL_STATES
        reborn = PatternService(cfg, model=StubModel())
        restored = reborn.jobs.get(job_id)
        assert restored is not None
        assert restored.state == state
        assert restored.as_dict()["restored"] is True
        # And the idempotency key still routes to the restored job.
        assert reborn.jobs.find_client("ck-durable").job_id == job_id
        reborn.jobs.close()
