"""Integration tests for the batched PatternService front-end.

The acceptance scenario of the serving subsystem: >= 8 concurrent requests
flow through the micro-batching scheduler (observed batch size > 1) against
a registry-cached model, and legal output lands in the indexed store.
"""

import time

import numpy as np
import pytest

from repro.serve import (
    LibraryStore,
    ModelKey,
    ModelRegistry,
    PatternService,
    ServeRequest,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import CANCELLED, EXPIRED, SUCCEEDED

REQUEST = (
    "Generate 2 legal patterns, 64*64 topology, physical size "
    "1024nm * 1024nm, style {style}."
)


@pytest.fixture()
def registry(small_model):
    registry = ModelRegistry()
    registry.put(ModelKey(window=64), small_model)
    return registry


def _requests(count):
    styles = ("Layer-10001", "Layer-10003")
    return [REQUEST.format(style=styles[i % 2]) for i in range(count)]


class TestServeConcurrent:
    def test_eight_concurrent_requests_batch_and_reuse_model(
        self, registry, small_model, tmp_path
    ):
        store = LibraryStore(tmp_path)
        service = PatternService(
            model_key=ModelKey(window=64),
            registry=registry,
            store=store,
            gather_window=0.1,
            max_workers=8,
            max_retries=1,
        )
        with service:
            responses = service.serve(_requests(8))

        assert len(responses) == 8
        assert [r.request.request_id for r in responses] == list(range(1, 9))
        assert sum(r.produced for r in responses) > 0

        stats = service.stats()
        # The whole point: concurrent requests coalesced into shared
        # batched trajectories instead of sampling one by one.
        assert stats.scheduler.max_batch_size > 1
        assert stats.scheduler.jobs >= 8
        # The model came from the registry cache, not a fresh fit.
        assert stats.registry["hits"] == 1
        assert stats.registry["misses"] == 0
        # Every legal pattern was persisted (and deduplicated) in the store.
        assert stats.store["unique"] + stats.store["duplicates"] >= sum(
            r.produced for r in responses
        )
        for response in responses:
            assert response.stats.samples >= response.produced
            assert response.stats.wall_seconds > 0
            assert response.stats.mean_batch_size >= 1
            assert "request" in response.summary()

    def test_plain_strings_accepted(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64),
            registry=registry,
            gather_window=0.02,
            max_retries=0,
        )
        with service:
            responses = service.serve(_requests(2))
        assert all(r.request.objective == "legality" for r in responses)

    def test_serve_empty_is_noop(self, registry):
        service = PatternService(model_key=ModelKey(window=64), registry=registry)
        assert service.serve([]) == []
        assert not service.running

    def test_handle_single_request(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64), registry=registry, max_retries=0
        )
        with service:
            response = service.handle(_requests(1)[0])
        assert response.request.request_id == 1
        assert response.stats.sample_jobs >= 1

    def test_direct_model_bypasses_registry(self, small_model):
        registry = ModelRegistry()
        service = PatternService(
            model=small_model, registry=registry, max_retries=0
        )
        with service:
            service.serve(_requests(1))
        assert registry.stats() == {
            "cached": 0, "hits": 0, "misses": 0, "disk_hits": 0,
        }

    def test_request_ids_continue_across_serve_calls(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64), registry=registry, max_retries=0
        )
        with service:
            first = service.serve(_requests(1))
            second = service.serve(_requests(1))
        assert first[0].request.request_id == 1
        assert second[0].request.request_id == 2
        assert service.stats().requests == 2

    def test_explicit_request_objects_preserved(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64), registry=registry, max_retries=0
        )
        request = ServeRequest(text=_requests(1)[0], objective="diversity")
        with service:
            response = service.serve([request])[0]
        assert response.request is request
        assert response.request.objective == "diversity"

    def test_bad_request_is_fault_isolated(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64), registry=registry, max_retries=0
        )
        bad = (
            "Generate 2 legal patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style Layer-99999."
        )
        with service:
            responses = service.serve([_requests(1)[0], bad])
        assert responses[0].ok
        assert responses[0].produced >= 0 and responses[0].error is None
        assert not responses[1].ok
        assert responses[1].produced == 0
        assert "Layer-99999" in responses[1].error
        assert "FAILED" in responses[1].summary()

    def test_stats_aggregate_requests(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64), registry=registry, max_retries=1
        )
        with service:
            responses = service.serve(_requests(2))
        stats = service.stats()
        assert stats.requests == 2
        assert stats.produced == sum(r.produced for r in responses)
        payload = stats.as_dict()
        assert payload["scheduler"]["samples"] >= 2
        assert "registry" in payload

    def test_concurrent_serve_calls_get_unique_request_ids(self, registry):
        from concurrent.futures import ThreadPoolExecutor

        service = PatternService(
            model_key=ModelKey(window=64),
            registry=registry,
            max_workers=4,
            max_retries=0,
        )
        with service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(service.serve, _requests(2)) for _ in range(4)
                ]
                batches = [f.result() for f in futures]
        ids = [r.request.request_id for batch in batches for r in batch]
        # Duplicate ids would collapse two requests onto one derived seed.
        assert len(ids) == 8
        assert len(set(ids)) == 8
        assert sorted(ids) == list(range(1, 9))

    def test_explicit_ids_never_collide_with_auto_ids(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64), registry=registry, max_retries=0
        )
        explicit = ServeRequest(text=_requests(1)[0], request_id=5)
        with service:
            responses = service.serve([explicit, _requests(1)[0]])
            later = service.serve(_requests(1))
        ids = [r.request.request_id for r in responses + later]
        assert ids[0] == 5
        # Auto-assigned ids skip past the explicit one instead of reusing it.
        assert len(set(ids)) == 3
        assert min(ids[1:]) > 5

    def test_request_reports_legalization_time(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64), registry=registry, max_retries=1
        )
        with service:
            response = service.handle(_requests(1)[0])
        # The request pipeline legalizes every candidate pattern on the
        # request's worker thread; the stats must surface that work.
        assert response.stats.legalize_calls >= 1
        assert response.stats.legalize_seconds > 0
        assert "legalize" in response.stats.summary()
        stats = service.stats()
        assert stats.legalize_calls >= response.stats.legalize_calls
        assert stats.legalize_seconds > 0


class TestEngineBackedService:
    def test_multi_worker_fair_share_service_keeps_request_order(
        self, registry
    ):
        service = PatternService(
            model_key=ModelKey(window=64),
            registry=registry,
            gather_window=0.05,
            max_workers=8,
            max_retries=0,
            policy="fair_share",
        )
        with service:
            responses = service.serve(
                [
                    ServeRequest(text=text, source=f"client-{i % 2}")
                    for i, text in enumerate(_requests(8))
                ]
            )
        # Responses come back in submission order regardless of how
        # their batches interleaved.
        assert [r.request.request_id for r in responses] == list(range(1, 9))
        payload = service.stats().as_dict()
        assert payload["engine"]["policy"] == "fair_share"
        assert payload["engine"]["submitted"] >= 8

    def test_from_config_threads_engine_knobs(self, registry):
        from repro.api import PipelineConfig, ServeConfig, TrainConfig

        config = PipelineConfig(
            train=TrainConfig(window=64),
            serve=ServeConfig(
                policy="adaptive",
                queue_limit=256,
                deadline=60.0,
                max_retries=0,
            ),
        )
        service = PatternService.from_config(config, registry=registry)
        assert service.policy == "adaptive"
        assert service.queue_limit == 256
        assert service.deadline == 60.0
        with service:
            service.serve(_requests(1))
        stats = service.stats()
        assert stats.engine["policy"] == "adaptive"
        assert stats.engine["queue_limit"] == 256

    def test_two_services_share_one_engine(self, registry, small_model):
        from repro.serve import ServeEngine

        # Two tenants with distinct recipes resolving through one engine;
        # the registry maps both keys to the same fitted back-end here, so
        # their sampling even coalesces into shared trajectories.
        registry.put(ModelKey(window=64, seed=1), small_model)
        engine = ServeEngine(
            registry=registry, policy="fair_share", gather_window=0.05,
        )
        first = PatternService(
            model_key=ModelKey(window=64), registry=registry,
            max_retries=0, engine=engine,
        )
        second = PatternService(
            model_key=ModelKey(window=64, seed=1), registry=registry,
            max_retries=0, engine=engine,
        )
        with engine:
            responses_first = first.serve(_requests(2))
            # A tenant's stop() must NOT kill the shared engine.
            first.stop()
            assert engine.running
            responses_second = second.serve(_requests(2))
        assert all(r.ok for r in responses_first + responses_second)
        assert first.engine is second.engine

    def test_request_deadline_failure_is_typed_and_isolated(self, registry):
        service = PatternService(
            model_key=ModelKey(window=64),
            registry=registry,
            gather_window=0.3,  # jobs expire while the batch gathers
            max_retries=0,
        )
        with service:
            responses = service.serve(
                [
                    ServeRequest(text=_requests(1)[0], deadline=1e-4),
                    ServeRequest(text=_requests(1)[0]),
                ]
            )
        assert not responses[0].ok
        # The engine's typed DeadlineExpiredError surfaces through the
        # agent tool layer as the request's failure reason.
        assert "deadline expired" in responses[0].error
        assert responses[1].ok


def _settled(engine, timeout=2.0):
    """Whether the engine's open-request and blocked-caller counts return
    to zero within ``timeout`` (a request closes just after its job turns
    terminal)."""
    give_up = time.monotonic() + timeout
    while (engine._requests, engine._blocked) != (0, 0):
        if time.monotonic() > give_up:
            return False
        time.sleep(0.001)
    return True


class TestGatherRule:
    """A lone request skips the gather window; every way a request can
    end closes it in the engine, so the next lone request does too."""

    WINDOW = 0.5

    def _service(self, registry, **kwargs):
        return PatternService(
            model_key=ModelKey(window=64),
            registry=registry,
            gather_window=self.WINDOW,
            max_retries=0,
            **kwargs,
        )

    def _assert_lone_request_dispatches_at_once(self, service):
        assert _settled(service.engine)
        response = service.handle(_requests(1)[0])
        assert response.ok
        assert response.stats.queue_wait_seconds < 0.1
        assert _settled(service.engine)

    def test_lone_request_skips_the_gather_window(self, registry):
        with self._service(registry) as service:
            response = service.handle(_requests(1)[0])
        assert response.ok
        assert response.stats.queue_wait_seconds < 0.1

    def test_requests_waiting_for_a_pool_slot_do_not_hold_the_gather(
        self, registry
    ):
        # With one pool thread the second request cannot reach the engine
        # until the first finishes, so neither waits out the window.
        with self._service(registry, max_workers=1) as service:
            jobs = [service.submit_job(_requests(1)[0]) for _ in range(2)]
            for job in jobs:
                assert job.wait(timeout=30)
                assert job.response.ok
                assert job.response.stats.queue_wait_seconds < 0.1
            assert _settled(service.engine)

    def test_refused_submit_leaves_counts_balanced(self, registry):
        from repro.serve import ServeEngine

        engine = ServeEngine(
            registry=registry, queue_limit=1, gather_window=self.WINDOW
        )
        service = self._service(registry, engine=engine)
        # A raw job fills the one-slot queue before the engine starts; the
        # engine then gathers for it, as raw clients always do.
        model = registry.get_or_fit(ModelKey(window=64))
        raw = engine.bind(model).submit(1, 0)
        with engine, service:
            response = service.handle(_requests(1)[0])
            assert not response.ok
            assert response.error_code == "queue_full"
            raw.result(timeout=30)
            self._assert_lone_request_dispatches_at_once(service)

    def test_cancelled_request_leaves_counts_balanced(self, registry):
        with self._service(registry, max_workers=1) as service:
            first = service.submit_job(_requests(1)[0])
            second = service.submit_job(_requests(1)[0])
            _, effective = service.cancel_job(second.job_id)
            assert effective
            assert first.wait(timeout=30) and second.wait(timeout=30)
            assert first.response.ok
            # The cancelled request never held a pool slot, so the first
            # did not gather for it.
            assert first.response.stats.queue_wait_seconds < 0.1
            assert second.state == CANCELLED
            self._assert_lone_request_dispatches_at_once(service)

    def test_expired_request_leaves_counts_balanced(self, registry):
        with self._service(registry, max_batch=32) as service:
            # A full batch of raw work keeps the worker busy while the
            # request's job waits out its deadline in the queue.
            busy = service.scheduler.submit(32, 0)
            response = service.serve(
                [ServeRequest(text=_requests(1)[0], deadline=0.05)]
            )[0]
            busy.result(timeout=30)
            assert not response.ok
            assert "deadline expired" in response.error
            assert service.engine.stats().expired == 1
            self._assert_lone_request_dispatches_at_once(service)


class TestTerminalAccounting:
    """Each job is counted once at its terminal edge, whoever ends it."""

    def test_expiry_through_a_status_poll_is_counted(self, small_model):
        metrics = MetricsRegistry()
        service = PatternService(
            model=small_model, max_workers=1, gather_window=0.0,
            metrics=metrics,
        )
        params = {"count": 512, "style": "Layer-10001"}
        with service:
            long_job = service.submit_job(
                ServeRequest(text="", kind="pipeline", params=params)
            )
            waiting = service.submit_job(
                ServeRequest(
                    text="",
                    kind="pipeline",
                    params=dict(params, count=1),
                    deadline=0.05,
                )
            )
            time.sleep(0.1)
            # The poll, not a worker, finds the deadline passed.
            assert service.job_status(waiting.job_id)["state"] == EXPIRED
            assert long_job.wait(timeout=120.0)
            assert waiting.wait(timeout=120.0)
            assert long_job.state == SUCCEEDED
        terminal = metrics.get("repro_job_terminal_total")
        assert metrics.get("repro_jobs_active").value() == 0
        assert terminal.value(state=EXPIRED) == 1
        assert terminal.value(state=SUCCEEDED) == 1
        assert service.stats().requests == 2


class TestRetryAfterHint:
    """A 429's ``Retry-After`` reads only the engine's last 8 batches."""

    def test_hint_reads_only_the_last_eight_records(self, monkeypatch):
        from repro.serve import ServeEngine
        from repro.serve.stats import BatchRecord

        engine = ServeEngine(gather_window=0.25)
        walls = [0.1] * 40 + [1.5, 5.0] * 4
        engine._records.extend(
            BatchRecord(
                jobs=1, samples=1, shape=(16, 16), wall_seconds=wall,
                started_at=float(i),
            )
            for i, wall in enumerate(walls)
        )
        service = PatternService(engine=engine, gather_window=0.25)
        recent = engine.batch_records[-8:]
        expected = max(1, min(60, int(
            0.25 + sum(r.wall_seconds for r in recent) / len(recent) + 0.999
        )))
        assert expected == 4  # 0.25 + 3.25 s, rounded up
        assert engine.recent_records(8) == recent
        # The hint must not copy the whole history to read its tail.
        monkeypatch.setattr(
            ServeEngine, "batch_records",
            property(lambda self: pytest.fail("copied every batch record")),
        )
        assert service.retry_after_hint() == expected
