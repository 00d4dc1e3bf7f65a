"""Integration tests: the obs instruments wired through the serve stack.

Engine-level tests use a stub back-end (fast, no diffusion); the
service-level tests ride the session-scoped ``small_model`` like the rest
of the service suite.  The load-bearing case is the queue-depth gauge vs
``EngineStats.queued`` under concurrent submit/drain races — the two views
are maintained independently (gauge in the instrumented hot path, counter
in the engine's own bookkeeping) and must tell the same story.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.api import ObsConfig, PipelineConfig, ServeConfig, TrainConfig
from repro.data import STYLES
from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    job_spans,
    parse_exposition,
)
from repro.serve import (
    DeadlineExpiredError,
    ModelKey,
    ModelRegistry,
    PatternService,
    QueueFullError,
    ServeEngine,
    ServeRequest,
)


SPAN_KEYS = {
    "name", "trace_id", "span_id", "parent_id", "start", "end", "duration"
}


def _tree(spans):
    """One trace's spans as a nested dict under its single root."""
    nodes = {s["span_id"]: {**s, "children": []} for s in spans}
    roots = []
    for span in sorted(spans, key=lambda s: s["start"]):
        parent = nodes.get(span["parent_id"])
        (parent["children"] if parent else roots).append(
            nodes[span["span_id"]]
        )
    (root,) = roots
    return root


class StubModel:
    """Minimal sampling back-end for engine-level tests."""

    def __init__(self, window=16, delay=0.0):
        self.window = window
        self.fitted = True
        self.delay = delay

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        shape = shape or (self.window, self.window)
        if self.delay:
            time.sleep(self.delay)
        return np.zeros((len(conditions), *shape), dtype=np.uint8)


class TestEngineInstrumentation:
    def test_counters_and_histograms_populate(self):
        metrics = MetricsRegistry()
        engine = ServeEngine(StubModel(), gather_window=0.0, metrics=metrics)
        with engine:
            jobs = [engine.submit(2, 0, seed=i) for i in range(4)]
            for job in jobs:
                job.result(timeout=30)
        stats = engine.stats()

        assert metrics.get("repro_jobs_submitted_total").value() == 4
        assert metrics.get("repro_queue_depth").value() == 0
        batches = metrics.get("repro_batch_size_samples")
        assert batches.count(policy="fair_share") == stats.scheduler.batches
        # Batch sizes are in samples: 4 jobs x 2 samples = 8 observed total.
        assert batches.total(policy="fair_share") == 8
        latency = metrics.get("repro_batch_latency_seconds")
        assert latency.count(policy="fair_share") == stats.scheduler.batches
        gather = metrics.get("repro_gather_latency_seconds")
        assert gather.count(policy="fair_share") == stats.scheduler.batches
        assert metrics.get("repro_queue_wait_seconds").count() == 4
        busy = metrics.get("repro_worker_busy_seconds_total")
        assert busy.value(worker="0") == pytest.approx(
            stats.scheduler.busy_seconds
        )

    def test_rejected_and_expired_counters(self):
        metrics = MetricsRegistry()
        engine = ServeEngine(
            StubModel(), queue_limit=1, gather_window=0.0, metrics=metrics
        )
        doomed = engine.submit(1, 0, seed=1, deadline=0.01)
        with pytest.raises(QueueFullError):
            engine.submit(1, 0, seed=2)
        time.sleep(0.05)  # the queued job expires while the pool is down
        with engine:
            with pytest.raises(DeadlineExpiredError):
                doomed.result(timeout=30)
        assert metrics.get("repro_jobs_submitted_total").value() == 1
        assert metrics.get("repro_jobs_rejected_total").value() == 1
        assert metrics.get("repro_jobs_expired_total").value() == 1
        assert metrics.get("repro_queue_depth").value() == 0

    def test_queue_depth_gauge_tracks_engine_stats_under_races(self):
        """Gauge and ``EngineStats.queued`` agree while submit races drain."""
        metrics = MetricsRegistry()
        engine = ServeEngine(
            StubModel(delay=0.002), gather_window=0.0, max_batch=2,
            metrics=metrics,
        )
        n_threads, per_thread = 4, 10
        jobs, jobs_lock = [], threading.Lock()
        start = threading.Barrier(n_threads)

        def submitter(base):
            start.wait()
            for i in range(per_thread):
                job = engine.submit(1, 0, seed=base * 100 + i)
                with jobs_lock:
                    jobs.append(job)

        threads = [
            threading.Thread(target=submitter, args=(t,))
            for t in range(n_threads)
        ]
        readings = []
        with engine:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Sample both views while the pool is still draining.
            gauge = metrics.get("repro_queue_depth")
            for _ in range(50):
                readings.append((gauge.value(), engine.stats().queued))
            for job in jobs:
                job.result(timeout=30)

        total = n_threads * per_thread
        stats = engine.stats()
        assert stats.submitted == total
        assert metrics.get("repro_jobs_submitted_total").value() == total
        # Every mid-flight reading is a plausible queue depth ...
        for gauge_value, queued in readings:
            assert 0 <= gauge_value <= total
            assert 0 <= queued <= total
        # ... and once drained the two views agree exactly.
        assert stats.queued == 0
        assert metrics.get("repro_queue_depth").value() == 0

    def test_null_metrics_record_nothing(self):
        engine = ServeEngine(
            StubModel(), gather_window=0.0, metrics=NULL_METRICS
        )
        with engine:
            engine.submit(1, 0, seed=1).result(timeout=30)
        assert NULL_METRICS.names() == []
        assert NULL_METRICS.get("repro_jobs_submitted_total") is None


REQUEST = (
    "Generate 2 legal patterns, 64*64 topology, physical size "
    "1024nm * 1024nm, style Layer-10001."
)
ONE_PATTERN = (
    "Generate 1 legal patterns, 64*64 topology, physical size "
    "1024nm * 1024nm, style {style}."
)


@pytest.fixture()
def registry(small_model):
    registry = ModelRegistry()
    registry.put(ModelKey(window=64), small_model)
    return registry


class TestObsTax:
    """Observability is near-free: eight one-pattern requests from two
    sources through the batched service, obs on against obs off, median
    against median over alternated pairs.  The tax may exceed ``BOUND``
    by the run-to-run spread the same pairs measure."""

    PAIRS = 11
    BOUND = 0.05

    @staticmethod
    def _serve_wall(registry, enabled):
        config = PipelineConfig(
            train=TrainConfig(window=64),
            serve=ServeConfig(
                gather_window=0.05, max_workers=8, max_retries=1
            ),
            obs=ObsConfig(enabled=enabled),
        )
        requests = [
            ServeRequest(
                text=ONE_PATTERN.format(style=STYLES[i % 2]),
                source=f"client-{i % 2}",
            )
            for i in range(8)
        ]
        service = PatternService(config, registry=registry)
        started = time.perf_counter()
        with service:
            responses = service.serve(requests)
        wall = time.perf_counter() - started
        # Responses come back in request order with obs on and off.
        assert [r.request.request_id for r in responses] == list(range(1, 9))
        return wall

    def test_obs_on_costs_at_most_the_bound_plus_spread(self, registry):
        walls = {True: [], False: []}
        for pair in range(self.PAIRS):
            for enabled in (True, False)[:: 1 if pair % 2 == 0 else -1]:
                walls[enabled].append(self._serve_wall(registry, enabled))
        median = {arm: np.median(w) for arm, w in walls.items()}
        spread = max(
            np.subtract(*np.percentile(w, [75, 25])) / median[arm]
            for arm, w in walls.items()
        )
        tax = median[True] / median[False] - 1.0
        tolerance = self.BOUND + spread
        assert tax <= tolerance, (
            f"obs tax {tax:.1%} over {self.PAIRS} alternated pairs exceeds "
            f"its tolerance {tolerance:.1%} ({self.BOUND:.0%} + "
            f"{spread:.1%} measured spread); walls on {walls[True]}, "
            f"off {walls[False]}"
        )


class TestServiceInstrumentation:
    def test_service_registry_covers_the_whole_request_path(
        self, small_model, serve_config
    ):
        # One explicit metrics registry shared by the model registry and
        # the service, so cache counters land beside the request counters.
        metrics = MetricsRegistry()
        registry = ModelRegistry(metrics=metrics)
        registry.put(ModelKey(window=64), small_model)
        service = PatternService(
            serve_config(gather_window=0.05, max_workers=4, max_retries=1),
            registry=registry,
            metrics=metrics,
        )
        with service:
            responses = service.serve(
                [ServeRequest(text=REQUEST) for _ in range(4)]
            )
        assert len(responses) == 4

        metrics = service.metrics
        assert metrics.get("repro_requests_total").value(status="ok") == 4
        assert metrics.get("repro_request_latency_seconds").count() == 4
        assert metrics.get("repro_jobs_submitted_total").value() >= 4
        assert metrics.get("repro_queue_depth").value() == 0
        assert metrics.get("repro_batch_latency_seconds").count(
            policy="fair_share"
        ) >= 1
        # Model registry counters live in the same registry.
        assert metrics.get("repro_model_cache_hits_total").value(
            tier="memory"
        ) >= 1
        # The whole thing renders as a parseable exposition payload.
        families = parse_exposition(metrics.to_prometheus())
        for name in (
            "repro_queue_depth",
            "repro_jobs_submitted_total",
            "repro_batch_latency_seconds",
            "repro_requests_total",
        ):
            assert name in families, name

        # Each request's job projects to a span tree rooted at its
        # request id, whose sampling calls parent the engine hops.
        for response in responses:
            spans = job_spans(service.jobs.get(response.job_id))
            tree = _tree(spans)
            assert tree["name"] == "request"
            assert tree["trace_id"] == response.request.request_id
            names = {child["name"] for child in tree["children"]}
            assert {"sample", "sample_call"} <= names
            call = next(
                c for c in tree["children"] if c["name"] == "sample_call"
            )
            assert [c["name"] for c in call["children"]][:4] == [
                "admission", "queue_wait", "batch_gather", "execute"
            ]

    def test_obs_disabled_leaves_null_instruments(self, registry):
        config = PipelineConfig(
            train=TrainConfig(window=64),
            serve=ServeConfig(max_retries=1),
            obs=ObsConfig(enabled=False),
        )
        service = PatternService(config, registry=registry)
        with service:
            responses = service.serve([REQUEST])
        assert len(responses) == 1
        assert service.metrics.names() == []

    def test_stop_writes_the_jobs_spans_as_json_lines(
        self, registry, tmp_path
    ):
        path = tmp_path / "traces.jsonl"
        config = PipelineConfig(
            train=TrainConfig(window=64),
            serve=ServeConfig(max_retries=1),
            obs=ObsConfig(trace_path=str(path)),
        )
        service = PatternService(config, registry=registry)
        with service:
            responses = service.serve([REQUEST, REQUEST])
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(set(span) - {"attrs"} == SPAN_KEYS for span in spans)
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], []).append(span)
        assert sorted(by_trace) == sorted(
            r.request.request_id for r in responses
        )
        for trace in by_trace.values():
            ids = {span["span_id"] for span in trace}
            assert [s["name"] for s in trace if s["parent_id"] is None] == [
                "request"
            ]
            assert all(
                s["parent_id"] in ids for s in trace if s["parent_id"]
            )
        assert {"request", "sample_call", "admission", "queue_wait",
                "batch_gather", "execute"} <= {s["name"] for s in spans}

    def test_obs_disabled_writes_no_trace(self, registry, tmp_path):
        path = tmp_path / "traces.jsonl"
        config = PipelineConfig(
            train=TrainConfig(window=64),
            serve=ServeConfig(max_retries=1),
            obs=ObsConfig(enabled=False, trace_path=str(path)),
        )
        with PatternService(config, registry=registry) as service:
            service.serve([REQUEST])
        assert not path.exists()

    def test_two_services_have_independent_registries(
        self, registry, serve_config
    ):
        first = PatternService(serve_config(max_retries=1), registry=registry)
        second = PatternService(serve_config(max_retries=1), registry=registry)
        assert first.metrics is not second.metrics
        with first:
            first.serve([REQUEST])
        assert first.metrics.get("repro_requests_total").value(status="ok") == 1
        requests = second.metrics.get("repro_requests_total")
        assert requests is None or requests.value(status="ok") == 0
