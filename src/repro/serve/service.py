"""The multi-request pattern-generation service front-end.

``PatternService`` turns the one-request-at-a-time ``ChatPattern`` facade
into a batched service: requests are handled concurrently on a worker pool,
each one running the ordinary agent pipeline (auto-format, plan, execute)
against a :class:`~repro.serve.batching.BatchedSamplingModel` client whose
sampling rides the service's :class:`~repro.serve.engine.ServeEngine` —
the execution engine providing admission control (``queue_limit``
backpressure, per-job deadlines), fair-share batch selection (optionally
steered by the adaptive controller) and one executor thread.  The fitted
back-end comes from a :class:`~repro.serve.registry.ModelRegistry`, so
repeated services (or repeated keys) skip retraining, and produced
patterns are persisted through the shared
:class:`~repro.api.pipeline.PatternPipeline` primitives into an indexed
:class:`~repro.serve.store.LibraryStore`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.agent.backend import LLMBackend, SimulatedLLM
from repro.api.config import PipelineConfig
from repro.faults import FaultPlan
from repro.api.pipeline import PatternPipeline, PipelineResult
from repro.core.chatpattern import ChatPattern, ChatResult
from repro.diffusion.model import ConditionalDiffusionModel
from repro.obs.export import SnapshotWriter
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import job_spans
from repro.serve.batching import BatchedSamplingModel
from repro.serve.engine import QueueFullError, ServeEngine
from repro.serve.jobs import (
    CODE_INTERNAL,
    CODE_SHUTDOWN,
    QUEUED,
    RUNNING,
    Job,
    JobOutcome,
    JobTable,
    error_code_for,
)
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.stats import RequestStats, SchedulerStats
from repro.serve.store import LibraryStore
from repro.tune.controller import AdaptiveController

#: Parameters a ``kind="pipeline"`` request may carry.
_PIPELINE_PARAMS = frozenset({"count", "style", "size", "seed"})


@dataclass
class ServeRequest:
    """One generation request entering the service.

    ``source`` tags the request's sampling jobs for the engine's
    selection rule, which takes turns across sources (e.g. ``"bulk"`` vs
    ``"interactive"``); it must be a non-empty string.  ``deadline``
    bounds, in seconds, how long its jobs may sit queued before failing
    with a typed error (``None`` defers to ``config.serve.deadline``).
    ``objective`` (``"legality"`` | ``"diversity"``) steers the agent's
    choice among candidates; ``None`` takes ``config.serve.objective`` at
    admission, so the job's record holds the objective the request ran
    with.

    ``kind`` selects the execution path: ``"chat"`` (default) runs the
    full natural-language agent pipeline on ``text``; ``"pipeline"`` runs
    the typed stage chain (sample -> legalize -> score -> persist)
    directly with ``params`` (``count`` / ``style`` / ``size`` / ``seed``)
    — the path whose :class:`~repro.api.pipeline.PipelineResult.timings`
    are the job's per-stage progress records themselves.

    ``client_job_id`` is an optional client-supplied idempotency key:
    resubmitting with the same key returns the *existing* job instead of
    running the work twice — the safe-retry contract the client SDK's
    backoff relies on.
    """

    text: str
    objective: Optional[str] = None
    request_id: int = 0
    source: str = "default"
    deadline: Optional[float] = None
    kind: str = "chat"
    params: Optional[Dict] = None
    client_job_id: Optional[str] = None


@dataclass
class ServeResponse:
    """One request's full outcome: agent result plus service metrics.

    A request that raised is fault-isolated: ``result`` is ``None``,
    ``error`` carries the message and ``error_code`` the stable
    machine-readable code (``queue_full`` | ``deadline_expired`` |
    ``cancelled`` | ``invalid_request`` | ``legalize_failed`` |
    ``shutdown`` | ``internal``) wire protocols and
    clients key on —
    while every other request in the same ``serve`` call completes
    normally.  ``job_id`` names the lifecycle job that tracked this
    request, and ``stats`` is a view of that job's record
    (:meth:`~repro.serve.stats.RequestStats.from_job`).  The response
    goes to the in-process caller only; the job keeps its compact
    :class:`~repro.serve.jobs.JobOutcome` until its table purges it.
    """

    request: ServeRequest
    result: Optional[Union[ChatResult, PipelineResult]]
    stats: RequestStats
    error: Optional[str] = None
    error_code: Optional[str] = None
    job_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def produced(self) -> int:
        return self.result.produced if self.result is not None else 0

    @property
    def dropped(self) -> int:
        return self.result.dropped if self.result is not None else 0

    def summary(self) -> str:
        if self.result is None:
            return f"{self.stats.summary()}\nFAILED: {self.error}"
        return f"{self.stats.summary()}\n{self.result.summary()}"


@dataclass
class ServiceStats:
    """Service-level aggregate over one lifetime.

    ``requests``, ``produced``, ``dropped`` and the legalize totals are
    running sums, so they outlive the responses they count.
    """

    requests: int
    produced: int
    dropped: int
    scheduler: SchedulerStats
    registry: Dict = field(default_factory=dict)
    store: Optional[Dict] = None
    legalize_calls: int = 0
    legalize_seconds: float = 0.0
    engine: Optional[Dict] = None
    jobs: Optional[Dict] = None

    def as_dict(self) -> Dict:
        payload = {
            "requests": self.requests,
            "produced": self.produced,
            "dropped": self.dropped,
            "scheduler": self.scheduler.as_dict(),
            "registry": dict(self.registry),
            "legalize_calls": self.legalize_calls,
            "legalize_seconds": round(self.legalize_seconds, 4),
        }
        if self.store is not None:
            payload["store"] = self.store
        if self.engine is not None:
            payload["engine"] = dict(self.engine)
        if self.jobs is not None:
            payload["jobs"] = dict(self.jobs)
        return payload


class PatternService:
    """Batched, engine-backed, registry- and store-integrated service.

    Every setting comes from one :class:`PipelineConfig`: the model recipe
    from ``config.train`` (resolved through the registry, including the
    ``config.model_cache`` disk tier), the engine, request-pool and agent
    knobs from ``config.serve``, the store from ``config.store.store_dir``
    and the observability layer from ``config.obs``.  The service builds
    and owns its engine once :meth:`start` has resolved the model.

    Args:
        config: the service's :class:`PipelineConfig` (defaults when
            omitted).
        model: a pre-fitted back-end; bypasses the registry when given
            (benchmark/test convenience).
        registry: shared :class:`ModelRegistry`; a private one is created
            when omitted.
        store: optional :class:`LibraryStore`, opened from
            ``config.store.store_dir`` when omitted.  Every request's legal
            output is persisted into it (deduplicated), and the agent's
            ``Save_Library`` tool targets it.
        backend_factory: per-request LLM backend factory; each request gets
            its own instance so transcripts never interleave across threads.
        metrics: explicit metrics registry.  When omitted and
            ``config.obs.enabled``, the service builds a *private*
            :class:`~repro.obs.metrics.MetricsRegistry` (with the
            configured latency buckets) and threads it through every
            component it constructs; disabled configs get the shared
            no-op registry.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        model: Optional[ConditionalDiffusionModel] = None,
        registry: Optional[ModelRegistry] = None,
        store: Optional[LibraryStore] = None,
        backend_factory: Optional[Callable[[], LLMBackend]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or PipelineConfig()
        obs_cfg = self.config.obs
        faults_cfg = getattr(self.config, "faults", None)
        # A private registry per service (unless injected): its
        # snapshots then describe exactly this service's traffic, and two
        # services in one process never mix series.
        if metrics is not None:
            self.metrics = metrics
        elif obs_cfg.enabled:
            self.metrics = MetricsRegistry(
                latency_buckets=obs_cfg.latency_buckets
            )
        else:
            self.metrics = NULL_METRICS
        self._m_requests = self.metrics.counter(
            "repro_requests_total",
            "Requests served, by outcome",
            labels=("status",),
        )
        self._m_request_latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end request wall time",
        )
        # An enabled FaultConfig installs the process-wide plan here —
        # before any component below can hit a seam — so a configured
        # server boots faulty end to end (the chaos-smoke contract).
        # Disabled configs leave whatever plan is active (usually the
        # null plan) untouched.
        if faults_cfg is not None and faults_cfg.enabled:
            faults.install(FaultPlan.from_config(faults_cfg, metrics=self.metrics))
        self._snapshot_writer: Optional[SnapshotWriter] = None
        self._model = model
        self.registry = registry or ModelRegistry(
            save_dir=self.config.model_cache, metrics=self.metrics
        )
        if store is None and self.config.store.store_dir:
            store = LibraryStore(
                self.config.store.store_dir, metrics=self.metrics
            )
        self.store = store
        self._backend_factory = backend_factory or SimulatedLLM
        self._engine: Optional[ServeEngine] = None
        #: lifecycle registry behind submit/cancel/status and the HTTP API
        #: (``serve.state_dir`` makes it journal + rehydrate across restarts)
        self.jobs = JobTable(
            ttl=self.config.serve.job_ttl,
            state_dir=self.config.serve.state_dir,
            metrics=self.metrics,
        )
        self._pool: Optional[ThreadPoolExecutor] = None
        # Running totals over finalised responses (see _finish_job), added
        # to by many request threads at once.
        self._stats_lock = threading.Lock()
        self._totals = Counter(
            requests=0, produced=0, dropped=0,
            legalize_calls=0, legalize_seconds=0.0,
        )
        # Overlapping serve() calls may both find the service cold; the
        # lock makes model resolution + engine construction happen once.
        self._start_lock = threading.Lock()
        # Requests admitted and not yet finished; the engine sees at most
        # max_workers of them open (see _open_request).
        self._open_requests = 0
        self._open_lock = threading.Lock()
        # Request ids must be unique across overlapping serve() calls: they
        # seed per-request RNG streams, so a collision would make two live
        # requests sample identically.
        self._id_lock = threading.Lock()
        self._last_request_id = 0

    def _next_request_id(self) -> int:
        with self._id_lock:
            self._last_request_id += 1
            return self._last_request_id

    def _reserve_request_ids(self, ids: Sequence[int]) -> None:
        """Advance the counter past caller-supplied ids so autos can't collide."""
        with self._id_lock:
            self._last_request_id = max(self._last_request_id, *ids)

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._engine is not None and self._engine.running

    @property
    def accepting(self) -> bool:
        """Whether new submissions would be executed (False mid-drain)."""
        return self._pool is not None

    @property
    def model(self) -> Optional[ConditionalDiffusionModel]:
        return self._model

    @property
    def engine(self) -> Optional[ServeEngine]:
        return self._engine

    def start(self) -> "PatternService":
        """Resolve the model (registry hit or fit), build the engine that
        serves it, build the request pool and bring the engine's worker up.

        Each step runs only when its part is missing, so an explicit
        ``start()`` after :meth:`drain` rebuilds just the request pool.
        Admission (:meth:`serve`, :meth:`submit_job`) starts only a service
        that is not running, so a submission that arrives mid-drain fails
        with ``shutdown`` instead of reopening the pool.
        """
        with self._start_lock:
            obs_cfg = self.config.obs
            serve_cfg = self.config.serve
            if (
                obs_cfg.enabled
                and obs_cfg.snapshot_path
                and self._snapshot_writer is None
            ):
                self._snapshot_writer = SnapshotWriter(
                    self.metrics,
                    obs_cfg.snapshot_path,
                    interval=obs_cfg.snapshot_interval,
                ).start()
            if self._model is None:
                self._model = self.registry.get_or_fit(
                    ModelKey.from_config(self.config.train)
                )
            if self._engine is None:
                self._engine = ServeEngine(
                    self._model,
                    # The serving default rides the config's step schedule;
                    # per-job overrides still win inside the engine.
                    sampler_steps=self.config.sample.sampler_steps,
                    # The adaptive policy is configured, not just named:
                    # its controller reads ``config.tune`` (SLO, degrade
                    # ladder, thresholds).
                    controller=(
                        AdaptiveController(self.config.tune)
                        if serve_cfg.policy == "adaptive"
                        else None
                    ),
                    queue_limit=serve_cfg.queue_limit,
                    gather_window=serve_cfg.gather_window,
                    max_batch=serve_cfg.max_batch,
                    deadline=serve_cfg.deadline,
                    metrics=self.metrics,
                )
            if self._pool is None:
                # Persistent request pool: submitted jobs outlive any one
                # serve() call (the HTTP path submits and returns).
                self._pool = ThreadPoolExecutor(
                    max_workers=serve_cfg.max_workers,
                    thread_name_prefix="repro-serve-request",
                )
            self._engine.start()
            return self

    def drain(self) -> None:
        """Graceful drain: finish every admitted job, stop the pool.

        Jobs already queued or running complete normally (honoring any
        cancel requests at their checkpoints); new submissions fail with
        the ``shutdown`` code.  An explicit :meth:`start` builds a fresh
        pool, so a drained service can serve again.
        """
        with self._start_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def stop(self) -> None:
        """Drain requests, then stop the engine.

        The service's telemetry outputs close too: the snapshot writer
        performs a final dump and, while obs is enabled, the configured
        ``trace_path`` receives the span trees of the jobs still in the
        table as JSON lines (a job restored from the state journal kept no
        transitions, so it adds none).
        """
        self.drain()
        if self._engine is not None:
            self._engine.stop()
        self.jobs.close()
        if self.store is not None:
            self.store.close()
        if self._snapshot_writer is not None:
            self._snapshot_writer.stop(write_final=True)
            self._snapshot_writer = None
        trace_path = self.config.obs.trace_path
        if trace_path and self.config.obs.enabled:
            lines = [
                json.dumps(span, sort_keys=True) + "\n"
                for job in self.jobs.jobs()
                for span in job_spans(job)
            ]
            path = Path(trace_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(lines))

    def __enter__(self) -> "PatternService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving -------------------------------------------------------

    def serve(
        self, requests: Sequence[Union[str, ServeRequest]]
    ) -> List[ServeResponse]:
        """Handle many requests concurrently; returns responses in order.

        This is the batched counterpart of calling
        ``ChatPattern.handle_request`` in a loop: all requests run at once
        (up to ``max_workers``) and their sampling work coalesces in the
        engine.  Each response carries the full ``ChatResult`` /
        ``PipelineResult``, handed over from the request pool; the job
        table keeps only the compact outcome.  A request whose
        ``client_job_id`` names a job admitted earlier runs nothing and
        gets that job's retained outcome: its stats and error, no result.
        """
        if not requests:
            return []
        resolved = [
            request
            if isinstance(request, ServeRequest)
            else ServeRequest(text=request)
            for request in requests
        ]
        explicit_ids = [r.request_id for r in resolved if r.request_id != 0]
        if explicit_ids:
            self._reserve_request_ids(explicit_ids)
        # One extra engine request stays open while the batch is admitted,
        # so the first request to reach the engine still gathers for the
        # ones admitted after it.
        if not self.running:
            self.start()
        self._engine.request_started()
        try:
            admitted = [self._admit(request) for request in resolved]
        finally:
            self._engine.request_finished()
        return [
            handoff.result()
            if handoff is not None
            else self._retained_response(job, request)
            for request, (job, handoff) in zip(resolved, admitted)
        ]

    def handle(
        self, text: str, objective: Optional[str] = None
    ) -> ServeResponse:
        """Serve a single request (still through the engine)."""
        return self.serve([ServeRequest(text=text, objective=objective)])[0]

    # -- job lifecycle --------------------------------------------------

    def submit_job(
        self,
        request: Union[str, ServeRequest],
        enforce_queue_limit: bool = False,
    ) -> Job:
        """Admit a request as a lifecycle job; returns immediately.

        The job lands QUEUED on the persistent request pool; poll it with
        :meth:`job_status`, block with ``job.wait()``, stop it with
        :meth:`cancel_job`.  With ``enforce_queue_limit`` (the HTTP
        path), admission fails with the engine's typed
        :class:`~repro.serve.engine.QueueFullError` once ``queue_limit``
        jobs are already waiting — the blocking :meth:`serve` path keeps
        its engine-level-only backpressure, unchanged.
        """
        if not isinstance(request, ServeRequest):
            request = ServeRequest(text=request)
        return self._admit(request, enforce_queue_limit)[0]

    def _admit(
        self, request: ServeRequest, enforce_queue_limit: bool = False
    ) -> Tuple[Job, Optional["Future[ServeResponse]"]]:
        """:meth:`submit_job`, plus the future of the job's full response.

        The future is the request pool's own, so nothing else holds the
        response once the caller drops it; it is ``None`` for a job
        admitted earlier under the same ``client_job_id``.
        """
        # Start a cold or stopped service; a drained one stays drained.
        if not self.running:
            self.start()
        if request.client_job_id:
            # Idempotent resubmission: the same client key returns the
            # job already created for it (whatever state it is in) —
            # a retried POST after a lost response runs the work once.
            existing = self.jobs.find_client(request.client_job_id)
            if existing is not None:
                return existing, None
        if request.request_id == 0:
            request.request_id = self._next_request_id()
        else:
            self._reserve_request_ids([request.request_id])
        serve_cfg = self.config.serve
        if request.objective is None:
            request.objective = serve_cfg.objective
        queue_limit = serve_cfg.queue_limit
        if (
            enforce_queue_limit
            and queue_limit is not None
            and self.jobs.queued_count() >= queue_limit
        ):
            raise QueueFullError(
                f"admission queue is full ({self.jobs.queued_count()} "
                f"jobs waiting, queue_limit={queue_limit}); retry later"
            )
        deadline = (
            request.deadline
            if request.deadline is not None
            else serve_cfg.deadline
        )
        job = self.jobs.create(
            request=request,
            deadline=deadline,
            client_id=request.client_job_id,
        )
        job.transition(QUEUED)
        pool = self._pool
        # Open from admission, so the engine keeps gathering for requests
        # a burst has admitted but not yet started; _run_job closes it.
        self._open_request()
        try:
            if pool is None:
                raise RuntimeError("service request pool is not running")
            return job, pool.submit(self._run_job, job)
        except RuntimeError:
            # The pool shut down between start() and here (service is
            # draining): fail the job instead of hanging its waiters.
            self._close_request()
            response = self._empty_response(
                job, "service is draining; job was not executed", CODE_SHUTDOWN
            )
            self._finish_job(job, response)
            handoff: "Future[ServeResponse]" = Future()
            handoff.set_result(response)
            return job, handoff

    def cancel_job(self, job_id: str) -> Tuple[Optional[Job], bool]:
        """Request cancellation of a job by id.

        Returns ``(job, effective)``: ``job`` is ``None`` for unknown ids;
        ``effective`` is ``True`` when the cancel took (queued jobs are
        cancelled outright and never execute; running jobs stop at their
        next checkpoint; an already-CANCELLED job reports ``True``
        idempotently) and ``False`` when the job already finished in
        another terminal state.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None, False
        return job, job.request_cancel()

    def job_status(self, job_id: str) -> Optional[Dict]:
        """The full progress view of a job (``None`` for unknown ids)."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        job.maybe_expire()
        return job.as_dict()

    def _empty_response(
        self,
        job: Job,
        error: Optional[str] = None,
        error_code: Optional[str] = None,
    ) -> ServeResponse:
        """The response of a job that produced no result: the job's own
        error unless one is given, and the stats its record holds."""
        request: ServeRequest = job.request
        return ServeResponse(
            request=request,
            result=None,
            stats=RequestStats.from_job(job, request_id=request.request_id),
            error=error if error is not None else job.error,
            error_code=error_code if error_code is not None else job.error_code,
            job_id=job.job_id,
        )

    def _retained_response(
        self, job: Job, request: ServeRequest
    ) -> ServeResponse:
        """The response a finished job can still give: its outcome's
        stats and its error, without the result it did not keep."""
        job.wait()
        outcome = job.outcome
        return ServeResponse(
            request=request,
            result=None,
            stats=(
                outcome.stats
                if outcome is not None
                else RequestStats(request_id=request.request_id)
            ),
            error=job.error,
            error_code=job.error_code,
            job_id=job.job_id,
        )

    def _finish_job(self, job: Job, response: ServeResponse) -> None:
        """Attach the compact outcome, add the response to the totals,
        end the job.  The full result is not attached: the job table
        holds only what ``GET /v1/jobs/{id}/result`` serves."""
        job.outcome = JobOutcome.of(response.stats, response.result)
        with self._stats_lock:
            self._totals.update(
                requests=1,
                produced=response.produced,
                dropped=response.dropped,
                legalize_calls=response.stats.legalize_calls,
                legalize_seconds=response.stats.legalize_seconds,
            )
        if job.is_terminal:
            # Cancelled or expired before it ran: the terminal edge (and
            # the table's accounting of it) already happened.
            return
        # The outcome is attached first, so the terminal edge's journal
        # record (the job's as_dict view) holds its produced count; the
        # stats and library stay in memory and do not survive a restart.
        if response.ok:
            job.succeed(produced=response.produced)
        else:
            job.fail(response.error, code=response.error_code or CODE_INTERNAL)

    def _run_job(self, job: Job) -> ServeResponse:
        """Request-pool entry: execute one admitted job to a terminal state.

        A failure while serving becomes the job's error response, so the
        job always ends and is finished exactly once.  Closes the request
        :meth:`submit_job` opened, whatever the outcome.  Returns the full
        response, which reaches only a caller holding the pool's future.
        """
        try:
            try:
                if job.is_terminal or job.maybe_expire():
                    # Cancelled or expired while queued: it never runs.
                    response = self._empty_response(job)
                else:
                    response = self._handle_one(job)
            except Exception as exc:  # pragma: no cover - defensive
                response = self._empty_response(
                    job,
                    f"{type(exc).__name__}: {exc}",
                    error_code_for(exc, state=job.state),
                )
            self._finish_job(job, response)
        finally:
            self._close_request()
        return response

    def _open_request(self) -> None:
        """Count an admitted request toward the engine's gather rule.

        The engine sees ``min(admitted, max_workers)`` requests open: one
        that waits for a request-pool slot cannot submit before a running
        request finishes, so it is no companion worth gathering for.  The
        pool runs requests in admission order, and whenever more than
        ``max_workers`` are admitted every slot is busy.
        """
        with self._open_lock:
            self._open_requests += 1
            if self._open_requests <= self.config.serve.max_workers:
                self._engine.request_started()

    def _close_request(self) -> None:
        """Undo :meth:`_open_request` once the request is done."""
        with self._open_lock:
            self._open_requests -= 1
            if self._open_requests < self.config.serve.max_workers:
                self._engine.request_finished()

    def _run_pipeline_request(
        self, pipeline: PatternPipeline, request: ServeRequest
    ) -> PipelineResult:
        """Execute a ``kind="pipeline"`` request: the typed stage chain."""
        params = dict(request.params or {})
        unknown = set(params) - _PIPELINE_PARAMS
        if unknown:
            raise ValueError(
                f"unknown pipeline params {sorted(unknown)}; "
                f"allowed: {sorted(_PIPELINE_PARAMS)}"
            )
        result = pipeline.sample(
            count=params.get("count"),
            style=params.get("style"),
            size=params.get("size"),
            seed=params.get("seed"),
        )
        return pipeline.persist(pipeline.score(pipeline.legalize(result)))

    def _handle_one(self, job: Job) -> ServeResponse:
        request: ServeRequest = job.request
        started = time.perf_counter()
        job.transition(RUNNING, stage=request.kind)
        client = BatchedSamplingModel(
            self._engine,
            job,
            source=request.source,
            deadline=request.deadline,
        )
        result: Optional[Union[ChatResult, PipelineResult]] = None
        error: Optional[str] = None
        error_code: Optional[str] = None
        store_added = store_deduplicated = 0
        # One pipeline per request, bound to the batched client and the
        # job: every primitive the chain, the agent's tools and the final
        # persist call records its stage in the job, and entering it is
        # the job's cancel checkpoint.
        pipeline = PatternPipeline(
            self.config,
            model=client,
            store=self.store,
            metrics=self.metrics,
            job=job,
        )
        try:  # fault isolation: one bad request must not sink the
            # batch, and that covers per-request setup too
            if request.kind == "pipeline":
                result = self._run_pipeline_request(pipeline, request)
                store_added = result.store_added
                store_deduplicated = result.store_deduplicated
            elif request.kind == "chat":
                serve_cfg = self.config.serve
                chat = ChatPattern(
                    pipeline,
                    backend=self._backend_factory(),
                    max_retries=serve_cfg.max_retries,
                    base_seed=serve_cfg.base_seed + 7919 * request.request_id,
                )
                chat_result = chat.handle_request(
                    request.text, objective=request.objective
                )
                # The chat kind's persist stage: the add is idempotent
                # (content-hash dedup), so patterns the agent already saved
                # via Save_Library show up in `store_deduplicated` here.
                report = pipeline.persist_library(chat_result.library)
                if report is not None:
                    store_added = report.added
                    store_deduplicated = report.deduplicated
                result = chat_result
            else:
                raise ValueError(
                    f"unknown request kind {request.kind!r}; "
                    "known: chat, pipeline"
                )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            # Classify while the job still shows the failing stage
            # (LEGALIZING at this point means legalization raised).
            error_code = error_code_for(exc, state=job.state)
        wall_seconds = time.perf_counter() - started
        self._m_requests.inc(status="error" if error else "ok")
        self._m_request_latency.observe(wall_seconds)
        return ServeResponse(
            request=request,
            result=result,
            stats=RequestStats.from_job(
                job,
                request_id=request.request_id,
                wall_seconds=wall_seconds,
                produced=result.produced if result is not None else 0,
                dropped=result.dropped if result is not None else 0,
                store_added=store_added,
                store_deduplicated=store_deduplicated,
            ),
            error=error,
            error_code=error_code,
            job_id=job.job_id,
        )

    # -- observability -------------------------------------------------

    def retry_after_hint(self) -> int:
        """Seconds a backpressured (429) client should wait before retrying.

        Derived from live service latency — the gather window plus the
        mean wall time of the most recent batches — so the hint tracks how
        fast the engine is actually draining the queue rather than being a
        fixed constant.  Clamped to [1, 60] whole seconds (the HTTP
        ``Retry-After`` grammar wants a non-negative integer).
        """
        estimate = self.config.serve.gather_window
        engine = self._engine
        if engine is not None:
            recent = engine.recent_records(8)
            if recent:
                estimate += sum(r.wall_seconds for r in recent) / len(recent)
        return max(1, min(60, int(estimate + 0.999)))

    def stats(self) -> ServiceStats:
        engine_stats = (
            self._engine.stats() if self._engine is not None else None
        )
        with self._stats_lock:
            totals = dict(self._totals)
        return ServiceStats(
            scheduler=(
                engine_stats.scheduler
                if engine_stats is not None
                else SchedulerStats.from_records([])
            ),
            registry=self.registry.stats(),
            store=self.store.stats() if self.store is not None else None,
            **totals,
            engine=(
                engine_stats.as_dict() if engine_stats is not None else None
            ),
            jobs=self.jobs.counts(),
        )
