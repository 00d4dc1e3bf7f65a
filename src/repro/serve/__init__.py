"""Batched pattern-generation service: the multi-request serving subsystem.

Layers (front to back):

- :class:`PatternService` — the service front-end: many concurrent
  natural-language requests, each running the full agent pipeline, with
  per-request stats (queue wait, batch sizes, samples/sec).
- :class:`ServeEngine` — the execution engine for one fitted model: a
  bounded admission queue (``queue_limit`` backpressure, per-job
  deadlines), one fair-share selection rule (FIFO within a request
  source, sources taking turns; the ``adaptive`` policy steers it with an
  SLO-driven :class:`~repro.tune.controller.AdaptiveController`), and one
  in-process worker thread running the batches.
- :class:`BatchedSamplingModel` — the per-request drop-in model wrapping
  the engine: compatible sampling work from different requests coalesces
  into single batched denoise trajectories
  (``ConditionalDiffusionModel.sample_batch``).
- :class:`ModelRegistry` / :class:`ModelKey` — fitted models cached by
  training recipe (``ModelKey`` derives from
  :class:`repro.api.config.TrainConfig`) so repeated requests never
  retrain; an optional disk tier extends the cache across processes.
- :class:`LibraryStore` — content-hash-indexed persistent pattern store
  with dedup and query-by-style/size/legality.
- :class:`Job` / :class:`JobTable` — the request lifecycle state machine
  (PENDING -> QUEUED -> RUNNING(stage) -> LEGALIZING -> PERSISTING ->
  terminal) every served request is tracked as, with cancellation and
  TTL-bounded retention.
- :class:`PatternHttpServer` / :class:`ServeClient` — the stdlib asyncio
  HTTP wire protocol over the job table, and its blocking client SDK.
"""

from repro.serve.batching import BatchedSamplingModel
from repro.serve.engine import (
    DeadlineExpiredError,
    EngineError,
    EngineJob,
    QueueFullError,
    ServeEngine,
    TrajectoryPlan,
)
from repro.serve.jobs import (
    CODE_SERVER_RESTART,
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobCancelled,
    JobError,
    JobStateError,
    JobStateStore,
    JobTable,
    error_code_for,
)
from repro.serve.client import JobTimeout, ServeClient, ServeClientError
from repro.serve.http import PatternHttpServer
from repro.serve.registry import ModelKey, ModelRegistry, fit_model
from repro.serve.service import (
    PatternService,
    ServeRequest,
    ServeResponse,
    ServiceStats,
)
from repro.serve.stats import (
    BatchRecord,
    EngineStats,
    RequestStats,
    SchedulerStats,
)
from repro.serve.store import (
    LibraryStore,
    StoreRecord,
    StoreReport,
    pattern_content_hash,
)

__all__ = [
    "CODE_SERVER_RESTART",
    "BatchRecord",
    "BatchedSamplingModel",
    "DeadlineExpiredError",
    "EngineError",
    "EngineJob",
    "EngineStats",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobError",
    "JobStateError",
    "JobStateStore",
    "JobTable",
    "JobTimeout",
    "LibraryStore",
    "ModelKey",
    "ModelRegistry",
    "PatternHttpServer",
    "PatternService",
    "QueueFullError",
    "RequestStats",
    "SchedulerStats",
    "ServeClient",
    "ServeClientError",
    "ServeEngine",
    "ServeRequest",
    "ServeResponse",
    "ServiceStats",
    "StoreRecord",
    "StoreReport",
    "TERMINAL_STATES",
    "TrajectoryPlan",
    "error_code_for",
    "fit_model",
    "pattern_content_hash",
]
