"""Observability: metrics registry, scrapeable exporters, request tracing.

The telemetry layer of the serving stack, stdlib-only:

- :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments
  (fixed buckets, derived p50/p95/p99), with a process-wide default
  (:func:`default_metrics`) and a shared disabled registry
  (:data:`NULL_METRICS`) whose instruments are no-ops.
- :mod:`repro.obs.export` — the JSON snapshot and Prometheus
  text-exposition exporters, the matching minimal exposition parser, and
  the background :class:`SnapshotWriter` dumping both formats
  periodically.
- :mod:`repro.obs.trace` — per-request span trees as a view of the
  lifecycle job record (:func:`job_spans`), following each sampling call
  through admission → queue wait → batch gather → execute, and the
  request through the pipeline stages it recorded.  Both request kinds
  record their stages through the pipeline's one stage recorder, so a
  ``pipeline`` request has a span per chain stage (sample, legalize,
  score, persist) and a chat request one per tool primitive its agent
  ran (sample, extend, modify, legalize) plus its final persist.  The
  service writes the spans as JSON lines on shutdown.

Every serve-stack component (:class:`~repro.serve.engine.ServeEngine`,
:class:`~repro.serve.service.PatternService`,
:class:`~repro.serve.registry.ModelRegistry`,
:class:`~repro.serve.store.LibraryStore`,
:class:`~repro.api.pipeline.PatternPipeline`) accepts an explicit
``metrics=`` registry and defaults to the process-wide one;
:class:`~repro.api.config.ObsConfig` switches a configured pipeline's
observability off (null instruments, no trace output) or on with
snapshot/trace outputs.
"""

from repro.obs.export import (
    ExpositionError,
    SnapshotWriter,
    exposition_path,
    load_snapshot,
    parse_exposition,
    render_exposition,
    write_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_metrics,
    set_default_metrics,
    validate_buckets,
)
from repro.obs.trace import job_spans

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "ExpositionError",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_METRICS",
    "SnapshotWriter",
    "default_metrics",
    "exposition_path",
    "job_spans",
    "load_snapshot",
    "parse_exposition",
    "render_exposition",
    "set_default_metrics",
    "validate_buckets",
    "write_snapshot",
]
