"""Thread-safe metrics primitives: counters, gauges, bucket histograms.

The serving stack emits its telemetry through a :class:`MetricsRegistry`
holding three instrument kinds, all safe for concurrent use from many
threads:

- :class:`Counter` — a monotonically increasing total (``_total`` series).
- :class:`Gauge` — an instantaneous value (queue depth, resident models).
- :class:`Histogram` — fixed-bucket latency/size distributions with
  Prometheus-style cumulative buckets and p50/p95/p99 derivation by
  linear interpolation inside the winning bucket.

Instruments support optional labels (``counter.inc(policy="fair_share")``),
one independent series per label-value combination, exactly like the
Prometheus data model.  ``registry.snapshot()`` captures every series as a
plain JSON-able dict (each histogram series carries its derived
percentiles), and :mod:`repro.obs.export` renders that snapshot in the
Prometheus text exposition format.

A registry created with ``enabled=False`` hands out shared no-op
instruments, so instrumented code costs one attribute call and nothing
else when observability is off.  :func:`default_metrics` returns the
process-wide registry that instrumented components fall back to when no
explicit registry is given; :data:`NULL_METRICS` is the shared disabled
one.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): sub-millisecond queue waits up to
#: minute-long batched trajectories, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Default size buckets (samples/jobs): powers of two up to the largest
#: batch the engine's ``max_batch`` default would select.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


class MetricError(ValueError):
    """An instrument was declared or used inconsistently."""


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _validate_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    labels = tuple(labels)
    for label in labels:
        if not _LABEL_RE.match(label):
            raise MetricError(f"invalid label name {label!r}")
    if len(set(labels)) != len(labels):
        raise MetricError(f"duplicate label names in {labels!r}")
    return labels


def validate_buckets(buckets: Iterable[float]) -> Tuple[float, ...]:
    """Validate histogram bucket bounds: finite, positive, increasing."""
    bounds = tuple(float(b) for b in buckets)
    if not bounds:
        raise MetricError("histogram needs at least one bucket bound")
    for bound in bounds:
        if not bound > 0 or bound != bound or bound == float("inf"):
            raise MetricError(
                f"bucket bounds must be finite and > 0, got {bound!r}"
            )
    if any(b >= a for b, a in zip(bounds, bounds[1:])):
        raise MetricError(
            f"bucket bounds must be strictly increasing, got {bounds!r}"
        )
    return bounds


class _Metric:
    """Shared series bookkeeping for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        self.name = _validate_name(name)
        self.help = help
        self.label_names = _validate_labels(labels)
        self._lock = threading.Lock()
        self._series: "OrderedDict[Tuple[str, ...], object]" = OrderedDict()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    # Subclasses fill in how one series snapshots.
    def _series_snapshot(self, key: Tuple[str, ...], state) -> Dict:
        raise NotImplementedError

    def snapshot(self) -> Dict:
        """This metric with every series, as a JSON-able dict."""
        with self._lock:
            series = [
                self._series_snapshot(key, state)
                for key, state in self._series.items()
            ]
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "series": series,
        }


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def _series_snapshot(self, key, state) -> Dict:
        return {"labels": self._label_dict(key), "value": float(state)}


class Gauge(_Metric):
    """An instantaneous value that may go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def _series_snapshot(self, key, state) -> Dict:
        return {"labels": self._label_dict(key), "value": float(state)}


class _HistogramSeries:
    __slots__ = ("counts", "sum")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0


class Histogram(_Metric):
    """Fixed-bucket distribution with cumulative-bucket export.

    ``bounds`` are the finite upper bucket bounds; an implicit ``+Inf``
    bucket catches everything above the last one.  Quantiles are derived
    the way ``histogram_quantile`` does it: find the bucket where the
    cumulative count crosses the target rank and interpolate linearly
    inside it (the ``+Inf`` bucket clamps to the largest finite bound).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        labels: Sequence[str] = (),
    ):
        super().__init__(name, help=help, labels=labels)
        self.bounds = validate_buckets(buckets)

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        key = self._key(labels)
        # Bisect by hand: bucket counts are per-bound *non*-cumulative in
        # storage and cumulated at export, so one increment suffices.
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds))
            series.counts[index] += 1
            series.sum += value

    def count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return sum(series.counts) if series is not None else 0

    def total(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return float(series.sum) if series is not None else 0.0

    def percentile(self, p: float, **labels) -> float:
        """The p-th percentile (``p`` in [0, 100]) of one series."""
        if not 0 <= p <= 100:
            raise MetricError("percentile takes p in [0, 100]")
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            counts = list(series.counts) if series is not None else None
        if not counts or sum(counts) == 0:
            return 0.0
        return _bucket_percentile(self.bounds, counts, p)

    def percentiles(
        self, ps: Sequence[float] = (50, 95, 99), **labels
    ) -> Dict[str, float]:
        return {f"p{p:g}": self.percentile(p, **labels) for p in ps}

    def raw_counts(self, **labels) -> Optional[List[int]]:
        """Non-cumulative per-bucket counts of one series (a copy).

        ``None`` when the series has never been observed.  Two successive
        copies can be differenced and fed to :func:`bucket_percentile` to
        derive *windowed* quantiles from a cumulative histogram — how the
        adaptive batch policy tracks *recent* queue-wait pressure instead
        of the since-boot distribution.
        """
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return list(series.counts) if series is not None else None

    def _series_snapshot(self, key, state: _HistogramSeries) -> Dict:
        counts = list(state.counts)
        cumulative: List[List] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative.append([bound, running])
        total = running + counts[-1]
        cumulative.append(["+Inf", total])
        snapshot = {
            "labels": self._label_dict(key),
            "count": total,
            "sum": state.sum,
            "buckets": cumulative,
        }
        if total:
            for p in (50, 95, 99):
                snapshot[f"p{p}"] = _bucket_percentile(self.bounds, counts, p)
        return snapshot


def _bucket_percentile(
    bounds: Tuple[float, ...], counts: Sequence[int], p: float
) -> float:
    """Linear interpolation inside the bucket holding the target rank."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = (p / 100.0) * total
    cumulative = 0
    for i, count in enumerate(counts[:-1]):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            fraction = (rank - previous) / count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    # Target rank lives in the +Inf bucket: clamp to the largest finite
    # bound — the honest answer a fixed-bucket histogram can give.
    return bounds[-1]


def bucket_percentile(
    bounds: Tuple[float, ...], counts: Sequence[int], p: float
) -> float:
    """Quantile over explicit bucket counts (e.g. a windowed delta).

    The same interpolation :meth:`Histogram.percentile` uses, exposed for
    callers that difference :meth:`Histogram.raw_counts` snapshots to get
    a quantile over only the observations of the last window.
    """
    if not 0 <= p <= 100:
        raise MetricError("percentile takes p in [0, 100]")
    return _bucket_percentile(tuple(bounds), counts, p)


class _NullInstrument:
    """Shared no-op instrument of a disabled registry.

    Every mutator is a no-op and every reader returns a zero, so
    instrumented code runs unchanged — and nearly free — with
    observability off.
    """

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0.0

    def count(self, **labels) -> int:
        return 0

    def total(self, **labels) -> float:
        return 0.0

    def percentile(self, p: float, **labels) -> float:
        return 0.0

    def percentiles(self, ps=(50, 95, 99), **labels) -> Dict[str, float]:
        return {f"p{p:g}": 0.0 for p in ps}

    def raw_counts(self, **labels) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe home of every instrument, with snapshot/export.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing instrument (declaring it with a
    different kind or labels raises, a histogram's buckets are fixed by
    its first declaration).  ``latency_buckets`` is the default bucket
    ladder ``histogram`` uses when none is given — the seam
    :class:`~repro.api.config.ObsConfig` configures.
    """

    def __init__(
        self,
        enabled: bool = True,
        latency_buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.enabled = bool(enabled)
        self.latency_buckets = validate_buckets(latency_buckets)
        self._lock = threading.Lock()
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()

    # -- declaration ---------------------------------------------------

    def _declare(self, cls, name: str, help: str, labels, **kwargs):
        if not self.enabled:
            return _NULL_INSTRUMENT
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"{name!r} is already declared as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                if tuple(labels) != existing.label_names:
                    raise MetricError(
                        f"{name!r} is already declared with labels "
                        f"{list(existing.label_names)}, not {list(labels)}"
                    )
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        labels: Sequence[str] = (),
    ) -> Histogram:
        return self._declare(
            Histogram,
            name,
            help,
            labels,
            buckets=buckets if buckets is not None else self.latency_buckets,
        )

    # -- reading -------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._metrics)

    def snapshot(self) -> Dict:
        """Every metric and series as one JSON-able dict.

        Counters are read under their per-metric locks, so a snapshot
        taken while writers hammer the registry is internally consistent
        and successive snapshots of a counter are monotonic.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            "version": 1,
            "metrics": [metric.snapshot() for metric in metrics],
        }

    # -- export (delegates to repro.obs.export) ------------------------

    def to_prometheus(self) -> str:
        """This registry in the Prometheus text exposition format."""
        from repro.obs.export import render_exposition

        return render_exposition(self.snapshot())

    def write_snapshot(self, path) -> "Path":
        """Atomically write the JSON snapshot to ``path``."""
        from repro.obs.export import write_snapshot

        return write_snapshot(self.snapshot(), path)


#: Shared disabled registry: instrumented components take this when
#: observability is configured off.
NULL_METRICS = MetricsRegistry(enabled=False)

_default_metrics: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_metrics() -> MetricsRegistry:
    """The process-wide registry instrumented components default to."""
    global _default_metrics
    with _default_lock:
        if _default_metrics is None:
            _default_metrics = MetricsRegistry()
        return _default_metrics


def set_default_metrics(registry: MetricsRegistry) -> Optional[MetricsRegistry]:
    """Install ``registry`` as the process default; returns the old one."""
    global _default_metrics
    with _default_lock:
        previous, _default_metrics = _default_metrics, registry
        return previous
