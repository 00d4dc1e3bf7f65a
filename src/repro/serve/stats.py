"""Observability records for the pattern-generation service.

Every layer of :mod:`repro.serve` reports through these dataclasses: the
:class:`~repro.serve.engine.ServeEngine` records one :class:`BatchRecord`
per batched denoise trajectory, :class:`SchedulerStats` aggregates those
records (kept as running :class:`BatchTotals`), :class:`EngineStats` adds
the engine's admission counters, and each served request gets a
:class:`RequestStats`, whose sampling fields are read off the request's
lifecycle job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class BatchRecord:
    """One batched sampling trajectory executed by the engine.

    ``policy`` names the selection policy the trajectory ran under.
    ``started_at`` is the ``time.perf_counter`` instant execution began —
    what lets the aggregate tell the wall-clock span from the summed busy
    time.
    """

    jobs: int
    samples: int
    shape: Tuple[int, int]
    wall_seconds: float
    started_at: float
    policy: str = ""

    @property
    def ended_at(self) -> float:
        return self.started_at + self.wall_seconds

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclass
class SchedulerStats:
    """Aggregate view over a scheduler's batch records.

    ``wall_seconds`` is the wall clock from the first batch start to the
    last batch end, idle gaps included, so ``samples_per_sec`` reports
    throughput over the run.  ``busy_seconds`` is the summed per-batch
    execution time.
    """

    batches: int
    jobs: int
    samples: int
    max_batch_size: int
    mean_batch_size: float
    wall_seconds: float
    busy_seconds: float = 0.0

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @classmethod
    def from_records(cls, records: Sequence[BatchRecord]) -> "SchedulerStats":
        totals = BatchTotals()
        for record in records:
            totals.add(record)
        return totals.stats()

    def as_dict(self) -> Dict:
        return {
            "batches": self.batches,
            "jobs": self.jobs,
            "samples": self.samples,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "wall_seconds": round(self.wall_seconds, 4),
            "busy_seconds": round(self.busy_seconds, 4),
            "samples_per_sec": round(self.samples_per_sec, 2),
        }


class BatchTotals:
    """Running :class:`SchedulerStats` over batch records, O(1) a record.

    Adding records one at a time gives the same numbers, to the bit, as
    aggregating the whole list at once, so an engine keeps its totals
    without keeping its history.  Not thread-safe: the owner locks.
    """

    def __init__(self):
        self.batches = self.jobs = self.samples = self.max_batch_size = 0
        self.busy_seconds = 0.0
        self.first_start = math.inf
        self.last_end = -math.inf

    def add(self, record: BatchRecord) -> None:
        self.batches += 1
        self.jobs += record.jobs
        self.samples += record.samples
        self.max_batch_size = max(self.max_batch_size, record.samples)
        self.busy_seconds += record.wall_seconds
        self.first_start = min(self.first_start, record.started_at)
        self.last_end = max(self.last_end, record.ended_at)

    def stats(self) -> SchedulerStats:
        if not self.batches:
            return SchedulerStats(0, 0, 0, 0, 0.0, 0.0, 0.0)
        return SchedulerStats(
            batches=self.batches,
            jobs=self.jobs,
            samples=self.samples,
            max_batch_size=self.max_batch_size,
            mean_batch_size=self.samples / self.batches,
            wall_seconds=self.last_end - self.first_start,
            busy_seconds=self.busy_seconds,
        )


@dataclass
class EngineStats:
    """One serving engine's aggregate: scheduling plus admission counters.

    ``submitted``/``rejected``/``expired`` are the admission layer's
    ledger (accepted jobs, backpressure fast-fails, deadline expiries);
    ``queued`` is the instantaneous queue depth at snapshot time.  The
    snapshot is taken under the engine's queue lock and the batch records
    under the records lock, so the numbers are consistent while the
    engine's worker is running.
    """

    scheduler: SchedulerStats
    policy: str
    queue_limit: Optional[int]
    queued: int
    submitted: int
    rejected: int
    expired: int

    def as_dict(self) -> Dict:
        return {
            "scheduler": self.scheduler.as_dict(),
            "policy": self.policy,
            "queue_limit": self.queue_limit,
            "queued": self.queued,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "expired": self.expired,
        }


@dataclass
class RequestStats:
    """Per-request service metrics (queue wait, batching, throughput).

    A view of the request's lifecycle job, built by :meth:`from_job`.
    Everything but ``request_id`` defaults to zero so a request that never
    executed (cancelled while queued, expired, rejected at shutdown) still
    carries a well-formed record.
    """

    request_id: int
    wall_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    sample_jobs: int = 0
    samples: int = 0
    degraded_jobs: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    produced: int = 0
    dropped: int = 0
    store_added: int = 0
    store_deduplicated: int = 0
    legalize_calls: int = 0
    legalize_seconds: float = 0.0

    @classmethod
    def from_job(cls, job, request_id: int, **fields) -> "RequestStats":
        """The request's stats, read off its job's record.

        Sampling fields come from the engine hops: each sampling call that
        returned left an ``execute`` hop carrying its sample ``count``; one
        that failed after admission left only its ``admission`` hop and
        adds nothing.  Legalize fields come from the ``legalize`` stage
        events: ``legalize_calls`` sums their ``total`` (the patterns
        legalized) and ``legalize_seconds`` their seconds.  ``fields`` are
        what the record does not hold (wall time, output, store counts).
        """
        stats = cls(request_id=request_id, **fields)
        for timing in list(job.stage_events):
            if timing.stage == "legalize":
                stats.legalize_calls += timing.detail["total"]
                stats.legalize_seconds += timing.seconds
        for event in list(job.engine_events):
            if event.kind == "queue_wait":
                stats.queue_wait_seconds += event.seconds
            elif event.kind == "batch_gather":
                stats.batch_sizes.append(event.detail["batch_samples"])
            elif event.kind == "execute":
                stats.sample_jobs += 1
                stats.samples += event.detail["count"]
            elif event.kind == "degraded":
                stats.degraded_jobs += 1
        return stats

    @property
    def mean_batch_size(self) -> float:
        """Mean size of the batches this request's sampling rode in."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> Dict:
        return {
            "request_id": self.request_id,
            "wall_seconds": round(self.wall_seconds, 4),
            "queue_wait_seconds": round(self.queue_wait_seconds, 4),
            "sample_jobs": self.sample_jobs,
            "samples": self.samples,
            "degraded_jobs": self.degraded_jobs,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "samples_per_sec": round(self.samples_per_sec, 2),
            "produced": self.produced,
            "dropped": self.dropped,
            "store_added": self.store_added,
            "store_deduplicated": self.store_deduplicated,
            "legalize_calls": self.legalize_calls,
            "legalize_seconds": round(self.legalize_seconds, 4),
        }

    def summary(self) -> str:
        return (
            f"request {self.request_id}: produced {self.produced}, "
            f"dropped {self.dropped}; {self.samples} sample(s) in "
            f"{self.sample_jobs} job(s)"
            + (
                f" ({self.degraded_jobs} degraded)"
                if self.degraded_jobs
                else ""
            )
            + f", mean batch {self.mean_batch_size:.1f}, "
            f"queue wait {self.queue_wait_seconds * 1000:.0f} ms, "
            f"legalize {self.legalize_seconds * 1000:.0f} ms in "
            f"{self.legalize_calls} call(s), "
            f"{self.wall_seconds:.2f}s wall "
            f"({self.samples_per_sec:.1f} samples/s)"
        )
