"""The per-request model client that routes sampling through the engine.

The throughput lever of the serving subsystem: many concurrent requests
each ask for a handful of samples, and sampling cost is dominated by the
per-step walk of the reverse chain — which is almost as cheap for a
``(N, H, W)`` stack as for a single topology.  Compatible sampling jobs
(same topology shape; style conditions may differ freely, they chunk
inside the batched step) therefore coalesce into single calls of
:meth:`~repro.diffusion.model.ConditionalDiffusionModel.sample_batch`, so
N requests cost ~1 batched denoise trajectory instead of N.  Admission,
batching policy and the executor live in
:class:`~repro.serve.engine.ServeEngine`; ``ServeEngine.bind(model)``
returns the :class:`~repro.serve.engine.EngineClient` that submits to it.

``BatchedSamplingModel`` wraps such a client as a drop-in stand-in for
the fitted model: its ``sample`` rides the shared engine while every
other attribute (``denoise_step``, ``polish``, ``schedule`` ...)
delegates to the real model, so modification/extension code paths work
unchanged.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.diffusion.model import SamplerSteps
from repro.obs.trace import NULL_TRACER


class BatchedSamplingModel:
    """Per-request model client that routes ``sample`` through the engine.

    Quacks like the wrapped :class:`ConditionalDiffusionModel`: attribute
    access (``window``, ``fitted``, ``schedule``, ``denoise_step`` ...)
    delegates to the real model, so the agent's tools and the RePaint-style
    modification/extension operators run unmodified.  Only the hot path —
    full-trajectory sampling — is intercepted and coalesced across requests.
    ``client`` is anything with ``.model`` and ``.submit`` — in serving,
    the :class:`~repro.serve.engine.EngineClient` from ``ServeEngine.bind``.

    One client is created per request so its counters double as the
    request's sampling statistics.  ``source`` tags this client's jobs for
    the fair-share policy (e.g. one tag per tenant), and ``deadline``
    bounds how long its jobs may sit queued.  ``tracer`` attaches each
    sampling call's lifecycle (admission → queue wait → batch gather →
    execute) as spans under the caller's current trace, using the
    timestamps the engine stamped on the job — so the trace follows the
    work across the executor threads without the engine knowing about
    tracing at all.  Default: no tracing.

    ``job`` optionally attaches a lifecycle :class:`~repro.serve.jobs.Job`:
    each sampling call then starts with a cancel checkpoint (so a
    cancelled request stops before queueing more engine work) and the same
    engine-stamped hops recorded as tracer spans are mirrored into the
    job's ``engine_events`` — one record, two views.
    """

    def __init__(
        self,
        client,
        source: Optional[str] = None,
        deadline: Optional[float] = None,
        tracer=None,
        job=None,
    ):
        self._client = client
        self._model = client.model
        self._source = source
        self._deadline = deadline
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._job = job
        # One client is usually driven by one request thread, but nothing
        # enforces that — operator code shares a client across threads
        # (and the hammer test does, on purpose).
        # ``+=`` on these counters is not atomic under free-threading, so
        # accumulation takes this lock.
        self._stats_lock = threading.Lock()
        self.queue_wait_seconds = 0.0
        self.sample_jobs = 0
        self.samples = 0
        self.degraded_jobs = 0
        self.batch_sizes: List[int] = []

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def sample(
        self,
        count: int,
        condition: Optional[int],
        rng: np.random.Generator,
        shape: Optional[Tuple[int, int]] = None,
        sampler_steps: SamplerSteps = None,
    ) -> np.ndarray:
        """Batched stand-in for ``ConditionalDiffusionModel.sample``."""
        if self._job is not None:
            # Cancel checkpoint: a cancelled request must not queue more
            # engine work (raises JobCancelled).
            self._job.check_cancelled()
        with self._tracer.span("sample", count=int(count)):
            submit_started = time.perf_counter()
            job = self._client.submit(
                count,
                condition,
                shape=shape,
                # The job seed is drawn from the caller's stream, so a
                # request with a fixed base seed submits a reproducible
                # seed sequence.
                seed=int(rng.integers(0, 2**31 - 1)),
                sampler_steps=sampler_steps,
                source=self._source,
                deadline=self._deadline,
            )
            admitted_at = time.perf_counter()
            self._tracer.record("admission", submit_started, admitted_at)
            if self._job is not None:
                self._job.record_engine(
                    "admission", submit_started, admitted_at,
                    count=int(count),
                )
            result = job.result()
            # Attach the engine-side hops from the timestamps the workers
            # stamped on the job (they ran on other threads).
            if job.selected_at > 0:
                self._tracer.record(
                    "queue_wait", job.submitted_at, job.selected_at
                )
                if self._job is not None:
                    self._job.record_engine(
                        "queue_wait", job.submitted_at, job.selected_at
                    )
            if job.exec_started_at > 0:
                self._tracer.record(
                    "batch_gather", job.selected_at, job.exec_started_at,
                    batch_samples=job.batch_samples,
                )
                self._tracer.record(
                    "execute", job.exec_started_at, job.exec_ended_at,
                )
                if self._job is not None:
                    self._job.record_engine(
                        "batch_gather", job.selected_at, job.exec_started_at,
                        batch_samples=job.batch_samples,
                    )
                    self._job.record_engine(
                        "execute", job.exec_started_at, job.exec_ended_at
                    )
            if job.degrade_level > 0:
                # The adaptive policy traded this job's sampler quality
                # for latency; surface that in the trace and the
                # lifecycle record so the response can report it.
                self._tracer.record(
                    "degraded", job.selected_at, job.exec_ended_at,
                    level=job.degrade_level,
                    sampler_steps=str(job.sampler_steps),
                    requested=str(job.requested_sampler_steps),
                )
                if self._job is not None:
                    self._job.record_engine(
                        "degraded", job.selected_at, job.exec_ended_at,
                        level=job.degrade_level,
                        sampler_steps=str(job.sampler_steps),
                        requested=str(job.requested_sampler_steps),
                    )
        with self._stats_lock:
            self.queue_wait_seconds += job.queue_wait
            self.sample_jobs += 1
            self.samples += int(count)
            if job.degrade_level > 0:
                self.degraded_jobs += 1
            self.batch_sizes.append(job.batch_samples)
        return result


__all__ = ["BatchedSamplingModel"]
