"""The per-request model client that routes sampling through the engine.

The throughput lever of the serving subsystem: many concurrent requests
each ask for a handful of samples, and sampling cost is dominated by the
per-step walk of the reverse chain — which is almost as cheap for a
``(N, H, W)`` stack as for a single topology.  Compatible sampling jobs
(same topology shape; style conditions may differ freely, they chunk
inside the batched step) therefore coalesce into single calls of
:meth:`~repro.diffusion.model.ConditionalDiffusionModel.sample_batch`, so
N requests cost ~1 batched denoise trajectory instead of N.  Admission,
selection and the executor live in
:class:`~repro.serve.engine.ServeEngine`.

``BatchedSamplingModel`` wraps the engine as a drop-in stand-in for
the engine's fitted model: its ``sample`` rides the engine while every
other attribute (``denoise_step``, ``polish``, ``schedule`` ...)
delegates to the real model, so modification/extension code paths work
unchanged.  It keeps no books of its own: each engine hop is written once
into the request's lifecycle job, and the request's sampling statistics
(:meth:`~repro.serve.stats.RequestStats.from_job`) and spans
(:func:`~repro.obs.trace.job_spans`) are read back from there.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.diffusion.model import SamplerSteps


class BatchedSamplingModel:
    """Per-request model client that routes ``sample`` through the engine.

    Quacks like the wrapped :class:`ConditionalDiffusionModel`: attribute
    access (``window``, ``fitted``, ``schedule``, ``denoise_step`` ...)
    delegates to the real model, so the agent's tools and the RePaint-style
    modification/extension operators run unmodified.  Only the hot path —
    full-trajectory sampling — is intercepted and coalesced across requests.
    ``engine`` is anything with ``.model`` and ``.submit`` — in serving,
    the service's :class:`~repro.serve.engine.ServeEngine`.

    ``job`` is the request's lifecycle :class:`~repro.serve.jobs.Job`.
    Each sampling call starts with its cancel checkpoint (a cancelled
    request stops before queueing more engine work), then writes the
    call's engine hops into the job's ``engine_events``: ``admission`` as
    soon as the engine accepted the work, so a status poll during the
    queue wait sees it, then ``queue_wait``, ``batch_gather``, ``execute``
    (carrying the call's sample ``count``) and, when the adaptive policy
    cut the call's steps, ``degraded``, from the timestamps the engine
    stamped, so the request's trace follows the work onto the engine's
    worker thread without the engine knowing about tracing.  ``source``
    tags this client's jobs for the fair-share rule (e.g. one tag per
    tenant), and ``deadline`` bounds how long its jobs may sit queued.
    """

    def __init__(
        self,
        engine,
        job,
        source: str = "default",
        deadline: Optional[float] = None,
    ):
        self._engine = engine
        self._model = engine.model
        self._job = job
        self._source = source
        self._deadline = deadline

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
        # Cancel checkpoint: a cancelled request must not queue more
        # engine work (raises JobCancelled).
        job = self._job
        job.check_cancelled()
        count = int(count)
        submit_started = time.perf_counter()
        work = self._engine.submit(
            count,
            condition,
            shape=shape,
            # The job seed is drawn from the caller's stream, so a request
            # with a fixed base seed submits a reproducible seed sequence.
            seed=int(rng.integers(0, 2**31 - 1)),
            sampler_steps=sampler_steps,
            source=self._source,
            deadline=self._deadline,
        )
        job.record_engine(
            "admission", submit_started, time.perf_counter(), count=count
        )
        result = work.result()
        # The remaining hops come from the timestamps the engine's worker
        # stamped on the job (it ran on another thread).
        if work.selected_at > 0:
            job.record_engine(
                "queue_wait", work.submitted_at, work.selected_at
            )
        if work.exec_started_at > 0:
            job.record_engine(
                "batch_gather", work.selected_at, work.exec_started_at,
                batch_samples=work.batch_samples,
            )
            job.record_engine(
                "execute", work.exec_started_at, work.exec_ended_at,
                count=count,
            )
        if work.degrade_level > 0:
            # The adaptive policy traded this job's sampler quality for
            # latency; the record says so, with the original ask.
            job.record_engine(
                "degraded", work.selected_at, work.exec_ended_at,
                level=work.degrade_level,
                sampler_steps=str(work.sampler_steps),
                requested=str(work.requested_sampler_steps),
            )
        return result


__all__ = ["BatchedSamplingModel"]
