"""The serving engine: admission -> selection -> executor, for one model.

``ServeEngine`` serves the one fitted model it is built with, in three
layers:

1. **Admission** — a bounded request queue.  ``queue_limit`` caps the
   number of queued jobs; when full, :meth:`ServeEngine.submit` fast-fails
   with :class:`QueueFullError` instead of growing without bound.  Jobs may
   carry a deadline; a job still queued past its deadline fails with
   :class:`DeadlineExpiredError` rather than occupying a trajectory a
   caller has already given up on.
2. **Selection** — one rule, fair share: FIFO within a request *source*,
   sources taking turns, so a bulk client cannot starve interactive ones
   (with one source it is the classic gather-window FIFO prefix).  An
   optional :class:`~repro.tune.controller.AdaptiveController` steers it
   (the ``adaptive`` policy): under queue pressure it degrades the
   selected jobs' step schedules and widens the gather window.
3. **Executor** — one in-process thread gathers a batch and runs its
   trajectories, one batch after another.  ``stop`` drains gracefully,
   with three lifecycle guarantees: submit-after-stop raises, restart
   works, and nothing ever hangs.

The engine owns its lifecycle (``start`` / ``stop`` or ``with engine:``).
:class:`~repro.serve.batching.BatchedSamplingModel` wraps it as a drop-in
model for the agent's tools.

Every scheduling decision takes its instant as a plain ``now`` argument
(controller ticks, planning, load snapshots), so the offline tuner
(:func:`repro.tune.simulate.simulate_trial`) replays traffic through an
unstarted engine on virtual time.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.diffusion.model import SamplerSteps
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    bucket_percentile,
    default_metrics,
)
from repro.serve.stats import BatchRecord, BatchTotals, EngineStats
from repro.tune.controller import AdaptiveController, EngineLoadSnapshot

#: Batch records an engine keeps for ``recent_records``/``batch_records``;
#: ``stats()`` reads running totals over every batch, so a long-lived
#: engine's history stays this size.
BATCH_RECORD_RING = 1024


class EngineError(RuntimeError):
    """Base class of the engine's typed failure modes.

    Every subclass carries a stable machine-readable ``code`` so wire
    protocols and clients key on the code, never the message text.
    """

    code = "internal"


class QueueFullError(EngineError):
    """Admission rejected a job: the bounded queue is at ``queue_limit``.

    The backpressure signal of the serving engine — callers should shed
    load or retry later instead of queueing unboundedly.
    """

    code = "queue_full"


class DeadlineExpiredError(EngineError):
    """A job's deadline passed while it was still queued."""

    code = "deadline_expired"


# ---------------------------------------------------------------------------
# Jobs


class EngineJob:
    """One sampling job inside the engine (the unit selection sees).

    Built by :meth:`ServeEngine.submit`, which returns it as the caller's
    handle: ``result()`` waits for the samples, and the engine stamps the
    hop timestamps (``selected_at``, ``exec_started_at`` ...) and
    ``batch_samples`` on it as the job moves through the layers.
    """

    __slots__ = (
        "count",
        "condition",
        "shape",
        "seed",
        "sampler_steps",
        "source",
        "deadline",
        "submitted_at",
        "future",
        "queue_wait",
        "batch_samples",
        "selected_at",
        "exec_started_at",
        "exec_ended_at",
        "requested_sampler_steps",
        "degrade_level",
        "engine",
    )

    def __init__(
        self,
        count: int,
        condition: Optional[int],
        shape: Tuple[int, int],
        seed: int = 0,
        sampler_steps: SamplerSteps = None,
        source: str = "default",
        deadline: Optional[float] = None,
    ):
        # The selection rule groups jobs by source: a bad tag must fail
        # the submitter here, not the worker thread at selection.
        if not isinstance(source, str) or not source:
            raise ValueError(
                f"source must be a non-empty string, got {source!r}"
            )
        self.count = int(count)
        self.condition = condition
        self.shape = tuple(shape)
        self.seed = int(seed)
        self.sampler_steps = sampler_steps
        self.source = source
        #: absolute ``time.perf_counter`` instant after which the job is
        #: dead on arrival at a worker (``None`` = no deadline)
        self.deadline = deadline
        self.submitted_at = time.perf_counter()
        self.future: "Future[np.ndarray]" = Future()
        self.queue_wait = 0.0
        self.batch_samples = 0  # total samples of the batch this job rode in
        # Lifecycle timestamps (perf_counter) stamped by the engine, the
        # substrate per-request traces are built from: when selection
        # picked this job, and when its trajectory started/finished.
        self.selected_at = 0.0
        self.exec_started_at = 0.0
        self.exec_ended_at = 0.0
        # Adaptive provenance: when the controller degrades a job's step
        # schedule at selection time, the original ask and the controller
        # level land here so the response can report it.
        self.requested_sampler_steps: SamplerSteps = None
        self.degrade_level = 0
        #: the engine that admitted the job (``None`` until admitted)
        self.engine: Optional["ServeEngine"] = None

    @property
    def batch_key(self) -> Tuple:
        """Trajectory compatibility: jobs coalesce only within one key."""
        return (self.shape, self.sampler_steps)

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until a worker delivers this job's samples.

        While it blocks, the caller counts toward the admitting engine's
        gather rule (see :meth:`ServeEngine.request_started`).
        """
        if self.engine is None:
            return self.future.result(timeout=timeout)
        return self.engine._wait_for(self, timeout)


class TrajectoryPlan:
    """One fully-derived trajectory: the unit a worker runs.

    :meth:`ServeEngine._plan` turns a selected batch into plans — jobs
    grouped by trajectory key, re-sorted into arrival order, conditions
    stacked and seeds collected — so a trajectory's samples depend only on
    its riders.
    """

    __slots__ = ("jobs", "shape", "sampler_steps", "conditions", "seeds")

    def __init__(
        self,
        jobs: List["EngineJob"],
        shape: Tuple[int, int],
        sampler_steps: SamplerSteps,
        conditions: List[Optional[int]],
        seeds: List[int],
    ):
        self.jobs = jobs
        self.shape = shape
        self.sampler_steps = sampler_steps
        self.conditions = conditions
        self.seeds = seeds

    @property
    def samples(self) -> int:
        return len(self.conditions)


# ---------------------------------------------------------------------------
# The engine


class ServeEngine:
    """Single-worker, fair-share sampling engine for one model.

    Args:
        model: the fitted back-end every job samples from (anything with
            ``window`` and ``sample_batch``).
        sampler_steps: step schedule of jobs submitted without one
            (``None`` = the model's default).
        controller: an :class:`~repro.tune.controller.AdaptiveController`
            steering selection (the ``adaptive`` policy); ``None`` runs
            the plain ``fair_share`` rule.
        queue_limit: max queued jobs before :meth:`submit` fast-fails with
            :class:`QueueFullError` (``None`` = unbounded).
        gather_window: seconds the worker keeps collecting after it sees the
            first queued job, giving concurrent submitters a chance to
            coalesce.  Skipped (or ended early) while draining, once a full
            batch is queued, or when no companion can arrive: every request
            opened with :meth:`request_started` is already blocked in
            :meth:`EngineJob.result` on a job it submitted.  Callers that open no
            requests (raw submitters, the tuner's simulation) always gather.
        max_batch: sample budget per selected batch.
        deadline: default per-job deadline in seconds from submission
            (``None`` = jobs never expire).  Per-job deadlines override it.
        metrics: :class:`~repro.obs.metrics.MetricsRegistry` the engine
            reports into (``None`` = the process-wide default registry;
            pass :data:`~repro.obs.metrics.NULL_METRICS` to disable).
    """

    def __init__(
        self,
        model,
        sampler_steps: SamplerSteps = None,
        controller: Optional[AdaptiveController] = None,
        queue_limit: Optional[int] = None,
        gather_window: float = 0.02,
        max_batch: int = 64,
        deadline: Optional[float] = None,
        metrics=None,
    ):
        if gather_window < 0:
            raise ValueError("gather_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None)")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds (or None)")
        self.model = model
        self.sampler_steps = sampler_steps
        self.controller = controller
        #: the ``policy`` label of the engine's metrics and stats
        self.policy = "fair_share" if controller is None else "adaptive"
        self.queue_limit = queue_limit
        self.gather_window = float(gather_window)
        # The controller widens the window from this baseline.
        self._base_gather = self.gather_window
        self.max_batch = int(max_batch)
        self.deadline = deadline

        # -- admission queue (layer 1) --------------------------------
        self._jobs: List[EngineJob] = []
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)

        # -- executor (layer 3) ---------------------------------------
        self._thread: Optional[threading.Thread] = None
        self._draining = threading.Event()  # graceful: finish the queue
        self._halt = threading.Event()  # hard: finish in-flight, fail rest
        self._stopped = False  # a stopped engine refuses new jobs
        # Serializes start/stop/submit: a submit cannot slip a job between
        # a stop()'s drain and its stopped-flag flip, and a stop()'s sweep
        # cannot steal jobs from a concurrently restarted engine.  The
        # worker never takes this lock, so joins cannot deadlock.
        self._lifecycle_lock = threading.Lock()

        # -- observability --------------------------------------------
        # The last BATCH_RECORD_RING batch records, and running totals
        # over every batch.
        self._records: "deque[BatchRecord]" = deque(maxlen=BATCH_RECORD_RING)
        self._totals = BatchTotals()
        self._records_lock = threading.Lock()
        self._submitted = 0
        self._rejected = 0
        self._expired = 0
        # The gather rule's counts (queue lock): requests open between
        # request_started/request_finished, and callers blocked in
        # EngineJob.result.
        self._requests = 0
        self._blocked = 0
        self.metrics = metrics if metrics is not None else default_metrics()
        m = self.metrics
        self._m_queue_depth = m.gauge(
            "repro_queue_depth", "Jobs currently queued for batching"
        )
        self._m_submitted = m.counter(
            "repro_jobs_submitted_total", "Jobs admitted into the engine"
        )
        self._m_rejected = m.counter(
            "repro_jobs_rejected_total",
            "Jobs fast-failed by admission backpressure",
        )
        self._m_expired = m.counter(
            "repro_jobs_expired_total",
            "Jobs whose deadline passed while still queued",
        )
        self._m_batch_size = m.histogram(
            "repro_batch_size_samples",
            "Samples per executed batch",
            buckets=DEFAULT_SIZE_BUCKETS,
            labels=("policy",),
        )
        self._m_gather_latency = m.histogram(
            "repro_gather_latency_seconds",
            "Worker wait from entering the gather loop to batch selection",
            labels=("policy",),
        )
        self._m_batch_latency = m.histogram(
            "repro_batch_latency_seconds",
            "Batched trajectory execution wall time",
            labels=("policy",),
        )
        self._m_queue_wait = m.histogram(
            "repro_queue_wait_seconds",
            "Per-job time from submission to batch selection",
        )
        self._m_worker_busy = m.counter(
            "repro_worker_busy_seconds_total",
            "Summed trajectory execution time of the executor worker",
            labels=("worker",),
        )
        # Self-tuning instruments (stay at zero without a controller).
        self._m_adaptive_transitions = m.counter(
            "repro_adaptive_degrade_total",
            "Adaptive-policy level transitions (quality degrade/restore)",
            labels=("direction",),
        )
        self._m_adaptive_level = m.gauge(
            "repro_adaptive_level",
            "Current adaptive-policy degrade level (0 = full quality)",
        )

        # -- load-snapshot window state (read by the controller) ------
        # The engine's own queue-wait histogram, on the default latency
        # buckets whatever the metrics registry is: the controller reads
        # the same signal with obs on or off, and the same one the tuner's
        # simulation scored.  Snapshots difference its bucket counts, and
        # derive a busy fraction from the running busy total.
        self._queue_waits = Histogram("engine_queue_wait_seconds")
        self._load_prev: Optional[Tuple] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ServeEngine":
        with self._lifecycle_lock:
            if self.running:
                return self
            self._draining.clear()
            self._halt.clear()
            self._stopped = False
            self._thread = threading.Thread(
                target=self._worker_loop,
                name="repro-serve-engine",
                daemon=True,
            )
            self._thread.start()
            return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain queued jobs, then stop the worker.

        Graceful first: the worker keeps executing until the queue is
        empty (skipping gather windows), then exits.  If the drain exceeds
        ``timeout`` the engine is halted — the worker finishes its
        in-flight batch and every job still queued fails rather than hang
        its caller.  ``running`` only flips once the worker is actually
        dead, so a restart can never race a live worker.
        """
        with self._lifecycle_lock:
            if not self.running:
                self._thread = None
                return
            self._draining.set()
            with self._has_work:
                self._has_work.notify_all()
            self._thread.join(timeout)
            if self.running:
                self._halt.set()
                with self._has_work:
                    self._has_work.notify_all()
                self._thread.join(timeout)
            if not self.running:
                self._thread = None
                self._stopped = True
                # Hard-halt case: sweep whatever the worker never drained.
                self._fail_pending("engine stopped before job ran")

    def __enter__(self) -> "ServeEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the gather rule -----------------------------------------------

    def request_started(self) -> None:
        """Open a caller request that may submit jobs.

        The service opens one per admitted request it can run and closes
        it with :meth:`request_finished` once the request is done, whatever
        its outcome.  While at least one request is open, the worker gathers
        only if some open request is not yet blocked in
        :meth:`EngineJob.result`:
        with all of them blocked, no companion can arrive before a job
        completes, so the window would be spent idle.
        """
        with self._has_work:
            self._requests += 1

    def request_finished(self) -> None:
        """Close a request opened with :meth:`request_started`."""
        with self._has_work:
            self._requests -= 1
            # The rest may all be waiting now: end any gather in progress.
            self._has_work.notify_all()

    def _wait_for(
        self, job: EngineJob, timeout: Optional[float]
    ) -> np.ndarray:
        """:meth:`EngineJob.result` of a job this engine admitted: block on
        it, counted as a blocked caller for the gather rule.

        The count rises only once the job is queued (until then the caller
        merely keeps the worker gathering) and falls before the caller can
        submit again.  Callers that open no requests (raw submitters) count
        too, which changes nothing while no request is open.
        """
        with self._has_work:
            self._blocked += 1
            # Every open request may be blocked now: end any gather.
            self._has_work.notify_all()
        try:
            return job.future.result(timeout=timeout)
        finally:
            with self._has_work:
                self._blocked -= 1

    def _gathering_locked(self) -> bool:
        """Whether the worker holding queued work should keep waiting for
        companions (queue lock held): the gather window is open, the engine
        is neither draining nor halting, the queue holds less than a full
        batch, and some open request could still submit (see
        :meth:`request_started`).  The tuner's simulation asks the same
        question of its unstarted engine."""
        return (
            self.gather_window > 0
            and not self._draining.is_set()
            and not self._halt.is_set()
            and self._queued_samples_locked() < self.max_batch
            and not 0 < self._requests <= self._blocked
        )

    # -- admission (layer 1) -------------------------------------------

    def submit(
        self,
        count: int,
        condition: Optional[int],
        shape: Optional[Tuple[int, int]] = None,
        seed: int = 0,
        sampler_steps: SamplerSteps = None,
        source: str = "default",
        deadline: Optional[float] = None,
    ) -> EngineJob:
        """Queue a sampling job for the engine's model; returns its handle.

        ``shape`` defaults to the model's window and ``sampler_steps`` to
        the engine's.  ``deadline`` is relative seconds from now; jobs
        still queued past it fail with :class:`DeadlineExpiredError`.  A
        full admission queue raises :class:`QueueFullError` immediately.
        """
        job = EngineJob(
            count=count,
            condition=condition,
            shape=tuple(shape) if shape else (self.model.window,) * 2,
            seed=seed,
            sampler_steps=(
                sampler_steps
                if sampler_steps is not None
                else self.sampler_steps
            ),
            source=source,
        )
        if deadline is not None:
            if deadline <= 0:
                raise ValueError("deadline must be > 0 seconds")
            job.deadline = job.submitted_at + deadline
        return self.submit_job(job)

    def submit_job(self, job: EngineJob) -> EngineJob:
        """Admit a fully-formed job into the queue (or fast-fail)."""
        if job.count < 1:
            raise ValueError("count must be >= 1")
        if job.deadline is None and self.deadline is not None:
            job.deadline = job.submitted_at + self.deadline
        with self._lifecycle_lock:
            if self._stopped and not self.running:
                raise RuntimeError(
                    "engine is stopped; call start() before submitting"
                )
            with self._has_work:
                if (
                    self.queue_limit is not None
                    and len(self._jobs) >= self.queue_limit
                ):
                    self._rejected += 1
                    self._m_rejected.inc()
                    raise QueueFullError(
                        f"admission queue is full ({len(self._jobs)} queued, "
                        f"queue_limit={self.queue_limit}); retry later"
                    )
                job.engine = self
                self._jobs.append(job)
                self._submitted += 1
                self._m_submitted.inc()
                self._m_queue_depth.set(len(self._jobs))
                self._has_work.notify()
        return job

    def _fail_pending(self, message: str) -> None:
        """Fail every queued job so no caller hangs on ``result()``."""
        with self._has_work:
            leftovers, self._jobs = self._jobs, []
            self._m_queue_depth.set(0)
        for job in leftovers:
            if not job.future.done():
                try:
                    job.future.set_exception(RuntimeError(message))
                except Exception:  # already resolved by a concurrent sweep
                    pass

    def _expire_locked(self, now: float) -> List[EngineJob]:
        """Partition out deadline-expired jobs (queue lock held)."""
        if not any(job.deadline is not None for job in self._jobs):
            return []
        expired = [
            job
            for job in self._jobs
            if job.deadline is not None and now > job.deadline
        ]
        if expired:
            self._jobs = [job for job in self._jobs if job not in expired]
            self._expired += len(expired)
            self._m_expired.inc(len(expired))
            self._m_queue_depth.set(len(self._jobs))
        return expired

    @staticmethod
    def _fail_expired(expired: Sequence[EngineJob]) -> None:
        for job in expired:
            if not job.future.done():
                try:
                    job.future.set_exception(
                        DeadlineExpiredError(
                            f"job deadline expired after "
                            f"{time.perf_counter() - job.submitted_at:.3f}s "
                            "in queue"
                        )
                    )
                except Exception:
                    pass

    # -- selection (layer 2) -------------------------------------------

    def _tick_locked(self, now: float) -> None:
        """The controller's load tick at ``now`` (queue lock held).

        The worker ticks before each selection *and* on its idle wait
        loop, so the controller keeps seeing the (calm) queue while
        nothing arrives and restores full quality after a spike drains,
        instead of freezing at its last degraded level.  A level change
        is counted (``repro_adaptive_degrade_total{direction}``), exported
        (``repro_adaptive_level``) and widens or narrows the gather
        window.  A no-op without a controller.
        """
        ctrl = self.controller
        if ctrl is None or not ctrl.due(now):
            return
        before = ctrl.level
        level = ctrl.observe(self._load_snapshot_locked(now))
        if level == before:
            return
        self._m_adaptive_transitions.inc(
            direction="degrade" if level > before else "restore"
        )
        self._m_adaptive_level.set(level)
        # Wider gathering while degraded, but never wide enough to spend
        # the SLO budget on waiting: cap at a quarter of the SLO.
        base = self._base_gather
        cap = max(base, 0.25 * ctrl.config.slo_p95)
        self.gather_window = min(base * ctrl.gather_scale(), cap)

    def _select_locked(self) -> List[EngineJob]:
        """Pick and dequeue the next batch (queue lock held).

        Fair share: jobs are grouped by their ``source`` tag and sources
        are ordered by their oldest queued job; the batch is filled one
        job per source per round, each source's jobs in arrival order,
        until ``max_batch`` samples are reached (the last job may
        overshoot it).  A bulk client with a hundred queued jobs therefore
        shares every batch with the interactive client that submitted
        one.  The pick depends only on the queue, so no per-source state
        outlives the jobs it described.  While the controller is degraded,
        each picked job's ``sampler_steps`` is rewritten to the level's
        schedule (never below the configured floor, never above the ask),
        and the job keeps its original ask in ``requested_sampler_steps``.
        """
        # Dict insertion order is first-arrival order: sources line up
        # by their oldest queued job.
        by_source: Dict[str, deque] = {}
        for job in self._jobs:
            by_source.setdefault(job.source, deque()).append(job)
        queues = list(by_source.values())
        picked: List[EngineJob] = []
        total = 0
        while queues and total < self.max_batch:
            for queue in queues:
                job = queue.popleft()
                picked.append(job)
                total += job.count
                if total >= self.max_batch:
                    break
            queues = [queue for queue in queues if queue]
        chosen = set(id(job) for job in picked)
        self._jobs = [job for job in self._jobs if id(job) not in chosen]
        self._m_queue_depth.set(len(self._jobs))
        ctrl = self.controller
        if ctrl is not None and ctrl.level > 0:
            for job in picked:
                effective = ctrl.effective_steps(job.sampler_steps)
                if effective != job.sampler_steps:
                    job.requested_sampler_steps = job.sampler_steps
                    job.sampler_steps = effective
                    job.degrade_level = ctrl.level
        return picked

    # -- executor (layer 3) --------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                break
            self._execute(batch)
        if self._halt.is_set():
            self._fail_pending("engine stopped before job ran")

    def _queued_samples_locked(self) -> int:
        return sum(job.count for job in self._jobs)

    def _next_batch(self) -> Optional[List[EngineJob]]:
        """Block for work, honor the gather window, select a batch.

        Returns ``None`` when the worker should exit: the engine is
        halting, or it is draining and the queue is empty.
        """
        while True:
            expired: List[EngineJob] = []
            selected: Optional[List[EngineJob]] = None
            with self._has_work:
                while not self._jobs:
                    if self._halt.is_set() or self._draining.is_set():
                        return None
                    # Idle tick: a degraded level must not outlive the
                    # spike that caused it.
                    self._tick_locked(time.perf_counter())
                    self._has_work.wait(timeout=0.05)
                # Gather latency starts the instant the worker first sees
                # queued work, so idle blocking above never counts.
                saw_work = time.perf_counter()
                self._tick_locked(saw_work)
                expired.extend(self._expire_locked(time.perf_counter()))
                if self._jobs:
                    if self._gathering_locked():
                        gather_until = time.perf_counter() + self.gather_window
                        while self._gathering_locked():
                            remaining = gather_until - time.perf_counter()
                            if remaining <= 0:
                                break
                            self._has_work.wait(timeout=remaining)
                        expired.extend(
                            self._expire_locked(time.perf_counter())
                        )
                    if self._jobs:
                        selected = self._select_locked()
            # Futures resolve outside the queue lock: a caller woken by
            # set_exception must never contend with admission.
            self._fail_expired(expired)
            if selected:
                self._m_gather_latency.observe(
                    time.perf_counter() - saw_work, policy=self.policy
                )
                return selected
            # Everything expired — loop.

    # -- execution (one trajectory per compatible group) ----------------

    def _plan(
        self, jobs: Sequence[EngineJob], now: float
    ) -> List[TrajectoryPlan]:
        """Turn a batch selected at ``now`` into trajectory plans.

        Stamps selection timestamps, groups jobs by trajectory key, and
        derives each group's stacked conditions + seed list.
        """
        for job in jobs:
            job.queue_wait = now - job.submitted_at
            job.selected_at = now
            self._m_queue_wait.observe(job.queue_wait)
            self._queue_waits.observe(job.queue_wait)
        groups: "OrderedDict[Tuple, List[EngineJob]]" = OrderedDict()
        for job in jobs:
            groups.setdefault(job.batch_key, []).append(job)
        plans: List[TrajectoryPlan] = []
        for (shape, steps), group in groups.items():
            # A trajectory's riders always line up in arrival order, so the
            # stacked conditions and the derived seed sequence — and hence
            # each job's samples — do not depend on the order selection
            # happened to pick the jobs in (fair share interleaves sources).
            group.sort(key=lambda job: job.submitted_at)
            conditions: List[Optional[int]] = []
            for job in group:
                conditions.extend([job.condition] * job.count)
            plans.append(
                TrajectoryPlan(
                    jobs=group,
                    shape=shape,
                    sampler_steps=steps,
                    conditions=conditions,
                    seeds=[job.seed % (2**32) for job in group],
                )
            )
        return plans

    def _execute(self, jobs: Sequence[EngineJob]) -> None:
        """Run a selected batch's trajectories on the calling thread."""
        for plan in self._plan(jobs, time.perf_counter()):
            self._run_plan_local(plan)

    def _run_plan_local(self, plan: TrajectoryPlan) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(plan.seeds))
        kwargs = (
            {"sampler_steps": plan.sampler_steps}
            if plan.sampler_steps is not None
            else {}
        )
        started = time.perf_counter()
        try:
            faults.fire("engine.execute")
            samples = self.model.sample_batch(
                plan.conditions, rng, shape=plan.shape, **kwargs
            )
        except Exception as exc:  # propagate to every waiting caller
            self._fail_plan(plan, exc)
            return
        wall = time.perf_counter() - started
        self._account(plan, started, wall)
        offset = 0
        for job in plan.jobs:
            job.batch_samples = plan.samples
            job.exec_started_at = started
            job.exec_ended_at = started + wall
            job.future.set_result(samples[offset : offset + job.count])
            offset += job.count

    def _account(
        self, plan: TrajectoryPlan, started: float, wall: float
    ) -> None:
        """Book a trajectory that ran ``wall`` seconds from ``started``:
        its batch record in the ring, the running totals (whose busy
        seconds the load snapshot reads) and the batch histograms."""
        record = BatchRecord(
            jobs=len(plan.jobs),
            samples=plan.samples,
            shape=plan.shape,
            wall_seconds=wall,
            policy=self.policy,
            started_at=started,
        )
        with self._records_lock:
            self._records.append(record)
            self._totals.add(record)
        self._m_batch_size.observe(plan.samples, policy=self.policy)
        self._m_batch_latency.observe(wall, policy=self.policy)
        # One worker: the label stays for scrapers keyed on a label set.
        self._m_worker_busy.inc(wall, worker="0")

    @staticmethod
    def _fail_plan(plan: TrajectoryPlan, exc: BaseException) -> None:
        """Fail every rider of a plan (its execution raised)."""
        for job in plan.jobs:
            if not job.future.done():
                try:
                    job.future.set_exception(exc)
                except Exception:
                    pass

    # -- observability -------------------------------------------------

    def _load_snapshot_locked(
        self, now: Optional[float] = None
    ) -> EngineLoadSnapshot:
        """Build a load snapshot; the caller holds the queue lock.

        ``queue_wait_p95`` and ``busy_fraction`` are *windowed*: derived
        from the deltas of the engine's own cumulative queue-wait bucket
        counts and the busy-seconds total since the previous snapshot, so
        the signals decay as soon as pressure does (the cumulative
        histogram alone would stay high long after a spike).  Neither
        reads the metrics registry, so a disabled registry changes no
        signal.
        """
        if now is None:
            now = time.perf_counter()
        depth = len(self._jobs)
        queued_samples = self._queued_samples_locked()
        oldest_wait = (
            now - min(job.submitted_at for job in self._jobs)
            if self._jobs
            else 0.0
        )
        counts = self._queue_waits.raw_counts()
        with self._records_lock:
            busy_total = self._totals.busy_seconds
        p95 = 0.0
        busy_fraction = 0.0
        if self._load_prev is not None:
            prev_at, prev_counts, prev_busy = self._load_prev
            window = now - prev_at
            if window > 0:
                busy_fraction = min(
                    1.0, max(0.0, busy_total - prev_busy) / window
                )
            if counts is not None and prev_counts is not None:
                delta = [c - p for c, p in zip(counts, prev_counts)]
                if sum(delta) > 0:
                    p95 = bucket_percentile(
                        self._queue_waits.bounds, delta, 95.0
                    )
        self._load_prev = (now, counts, busy_total)
        return EngineLoadSnapshot(
            at=now,
            queue_depth=depth,
            queued_samples=queued_samples,
            oldest_wait=oldest_wait,
            queue_wait_p95=p95,
            busy_fraction=busy_fraction,
        )

    def load_snapshot(self) -> EngineLoadSnapshot:
        """A thread-consistent view of current engine load.

        Note: windowed fields share their delta baseline with the
        controller's ticks — external polling therefore narrows the
        windows the controller sees (harmless, but worth knowing when
        reading ``queue_wait_p95`` next to controller decisions).
        """
        with self._has_work:
            return self._load_snapshot_locked()

    @property
    def batch_records(self) -> List[BatchRecord]:
        """The most recent batch records (at most ``BATCH_RECORD_RING``),
        oldest first."""
        with self._records_lock:
            return list(self._records)

    def recent_records(self, n: int) -> List[BatchRecord]:
        """The last ``n >= 1`` batch records, oldest first, copying only
        those."""
        with self._records_lock:
            records = self._records
            return [records[i] for i in range(-min(n, len(records)), 0)]

    def stats(self) -> EngineStats:
        with self._has_work:
            queued = len(self._jobs)
            submitted = self._submitted
            rejected = self._rejected
            expired = self._expired
        with self._records_lock:
            scheduler = self._totals.stats()
        return EngineStats(
            scheduler=scheduler,
            policy=self.policy,
            queue_limit=self.queue_limit,
            queued=queued,
            submitted=submitted,
            rejected=rejected,
            expired=expired,
        )
