"""Job lifecycle state machine: one observable record per served request.

Every request entering the serving stack is tracked as a :class:`Job` — an
explicit state machine

    PENDING -> QUEUED -> RUNNING(stage) -> LEGALIZING -> PERSISTING
            -> {SUCCEEDED, FAILED, CANCELLED, EXPIRED}

with a monotonic transition log, per-stage progress events and engine-side
hop records (admission, queue wait, batch gather, execute).  The job is
the one place a served request's record is written; everything else
reads it:

- :class:`~repro.api.pipeline.PatternPipeline` enters each stage (a cancel
  checkpoint + state transition) and appends the
  :class:`~repro.obs.trace.StageTiming` that ``PipelineResult._record``
  built to ``stage_events`` — the same object ``PipelineResult.timings``
  holds.
- :class:`~repro.serve.batching.BatchedSamplingModel` writes each engine
  hop once, to ``engine_events`` and the tracer, from the timestamps the
  :class:`~repro.serve.engine.ServeEngine` worker stamped on the sampling
  job.  The request's sampling statistics
  (:meth:`~repro.serve.stats.RequestStats.from_job`) are read back from
  those events.
- :class:`~repro.serve.service.PatternService` owns the QUEUED/RUNNING
  edges and the terminal transition, mapping the engine's typed errors
  (:class:`~repro.serve.engine.QueueFullError`,
  :class:`~repro.serve.engine.DeadlineExpiredError`) to terminal states
  with stable machine-readable codes.
- :class:`JobTable` hooks every job's terminal edge — run, cancel and
  expiry, whoever triggers it — to count the terminal state, drop the
  active-jobs gauge and journal the record.

Cancellation is cooperative: :meth:`Job.request_cancel` on a queued job
cancels it outright (it never executes); on a running job it raises
:class:`JobCancelled` at the next checkpoint — every pipeline stage entry
and every engine sampling submission checks.  Terminal states are
absorbing: double-cancel and cancel-after-success are idempotent no-ops.

:class:`JobTable` is the thread-safe registry behind the HTTP API:
ids -> jobs, with TTL-bounded retention of terminal jobs so a long-lived
server does not accumulate every job it ever ran (a purged job releases
its response and result with it).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import re
import secrets
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import StageTiming

_log = logging.getLogger("repro.serve.jobs")

# -- states -----------------------------------------------------------------

PENDING = "PENDING"  # created, not yet admitted to the worker pool
QUEUED = "QUEUED"  # admitted, waiting for a request worker
RUNNING = "RUNNING"  # executing (``stage`` names the active stage)
LEGALIZING = "LEGALIZING"  # the legalize stage (DRC + constraint solve)
PERSISTING = "PERSISTING"  # writing the produced library to the store
SUCCEEDED = "SUCCEEDED"
FAILED = "FAILED"
CANCELLED = "CANCELLED"
EXPIRED = "EXPIRED"  # deadline passed (queued too long, or mid-flight)

TERMINAL_STATES = frozenset({SUCCEEDED, FAILED, CANCELLED, EXPIRED})
ACTIVE_STATES = frozenset({RUNNING, LEGALIZING, PERSISTING})
JOB_STATES = (
    PENDING,
    QUEUED,
    RUNNING,
    LEGALIZING,
    PERSISTING,
    SUCCEEDED,
    FAILED,
    CANCELLED,
    EXPIRED,
)

#: Legal forward edges of the state machine.  Active states may move
#: freely among themselves (sample -> legalize -> score -> persist revisits
#: RUNNING after LEGALIZING); terminal states have no outgoing edges.
_ALLOWED: Dict[str, frozenset] = {
    PENDING: frozenset({QUEUED}) | ACTIVE_STATES | TERMINAL_STATES,
    QUEUED: ACTIVE_STATES | TERMINAL_STATES,
    RUNNING: ACTIVE_STATES | TERMINAL_STATES,
    LEGALIZING: ACTIVE_STATES | TERMINAL_STATES,
    PERSISTING: ACTIVE_STATES | TERMINAL_STATES,
    SUCCEEDED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
    EXPIRED: frozenset(),
}

#: Pipeline stages that are first-class states; everything else is RUNNING.
_STAGE_STATES = {"legalize": LEGALIZING, "persist": PERSISTING}

# -- error codes ------------------------------------------------------------

CODE_QUEUE_FULL = "queue_full"
CODE_DEADLINE_EXPIRED = "deadline_expired"
CODE_CANCELLED = "cancelled"
CODE_INVALID_REQUEST = "invalid_request"
CODE_LEGALIZE_FAILED = "legalize_failed"
CODE_SHUTDOWN = "shutdown"
CODE_SERVER_RESTART = "server_restart"
CODE_INTERNAL = "internal"

ERROR_CODES = (
    CODE_QUEUE_FULL,
    CODE_DEADLINE_EXPIRED,
    CODE_CANCELLED,
    CODE_INVALID_REQUEST,
    CODE_LEGALIZE_FAILED,
    CODE_SHUTDOWN,
    CODE_SERVER_RESTART,
    CODE_INTERNAL,
)


class JobError(RuntimeError):
    """Base class of job lifecycle errors."""


class JobStateError(JobError):
    """An illegal state-machine edge was requested (a programming error,
    never a data-dependent condition)."""


class JobCancelled(JobError):
    """Raised at a cancel checkpoint after :meth:`Job.request_cancel`.

    Control flow, not a fault: the service maps it to the CANCELLED
    terminal state, and the agent's tool dispatcher re-raises it instead
    of converting it to a tool failure.
    """

    code = CODE_CANCELLED


def error_code_for(exc: BaseException, state: Optional[str] = None) -> str:
    """Stable machine-readable code for a request failure.

    Typed exceptions carry their own ``code`` attribute (the engine's
    :class:`QueueFullError`/:class:`DeadlineExpiredError` and
    :class:`JobCancelled`); bad-input errors map to ``invalid_request``;
    anything else raised while the job was in the LEGALIZING state is a
    ``legalize_failed``; the rest is ``internal``.
    """
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code:
        return code
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return CODE_INVALID_REQUEST
    if state == LEGALIZING:
        return CODE_LEGALIZE_FAILED
    return CODE_INTERNAL


def terminal_state_for(code: str) -> str:
    """The terminal state a failure code lands in."""
    if code == CODE_CANCELLED or code == CODE_SHUTDOWN:
        return CANCELLED
    if code == CODE_DEADLINE_EXPIRED:
        return EXPIRED
    return FAILED


# -- records ----------------------------------------------------------------


@dataclass
class JobTransition:
    """One edge of a job's state machine (``t`` is seconds since creation)."""

    state: str
    t: float
    stage: Optional[str] = None
    detail: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        out: Dict = {"state": self.state, "t": round(self.t, 6)}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


@dataclass
class EngineEvent:
    """One engine-side hop of the job's sampling work, built from the
    timestamps the executor worker stamped on the engine job."""

    kind: str  # admission | queue_wait | batch_gather | execute
    t: float  # offset from job creation, seconds
    seconds: float
    detail: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        out: Dict = {
            "kind": self.kind,
            "t": round(self.t, 6),
            "seconds": round(self.seconds, 6),
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


# -- the job ----------------------------------------------------------------


class Job:
    """One tracked request: state machine + transition log + progress.

    Thread-safe: the request worker, the engine-event writer and any
    number of status/cancel callers may touch it concurrently.  The
    transition log is monotonic by construction (timestamps are clamped to
    never run backwards, appends happen under the lock).
    """

    def __init__(
        self,
        job_id: str,
        request=None,
        deadline: Optional[float] = None,
    ):
        self.job_id = job_id
        self.request = request
        self.created_at = time.perf_counter()
        self.created_unix = time.time()
        #: absolute ``perf_counter`` instant after which a still-queued job
        #: expires (``None`` = no deadline)
        self.deadline_at = (
            self.created_at + deadline if deadline is not None else None
        )
        self._lock = threading.RLock()
        self.state = PENDING
        self.stage: Optional[str] = None
        self.transitions: List[JobTransition] = [JobTransition(PENDING, 0.0)]
        self.stage_events: List[StageTiming] = []
        self.engine_events: List[EngineEvent] = []
        self.error: Optional[str] = None
        self.error_code: Optional[str] = None
        self.cancel_requested = False
        self.finished_at: Optional[float] = None
        #: the service attaches the full :class:`ServeResponse` here when
        #: the job reaches a terminal state
        self.response = None
        #: client-supplied idempotency key (see :meth:`JobTable.create`)
        self.client_id: Optional[str] = None
        #: called with the job right after a terminal transition (the
        #: :class:`JobTable` hook; errors are logged, not raised)
        self.on_terminal = None
        #: for jobs rehydrated from a state journal: the frozen dict view
        self._restored_view: Optional[Dict] = None
        self.restored = False
        self._done = threading.Event()

    # -- state machine -------------------------------------------------

    def _now(self) -> float:
        # Clamped so the log can never run backwards even if the clock
        # resolution makes two transitions land on the same tick.
        t = time.perf_counter() - self.created_at
        last = self.transitions[-1].t if self.transitions else 0.0
        return max(t, last)

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(
        self, state: str, stage: Optional[str] = None, **detail
    ) -> bool:
        """Move to ``state``; returns False (a no-op) once terminal.

        Illegal *forward* edges raise :class:`JobStateError` — they are
        programming errors.  Transitions requested after a terminal state
        merely return ``False``: terminal states are absorbing, which is
        what makes double-cancel and cancel-after-success idempotent.
        """
        if state not in _ALLOWED:
            raise JobStateError(f"unknown job state {state!r}")
        notify = None
        with self._lock:
            if self.is_terminal:
                return False
            if state not in _ALLOWED[self.state]:
                raise JobStateError(
                    f"illegal transition {self.state} -> {state} "
                    f"(job {self.job_id})"
                )
            self.state = state
            self.stage = stage if state in ACTIVE_STATES else None
            self.transitions.append(
                JobTransition(state, self._now(), stage=stage, detail=detail)
            )
            if state in TERMINAL_STATES:
                self.finished_at = time.perf_counter()
                self._done.set()
                notify = self.on_terminal
        if notify is not None:
            try:
                notify(self)
            except Exception:
                _log.exception(
                    "terminal hook failed for job %s", self.job_id
                )
        return True

    # -- cancellation --------------------------------------------------

    def request_cancel(self) -> bool:
        """Ask the job to stop; returns whether the cancel is effective.

        Still PENDING/QUEUED: cancelled outright (it will never execute).
        Active: the flag is set and honored at the next checkpoint.
        Already CANCELLED: True (idempotent).  Any other terminal state:
        False — the job already finished, there is nothing to cancel.
        """
        with self._lock:
            if self.state == CANCELLED:
                return True
            if self.is_terminal:
                return False
            self.cancel_requested = True
            if self.state in (PENDING, QUEUED):
                self.error_code = CODE_CANCELLED
                self.error = "cancelled before execution"
                self.transition(CANCELLED, reason="cancelled_while_queued")
            return True

    def check_cancelled(self) -> None:
        """Cancel checkpoint: raise :class:`JobCancelled` if requested."""
        if self.cancel_requested:
            raise JobCancelled(f"job {self.job_id} cancelled")

    # -- stage + engine hooks ------------------------------------------

    def enter_stage(self, stage: str, **detail) -> None:
        """Pipeline hook: cancel checkpoint + transition into a stage.

        ``legalize`` and ``persist`` are first-class states; every other
        stage is RUNNING with the stage name attached.
        """
        self.check_cancelled()
        self.transition(_STAGE_STATES.get(stage, RUNNING), stage=stage, **detail)

    def record_stage(self, timing: StageTiming) -> None:
        """Record one executed stage (the pipeline's own record)."""
        with self._lock:
            self.stage_events.append(timing)

    def record_engine(
        self, kind: str, start: float, end: float, **detail
    ) -> None:
        """Record one engine-side hop from engine-stamped timestamps."""
        with self._lock:
            self.engine_events.append(
                EngineEvent(
                    kind,
                    t=max(start - self.created_at, 0.0),
                    seconds=max(end - start, 0.0),
                    detail=detail,
                )
            )

    # -- terminal helpers ----------------------------------------------

    def succeed(self, **detail) -> bool:
        return self.transition(SUCCEEDED, **detail)

    def fail(self, error: str, code: str = CODE_INTERNAL, **detail) -> bool:
        with self._lock:
            if self.is_terminal:
                return False
            # Error fields are set before the transition so the terminal
            # hook (state journaling) snapshots a complete record.
            self.error = error
            self.error_code = code
            return self.transition(terminal_state_for(code), code=code, **detail)

    def expire(self, reason: str = "deadline expired") -> bool:
        return self.fail(reason, code=CODE_DEADLINE_EXPIRED)

    def maybe_expire(self) -> bool:
        """Lazily expire a still-waiting job whose deadline has passed."""
        with self._lock:
            if (
                self.deadline_at is not None
                and not self.is_terminal
                and self.state in (PENDING, QUEUED)
                and time.perf_counter() > self.deadline_at
            ):
                waited = time.perf_counter() - self.created_at
                return self.expire(
                    f"job deadline expired after {waited:.3f}s in queue"
                )
            return False

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout=timeout)

    # -- views ---------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        end = (
            self.finished_at
            if self.finished_at is not None
            else time.perf_counter()
        )
        return end - self.created_at

    @property
    def produced(self) -> int:
        response = self.response
        if response is None or response.result is None:
            if self._restored_view is not None:
                return int(self._restored_view.get("produced", 0))
            return 0
        return response.result.produced

    def as_dict(self) -> Dict:
        """The full JSON-safe progress view (the HTTP status payload)."""
        with self._lock:
            if self._restored_view is not None:
                return dict(self._restored_view)
            out: Dict = {
                "job_id": self.job_id,
                "state": self.state,
                "stage": self.stage,
                "created_unix": round(self.created_unix, 3),
                "elapsed_seconds": round(self.elapsed_seconds, 4),
                "cancel_requested": self.cancel_requested,
                "transitions": [t.as_dict() for t in self.transitions],
                "stage_events": [e.as_dict() for e in self.stage_events],
                "engine_events": [e.as_dict() for e in self.engine_events],
            }
            if self.error is not None:
                out["error"] = self.error
            if self.error_code is not None:
                out["error_code"] = self.error_code
            if self.client_id is not None:
                out["client_id"] = self.client_id
            if self.is_terminal:
                out["produced"] = self.produced
            request = self.request
            if request is not None:
                out["request"] = {
                    "text": getattr(request, "text", None),
                    "kind": getattr(request, "kind", "chat"),
                    "objective": getattr(request, "objective", None),
                    "source": getattr(request, "source", None),
                    "request_id": getattr(request, "request_id", None),
                }
            return out

    @classmethod
    def restore(cls, payload: Dict) -> "Job":
        """Rehydrate a terminal job from its journaled ``as_dict`` view.

        The restored job is read-only in practice: terminal states are
        absorbing, so status/result/cancel calls behave exactly as they
        would against the original object — except the TTL window
        restarts at boot (``finished_at`` is *now*), giving pollers a
        full retention period after a restart.
        """
        if payload.get("state") not in TERMINAL_STATES:
            raise JobStateError(
                f"can only restore terminal jobs, got state "
                f"{payload.get('state')!r}"
            )
        job = cls(payload["job_id"])
        with job._lock:
            job.state = payload["state"]
            job.created_unix = float(payload.get("created_unix", job.created_unix))
            job.error = payload.get("error")
            job.error_code = payload.get("error_code")
            job.client_id = payload.get("client_id")
            job.cancel_requested = bool(payload.get("cancel_requested", False))
            job.stage_events = [
                StageTiming(
                    e["stage"], e["seconds"], dict(e.get("detail", {}))
                )
                for e in payload.get("stage_events", [])
            ]
            view = dict(payload)
            view["restored"] = True
            job._restored_view = view
            job.restored = True
            job.finished_at = time.perf_counter()
            job._done.set()
        return job


# -- the table --------------------------------------------------------------


class JobStateStore:
    """Append-only fsynced journal of job records under a state directory.

    One JSON line per event: ``create`` when a job is admitted to the
    table, ``terminal`` (the full ``Job.as_dict`` snapshot) when it
    finishes.  The service attaches a job's response before its terminal
    edge, so one terminal line carries it; were a job journaled twice
    (:meth:`JobTable.persist`), the last record would win at replay.
    Boot compacts the journal down to one terminal record per surviving
    job.  A torn trailing line (crash mid-append) is dropped at replay,
    never propagated.
    """

    _JOURNAL_NAME = "jobs.jsonl"

    def __init__(self, state_dir: Union[str, Path]):
        self.dir = Path(state_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / self._JOURNAL_NAME
        self._lock = threading.Lock()
        self._handle = None

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def _append(self, entry: Dict) -> None:
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def record_create(self, job: Job) -> None:
        self._append(
            {
                "op": "create",
                "job_id": job.job_id,
                "client_id": job.client_id,
                "created_unix": round(job.created_unix, 3),
                "request": (
                    {
                        "text": getattr(job.request, "text", None),
                        "kind": getattr(job.request, "kind", "chat"),
                        "objective": getattr(job.request, "objective", None),
                        "source": getattr(job.request, "source", None),
                        "request_id": getattr(job.request, "request_id", None),
                    }
                    if job.request is not None
                    else None
                ),
            }
        )

    def record_terminal(self, job: Job) -> None:
        self._append({"op": "terminal", "record": job.as_dict()})

    def replay(self) -> Tuple[Dict[str, Dict], Dict[str, Dict]]:
        """Read the journal back: ``(terminal_records, orphan_creates)``.

        ``terminal_records`` maps job id -> last terminal snapshot;
        ``orphan_creates`` maps job id -> create payload for jobs that
        never reached a journaled terminal state (in flight at crash).
        """
        terminals: Dict[str, Dict] = {}
        creates: Dict[str, Dict] = {}
        if not self.path.exists():
            return terminals, creates
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    op = entry["op"]
                except (ValueError, KeyError, TypeError):
                    break  # torn trailing write from a crash
                if op == "create":
                    creates[entry["job_id"]] = entry
                elif op == "terminal":
                    record = entry.get("record") or {}
                    job_id = record.get("job_id")
                    if job_id:
                        terminals[job_id] = record
        for job_id in terminals:
            creates.pop(job_id, None)
        return terminals, creates

    def compact(self, records: List[Dict]) -> None:
        """Atomically rewrite the journal as one terminal line per job."""
        tmp = self.path.with_name(self._JOURNAL_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(
                    json.dumps({"op": "terminal", "record": record},
                               sort_keys=True)
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            os.replace(tmp, self.path)


_JOB_ID_RE = re.compile(r"^job-(\d+)-[0-9a-f]+$")


class JobTable:
    """Thread-safe id -> :class:`Job` registry with TTL-bounded retention.

    Terminal jobs are kept ``ttl`` seconds past their finish so pollers
    can still read the outcome, then purged lazily on the next table
    access — no background reaper thread.  Live jobs are never purged.

    With ``state_dir`` set, the table journals every job through a
    :class:`JobStateStore` and rehydrates on construction: terminal jobs
    come back pollable (instead of 404) and jobs that were in flight at
    the crash are resurrected as FAILED with the stable
    ``server_restart`` code — a client polling a pre-restart id gets a
    truthful answer, never silence.

    ``repro_jobs_active`` rises in :meth:`create`; the terminal hook every
    created job carries lowers it and counts ``repro_job_terminal_total``,
    so each job is counted once, whichever path ends it.
    """

    def __init__(
        self,
        ttl: float = 600.0,
        state_dir: Optional[Union[str, Path]] = None,
        metrics=None,
    ):
        if ttl <= 0:
            raise ValueError("job ttl must be > 0 seconds")
        self.ttl = float(ttl)
        self._jobs: "Dict[str, Job]" = {}
        self._by_client: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self.state_store: Optional[JobStateStore] = None
        #: terminal jobs rehydrated at boot / in-flight jobs resurrected
        #: as FAILED ``server_restart``
        self.restored = 0
        self.resurrected = 0
        if state_dir is not None:
            self.state_store = JobStateStore(state_dir)
            self._restore()
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_terminal = metrics.counter(
            "repro_job_terminal_total",
            "Lifecycle jobs reaching a terminal state",
            labels=("state",),
        )
        self._m_active = metrics.gauge(
            "repro_jobs_active",
            "Lifecycle jobs admitted but not yet terminal",
        )
        if self.restored or self.resurrected:
            restored_metric = metrics.counter(
                "repro_jobs_restored_total",
                "Jobs rehydrated from the state journal at boot",
                labels=("outcome",),
            )
            if self.restored:
                restored_metric.inc(self.restored, outcome="terminal")
            if self.resurrected:
                restored_metric.inc(self.resurrected, outcome="resurrected")

    def _restore(self) -> None:
        terminals, orphans = self.state_store.replay()
        max_serial = 0
        for job_id, payload in terminals.items():
            try:
                job = Job.restore(payload)
            except (JobStateError, KeyError, TypeError, ValueError):
                _log.warning("dropping unreadable job record %r", job_id)
                continue
            self._jobs[job.job_id] = job
            if job.client_id:
                self._by_client[job.client_id] = job.job_id
            self.restored += 1
        for job_id, entry in orphans.items():
            view = {
                "job_id": job_id,
                "state": terminal_state_for(CODE_SERVER_RESTART),
                "error": "server restarted while the job was in flight",
                "error_code": CODE_SERVER_RESTART,
                "created_unix": entry.get("created_unix"),
                "client_id": entry.get("client_id"),
                "request": entry.get("request"),
                "produced": 0,
            }
            job = Job.restore(view)
            self._jobs[job.job_id] = job
            if job.client_id:
                self._by_client[job.client_id] = job.job_id
            self.resurrected += 1
        for job_id in self._jobs:
            match = _JOB_ID_RE.match(job_id)
            if match:
                max_serial = max(max_serial, int(match.group(1)))
        self._counter = itertools.count(max_serial + 1)
        # One terminal line per surviving job; orphan resurrections are
        # durable from here on (a second restart must not forget them).
        self.state_store.compact(
            [job.as_dict() for job in self._jobs.values()]
        )

    def _on_job_terminal(self, job: Job) -> None:
        self._m_terminal.inc(state=job.state)
        self._m_active.dec()
        if self.state_store is not None:
            self.state_store.record_terminal(job)

    def persist(self, job: Job) -> None:
        """Re-journal a terminal job.  The terminal hook already journals
        every job once, with its response, so the service does not call
        this; a later record would replace the earlier one at replay."""
        if self.state_store is not None and job.is_terminal:
            self.state_store.record_terminal(job)

    def create(
        self,
        request=None,
        deadline: Optional[float] = None,
        client_id: Optional[str] = None,
    ) -> Job:
        job_id = f"job-{next(self._counter):06d}-{secrets.token_hex(4)}"
        job = Job(job_id, request=request, deadline=deadline)
        job.client_id = client_id
        job.on_terminal = self._on_job_terminal
        self._m_active.inc()
        with self._lock:
            self._purge_locked()
            self._jobs[job_id] = job
            if client_id:
                self._by_client[client_id] = job_id
        if self.state_store is not None:
            self.state_store.record_create(job)
        return job

    def find_client(self, client_id: str) -> Optional[Job]:
        """The job previously submitted under a client idempotency key."""
        with self._lock:
            self._purge_locked()
            job_id = self._by_client.get(client_id)
            return self._jobs.get(job_id) if job_id else None

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            self._purge_locked()
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            self._purge_locked()
            return list(self._jobs.values())

    def __len__(self) -> int:
        with self._lock:
            self._purge_locked()
            return len(self._jobs)

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for stats/metrics endpoints)."""
        counts: Dict[str, int] = {}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def queued_count(self) -> int:
        """Jobs admitted but not yet running — the admission-bound gauge."""
        return sum(
            1 for job in self.jobs() if job.state in (PENDING, QUEUED)
        )

    def purge(self) -> int:
        """Drop terminal jobs older than ``ttl``; returns how many."""
        with self._lock:
            return self._purge_locked()

    def _purge_locked(self) -> int:
        now = time.perf_counter()
        stale = [
            job_id
            for job_id, job in self._jobs.items()
            if job.finished_at is not None
            and now - job.finished_at > self.ttl
        ]
        for job_id in stale:
            client_id = self._jobs[job_id].client_id
            if client_id and self._by_client.get(client_id) == job_id:
                del self._by_client[client_id]
            del self._jobs[job_id]
        return len(stale)

    def close(self) -> None:
        """Release the state journal handle, if any."""
        if self.state_store is not None:
            self.state_store.close()


__all__ = [
    "ACTIVE_STATES",
    "CANCELLED",
    "CODE_CANCELLED",
    "CODE_DEADLINE_EXPIRED",
    "CODE_INTERNAL",
    "CODE_INVALID_REQUEST",
    "CODE_LEGALIZE_FAILED",
    "CODE_QUEUE_FULL",
    "CODE_SERVER_RESTART",
    "CODE_SHUTDOWN",
    "ERROR_CODES",
    "EXPIRED",
    "EngineEvent",
    "FAILED",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobError",
    "JobStateError",
    "JobStateStore",
    "JobTable",
    "JobTransition",
    "LEGALIZING",
    "PENDING",
    "PERSISTING",
    "QUEUED",
    "RUNNING",
    "SUCCEEDED",
    "TERMINAL_STATES",
    "error_code_for",
    "terminal_state_for",
]
