"""Per-request latency budget and per-layer metrics of a traced run.

All timestamps are ``time.perf_counter`` values, which the load generator
and the server share (``CLOCK_MONOTONIC``).  A request's latency runs from
its due time to the moment its result was fetched; the budget cuts that
interval into consecutive pieces along the request's critical path:

* client and admission: generator lateness, the HTTP hop up to
  ``PatternService.submit_job``, admission and journal up to QUEUED, the
  request-pool hop up to RUNNING;
* the request thread, RUNNING to SUCCEEDED: each engine call it blocked on
  (queue wait, gather, execute) and the self time of every wrapped call on
  that thread (agent, ops, sequential diffusion, legalize and DRC, store),
  plus the uncovered rest of the score and persist stages;
* an engine execute interval is split into the self time of the batched
  diffusion calls inside it and the engine's own remainder;
* after SUCCEEDED: waiting for the next poll, then the result fetch.

Rows are per-request means, so they add up; ``unattributed`` is whatever
no row covers.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy

#: Budget rows in critical-path order (``unattributed`` closes the table).
ROWS: Tuple[str, ...] = (
    "loadgen late",
    "http submit",
    "admission and journal",
    "pool hop",
    "queue wait",
    "gather",
    "execute: sample_batch self",
    "execute: predict_x0_many",
    "execute: step_batch self",
    "execute: polish_batch",
    "execute: engine self",
    "agent self",
    "ops self",
    "diffusion sequential",
    "legalize and DRC",
    "score",
    "persist",
    "poll wait",
    "result fetch",
)
UNATTRIBUTED = "unattributed"

#: Row of a wrapped call's self time on the request thread, by layer.
_THREAD_ROWS = {
    "agent": "agent self",
    "ops": "ops self",
    "diffusion": "diffusion sequential",
    "legalize": "legalize and DRC",
    "drc": "legalize and DRC",
    "store": "persist",
    "jobs": "admission and journal",
    "setup": "admission and journal",
}

#: Row of a diffusion call's self time inside an engine execute interval.
_EXECUTE_ROWS = {
    "sample_batch": "execute: sample_batch self",
    "predict_x0_many": "execute: predict_x0_many",
    "denoise_step_batch": "execute: step_batch self",
    "polish_batch": "execute: polish_batch",
}

#: Timestamp slack: the job's public event offsets are rounded to 1 us.
_EPS = 1e-5


def row_key(row: str) -> str:
    """Metric-name form of a budget row, e.g. ``budget.pool_hop_s``."""
    return "budget." + re.sub(r"[^a-z0-9]+", "_", row.lower()).strip("_") + "_s"


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    attrs: Optional[Dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class JobTrace:
    """Server-side view of one job, joined from spans and events."""

    created_at: float
    submit_start: float
    #: ``(state, stage, thread, t)`` in order
    transitions: List[Tuple] = field(default_factory=list)


@dataclass(frozen=True)
class EngineCall:
    """One sampling call of a request: admission through execute end."""

    start: float
    selected: float
    exec_start: float
    exec_end: float


@dataclass
class Trace:
    """A traced server's spans and job events (the launcher's dump)."""

    spans: List[Span]
    jobs: Dict[str, JobTrace]
    meta: Dict

    @classmethod
    def from_payload(cls, payload: Dict) -> "Trace":
        spans = [Span(*row) for row in payload["spans"]]
        jobs: Dict[str, JobTrace] = {}
        for span in spans:
            if span.name == "submit_job" and span.attrs:
                jobs[span.attrs["job_id"]] = JobTrace(
                    span.attrs["created_at"], span.start
                )
        for job_id, state, stage, thread, t in payload["events"]:
            if job_id in jobs:
                jobs[job_id].transitions.append((state, stage, thread, t))
        for job in jobs.values():
            job.transitions.sort(key=lambda tr: tr[3])
        return cls(spans=spans, jobs=jobs, meta=payload.get("meta", {}))


def engine_calls(status: Dict, created_at: float) -> List[EngineCall]:
    """The request's engine calls from its public ``engine_events``."""
    calls = []
    current: Dict = {}
    for event in status.get("engine_events", []):
        start = created_at + event["t"]
        end = start + event["seconds"]
        kind = event["kind"]
        if kind == "admission":
            current = {"start": start}
        elif kind == "queue_wait" and current:
            current["selected"] = end
        elif kind == "execute" and "selected" in current:
            calls.append(
                EngineCall(current["start"], current["selected"], start, end)
            )
            current = {}
    return calls


def _stage_interval(job: JobTrace, stage: str) -> Optional[Tuple[float, float]]:
    for i, (_state, name, _thread, t) in enumerate(job.transitions):
        if name == stage and i + 1 < len(job.transitions):
            return t, job.transitions[i + 1][3]
    return None


def request_budget(
    outcome, job: JobTrace, spans_by_thread: Dict[int, List[Span]],
    diffusion_spans: Sequence[Span],
) -> Dict[str, float]:
    """Budget rows (seconds) of one succeeded request; they sum, with
    ``unattributed``, to exactly ``outcome.latency``."""
    rows: Dict[str, float] = defaultdict(float)
    running = next(tr for tr in job.transitions if tr[0] == "RUNNING")
    queued = next(tr for tr in job.transitions if tr[0] == "QUEUED")
    done = job.transitions[-1]
    t_run, t_done, thread = running[3], done[3], running[2]

    rows["loadgen late"] = outcome.sent - outcome.due
    rows["http submit"] = job.submit_start - outcome.sent
    rows["admission and journal"] = queued[3] - job.submit_start
    rows["pool hop"] = t_run - queued[3]

    mine = [
        s for s in spans_by_thread.get(thread, ())
        if s.start >= t_run - _EPS and s.end <= t_done + _EPS
    ]
    selfs = [s.self_s for s in mine]
    calls = engine_calls(outcome.status, job.created_at)
    for call in calls:
        rows["queue wait"] += call.selected - call.start
        rows["gather"] += call.exec_start - call.selected
        covered = 0.0
        for span in diffusion_spans:
            if (
                span.thread != thread
                and span.start >= call.exec_start - _EPS
                and span.end <= call.exec_end + _EPS
            ):
                rows[_EXECUTE_ROWS.get(span.name, "execute: sample_batch self")] += span.self_s
                covered += span.self_s
        rows["execute: engine self"] += call.exec_end - call.exec_start - covered
        # The request thread was blocked inside its innermost open call.
        enclosing = [
            i for i, s in enumerate(mine)
            if s.start <= call.start + _EPS and s.end >= call.exec_end - _EPS
        ]
        if enclosing:
            innermost = max(enclosing, key=lambda i: mine[i].start)
            selfs[innermost] -= call.exec_end - call.start
    for span, self_s in zip(mine, selfs):
        rows[_THREAD_ROWS[span.layer]] += self_s
    for stage in ("score", "persist"):
        interval = _stage_interval(job, stage)
        if interval is None:
            continue
        lo, hi = interval
        inside = sum(
            self_s for span, self_s in zip(mine, selfs)
            if span.start >= lo - _EPS and span.end <= hi + _EPS
        ) + sum(
            c.exec_end - c.start for c in calls
            if c.start >= lo - _EPS and c.exec_end <= hi + _EPS
        )
        rows[stage] += (hi - lo) - inside
    rows["poll wait"] = outcome.end - outcome.result_rtt - t_done
    rows["result fetch"] = outcome.result_rtt
    rows[UNATTRIBUTED] = outcome.latency - math.fsum(rows.values())
    return dict(rows)


def budget_table(outcomes: Sequence, trace: Trace) -> Tuple[Dict[str, float], float, int]:
    """Per-request mean of every row over the succeeded requests that the
    trace covers; returns ``(rows, mean_latency, requests)``."""
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in trace.spans:
        by_thread[span.thread].append(span)
    diffusion = [s for s in trace.spans if s.layer == "diffusion"]
    per_request = [
        request_budget(o, trace.jobs[o.job_id], by_thread, diffusion)
        for o in outcomes
        if o.ok and o.job_id in trace.jobs
    ]
    n = len(per_request)
    if not n:
        return {row: 0.0 for row in ROWS + (UNATTRIBUTED,)}, 0.0, 0
    means = {
        row: math.fsum(r.get(row, 0.0) for r in per_request) / n
        for row in ROWS + (UNATTRIBUTED,)
    }
    latency = math.fsum(
        o.latency for o in outcomes if o.ok and o.job_id in trace.jobs
    ) / n
    return means, latency, n


def format_table(rows: Dict[str, float], latency: float, requests: int) -> List[str]:
    lines = [f"  {'row':<28} {'mean ms':>10} {'share':>7}"]
    for row in ROWS + (UNATTRIBUTED,):
        value = rows[row]
        share = value / latency if latency else 0.0
        lines.append(f"  {row:<28} {value * 1e3:>10.2f} {share:>7.1%}")
    total = math.fsum(rows.values())
    lines.append(f"  {'sum of rows':<28} {total * 1e3:>10.2f}")
    lines.append(
        f"  {'measured mean latency':<28} {latency * 1e3:>10.2f}"
        f"   over {requests} requests"
    )
    return lines


_BUSY = re.compile(r'^repro_worker_busy_seconds_total\{[^}]*\}\s+([0-9.eE+-]+)$', re.M)


def busy_seconds(exposition: str) -> float:
    """Sum of the engine workers' busy-seconds counters in ``/metrics``."""
    return sum(float(v) for v in _BUSY.findall(exposition))


def _p(values: Sequence[float], q: float) -> float:
    return float(numpy.percentile(values, q)) if values else 0.0


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    outcomes: Sequence, trace: Trace, rows: Dict[str, float], latency: float,
    t0: float, window_s: float, busy_delta: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced run (see ``BENCHMARK.json``).

    ``rows`` and ``latency`` are :func:`budget_table`'s.  ``*_s`` metrics
    without a percentile suffix are seconds per succeeded request.
    """
    ok = [o for o in outcomes if o.ok and o.job_id in trace.jobs]
    n = max(len(ok), 1)
    measured = [s for s in trace.spans if s.start >= t0]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in measured:
        by_name[span.name].append(span)

    def self_total(name: str) -> float:
        return math.fsum(s.self_s for s in by_name[name]) / n

    def inclusive_total(name: str) -> float:
        return math.fsum(s.duration for s in by_name[name]) / n

    job_ids = {o.job_id for o in ok}
    submits = [s for s in by_name["submit_job"] if s.attrs and s.attrs["job_id"] in job_ids]
    submit_by_job = {s.attrs["job_id"]: s for s in submits}
    events = [e for o in ok for e in o.status.get("engine_events", [])]

    def engine_seconds(kind: str) -> List[float]:
        return [e["seconds"] for e in events if e["kind"] == kind]

    pool_waits = []
    for o in ok:
        states = {t["state"]: t["t"] for t in reversed(o.status.get("transitions", []))}
        if "QUEUED" in states and "RUNNING" in states:
            pool_waits.append(states["RUNNING"] - states["QUEUED"])
    legalize_calls = by_name["legalize"]
    stored = [s.attrs for s in by_name["add_library"] if s.attrs]
    stored_total = sum(a["added"] + a["deduplicated"] for a in stored)
    fits = [s for s in trace.spans if s.name == "fit"]
    starts = [s for s in trace.spans if s.name == "start"]

    metrics = {
        "loadgen.late_p95_s": _p([o.sent - o.due for o in outcomes], 95),
        "loadgen.sent": float(len(outcomes)),
        "http.submit_rtt_p50_s": _p([o.posted - o.sent for o in ok], 50),
        "http.submit_rtt_p95_s": _p([o.posted - o.sent for o in ok], 95),
        "http.result_rtt_p50_s": _p([o.result_rtt for o in ok], 50),
        "http.polls_per_job": _mean(o.polls for o in ok),
        "http.handler_self_s": _mean(
            (o.posted - o.sent) - submit_by_job[o.job_id].duration
            for o in ok if o.job_id in submit_by_job
        ),
        "jobs.submit_job_p50_s": _p([s.duration for s in submits], 50),
        "jobs.submit_job_p95_s": _p([s.duration for s in submits], 95),
        # Journal writes through the job table: create, then persist.
        "jobs.persist_calls_per_job": (
            len(by_name["create"]) + len(by_name["persist"])
        ) / n,
        "jobs.persist_s": inclusive_total("create") + inclusive_total("persist"),
        "service.pool_wait_p50_s": _p(pool_waits, 50),
        "engine.queue_wait_p50_s": _p(engine_seconds("queue_wait"), 50),
        "engine.queue_wait_p95_s": _p(engine_seconds("queue_wait"), 95),
        "engine.gather_p50_s": _p(engine_seconds("batch_gather"), 50),
        "engine.execute_p50_s": _p(engine_seconds("execute"), 50),
        "engine.batch_samples_mean": _mean(
            e.get("detail", {}).get("batch_samples", 0)
            for e in events if e["kind"] == "batch_gather"
        ),
        "engine.busy_frac": busy_delta / window_s if window_s > 0 else 0.0,
        "diffusion.sample_batch_s": self_total("sample_batch"),
        "diffusion.predict_many_s": self_total("predict_x0_many"),
        "diffusion.step_batch_self_s": self_total("denoise_step_batch"),
        "diffusion.polish_batch_s": self_total("polish_batch"),
        "diffusion.evals": (
            len(by_name["predict_x0_many"]) + len(by_name["predict_x0"])
        ) / n,
        "diffusion.denoise_step_s": self_total("denoise_step"),
        "diffusion.predict_s": self_total("predict_x0"),
        "diffusion.polish_s": self_total("polish"),
        "ops.modify_s": self_total("modify"),
        "ops.modify_calls": len(by_name["modify"]) / n,
        "ops.extend_s": self_total("extend"),
        "agent.handle_request_s": inclusive_total("handle_request"),
        "agent.self_s": rows["agent self"],
        "legalize.many_s": inclusive_total("legalize_many"),
        "legalize.s_per_pattern": _mean(s.duration for s in legalize_calls),
        "legalize.success_frac": _mean(
            1.0 if (s.attrs or {}).get("ok") else 0.0 for s in legalize_calls
        ),
        "drc.check_s": self_total("check_pattern"),
        "drc.checks": len(by_name["check_pattern"]) / n,
        "store.add_library_s": inclusive_total("add_library"),
        "store.dedup_frac": (
            sum(a["deduplicated"] for a in stored) / stored_total
            if stored_total else 0.0
        ),
        "setup.import_s": float(trace.meta.get("import_s", 0.0)),
        "setup.fit_s": fits[0].duration if fits else 0.0,
        "setup.start_s": starts[0].self_s if starts else 0.0,
        "budget.unattributed_frac": (
            rows[UNATTRIBUTED] / latency if latency else 0.0
        ),
    }
    for row in ROWS + (UNATTRIBUTED,):
        metrics[row_key(row)] = rows[row]
    metrics["budget.latency_mean_s"] = latency
    return metrics
