"""Request traces as a view of the job record: per-request span trees.

A served request's record is its lifecycle job
(:class:`~repro.serve.jobs.Job`): state transitions, one
:class:`StageTiming` per executed pipeline stage and one engine event per
sampling hop.  :func:`job_spans` projects that record into a Dapper-style
span tree — named, nested, attribute-tagged intervals grouped by
``trace_id`` (the request id) — following each sampling call through
admission → queue wait → batch gather → execute, though those hops ran
on the engine's worker thread, and the request through the pipeline
stages its job recorded.  Both request kinds record their stages through
the same pipeline primitives: a ``pipeline`` request's tree holds its
sample, legalize, score and persist spans, and a chat request's holds a
span per tool primitive the agent ran (sample, extend, modify, legalize,
persist) next to its ``sample_call`` spans.  Nothing writes spans: they are
derived on demand, so the trace cannot disagree with the record.

Timestamps are ``time.perf_counter()`` seconds — monotonic and
process-relative, matching every other wall measurement in the serving
stack, so spans line up exactly with :class:`BatchRecord` walls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class StageTiming:
    """Wall-clock record of one executed pipeline stage.

    ``PipelineResult.timings`` and a lifecycle job's ``stage_events`` hold
    the same objects; defined here so both layers import it.  ``start`` is
    the ``perf_counter`` instant the stage began, which places its span;
    it is process-relative, so it stays out of ``as_dict`` (the wire and
    journal form) and out of equality.
    """

    stage: str
    seconds: float
    detail: Dict = field(default_factory=dict)
    start: Optional[float] = field(default=None, compare=False, repr=False)

    def as_dict(self) -> Dict:
        return {
            "stage": self.stage,
            "seconds": round(self.seconds, 4),
            **({"detail": dict(self.detail)} if self.detail else {}),
        }


def _span(name, trace_id, span_id, parent_id, start, end, attrs) -> Dict:
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "start": round(start, 6),
        "end": round(end, 6),
        "duration": round(max(end - start, 0.0), 6),
        **({"attrs": dict(attrs)} if attrs else {}),
    }


def job_spans(job) -> List[Dict]:
    """The spans of one job's record, as JSON-safe dicts.

    ``job`` is a :class:`~repro.serve.jobs.Job` (anything with its
    ``created_at``, ``transitions``, ``stage_events``, ``engine_events``
    and ``request``).  The tree is:

    - a ``request`` root (``trace_id`` = the request id), from the job's
      first RUNNING edge to its terminal edge (to now while it runs), with
      attrs ``source`` and ``objective``;
    - one span per stage event, its ``detail`` as attrs;
    - one ``sample_call`` span per sampling call, from the call's
      ``admission`` hop to the end of its last hop, with attr ``count``;
      it parents that call's hops, each hop's ``detail`` as its attrs (a
      request's calls run one after another on its thread, so each
      ``admission`` opens the next call).  Its name differs from the
      ``sample`` stage's, so a span's name says which of the two it is.

    A job that never ran (cancelled or expired while queued) has no spans,
    nor has one restored from the state journal, which keeps no
    transitions.  Span ids are numbered within the trace, root first.
    """
    base = job.created_at
    running = [t for t in list(job.transitions) if t.state == "RUNNING"]
    if not running:
        return []
    finished = base + job.elapsed_seconds
    request = job.request
    trace_id = request.request_id if request is not None else job.job_id
    spans = [
        _span(
            "request", trace_id, 1, None, base + running[0].t, finished,
            {
                "source": getattr(request, "source", None),
                "objective": getattr(request, "objective", None),
            },
        )
    ]

    def add(name, parent, start, end, attrs) -> int:
        spans.append(
            _span(name, trace_id, len(spans) + 1, parent, start, end, attrs)
        )
        return len(spans)

    for timing in list(job.stage_events):
        if timing.start is not None:
            add(timing.stage, 1, timing.start,
                timing.start + timing.seconds, timing.detail)
    calls: List[List] = []
    for hop in list(job.engine_events):
        if hop.kind == "admission" or not calls:
            calls.append([])
        calls[-1].append(hop)
    for call in calls:
        parent = add(
            "sample_call", 1, base + call[0].t,
            max(base + hop.t + hop.seconds for hop in call),
            {"count": call[0].detail.get("count")},
        )
        for hop in call:
            add(hop.kind, parent, base + hop.t,
                base + hop.t + hop.seconds, hop.detail)
    return spans
