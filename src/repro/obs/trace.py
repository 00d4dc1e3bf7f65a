"""Lightweight request tracing: per-request span trees, JSONL export.

A :class:`Tracer` records :class:`Span` intervals — named, nestable,
attribute-tagged — grouped by ``trace_id`` (the serving stack uses the
request id).  Inside one thread, ``with tracer.trace("request",
request_id=7)`` opens a root span and ``with tracer.span("legalize")``
nests under whatever is currently open; work measured elsewhere (the
engine's executor stamps job timestamps on its worker thread) is attached
after the fact with :meth:`Tracer.record`, which parents to the caller's
current span.  This is how one request's tree follows its job through
admission → queue wait → batch gather → execute → legalize → store
persist even though the middle hops run on the engine's worker.

Timestamps are ``time.perf_counter()`` seconds — monotonic and
process-relative, matching every other wall measurement in the serving
stack, so spans line up exactly with :class:`BatchRecord` walls.

Finished spans land in a bounded deque (oldest evicted first);
:meth:`Tracer.tree` reassembles one request's nested tree and
:meth:`Tracer.export_jsonl` writes spans as JSON lines.  A tracer built
with ``enabled=False`` (or the shared :data:`NULL_TRACER`) turns every
call into a no-op.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union


@dataclass
class StageTiming:
    """Wall-clock record of one executed pipeline stage.

    ``PipelineResult.timings`` and a lifecycle job's ``stage_events`` hold
    the same objects; defined here so both layers import it.
    """

    stage: str
    seconds: float
    detail: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "stage": self.stage,
            "seconds": round(self.seconds, 4),
            **({"detail": dict(self.detail)} if self.detail else {}),
        }


class Span:
    """One named, closed interval of a trace."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end", "attrs"
    )

    def __init__(
        self,
        name: str,
        trace_id,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        end: float,
        attrs: Dict,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "duration": round(self.duration, 6),
            **({"attrs": dict(self.attrs)} if self.attrs else {}),
        }


class _OpenSpan:
    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id


class Tracer:
    """Collects spans from many threads into one bounded buffer."""

    def __init__(self, enabled: bool = True, max_spans: int = 10000):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.enabled = bool(enabled)
        self.max_spans = int(max_spans)
        self._spans: "deque[Span]" = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- context -------------------------------------------------------

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[_OpenSpan]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def trace(self, name: str, request_id=None, **attrs):
        """Open a *root* span for a new trace (id = ``request_id``)."""
        if not self.enabled:
            yield None
            return
        trace_id = request_id if request_id is not None else next(self._ids)
        with self._open(name, trace_id, parent_id=None, attrs=attrs) as span:
            yield span

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child of the current span (or a fresh root trace)."""
        if not self.enabled:
            yield None
            return
        current = self.current()
        if current is None:
            trace_id, parent_id = next(self._ids), None
        else:
            trace_id, parent_id = current.trace_id, current.span_id
        with self._open(name, trace_id, parent_id, attrs) as span:
            yield span

    @contextmanager
    def _open(self, name, trace_id, parent_id, attrs):
        span_id = next(self._ids)
        handle = _OpenSpan(trace_id, span_id)
        stack = self._stack()
        stack.append(handle)
        started = time.perf_counter()
        try:
            yield handle
        finally:
            ended = time.perf_counter()
            # Pop back to this handle even if an inner span leaked open.
            while stack and stack[-1] is not handle:
                stack.pop()
            if stack:
                stack.pop()
            self._append(
                Span(name, trace_id, span_id, parent_id, started, ended,
                     dict(attrs))
            )

    def record(
        self,
        name: str,
        start: float,
        end: float,
        trace_id=None,
        parent_id: Optional[int] = None,
        **attrs,
    ) -> Optional[Span]:
        """Attach an already-measured interval to the current span.

        ``start``/``end`` are ``time.perf_counter()`` instants (e.g. the
        engine's job timestamps).  Explicit ``trace_id``/``parent_id``
        override the caller's context — the cross-thread escape hatch.
        """
        if not self.enabled:
            return None
        if trace_id is None or parent_id is None:
            current = self.current()
            if current is not None:
                if trace_id is None:
                    trace_id = current.trace_id
                if parent_id is None:
                    parent_id = current.span_id
        if trace_id is None:
            trace_id = next(self._ids)
        span = Span(
            name, trace_id, next(self._ids), parent_id,
            float(start), float(end), dict(attrs),
        )
        self._append(span)
        return span

    def _append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- reading -------------------------------------------------------

    def spans(self, trace_id=None) -> List[Span]:
        with self._lock:
            spans = list(self._spans)
        if trace_id is None:
            return spans
        return [span for span in spans if span.trace_id == trace_id]

    def trace_ids(self) -> List:
        seen: Dict = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def tree(self, trace_id) -> Optional[Dict]:
        """One trace's spans as a nested dict (children sorted by start).

        Spans whose parent was evicted from the buffer (or recorded
        without a parent) attach under the root; with no root span at
        all, a synthetic ``"trace"`` root is produced so the tree is
        always a single dict.
        """
        spans = sorted(self.spans(trace_id), key=lambda s: s.start)
        if not spans:
            return None
        nodes = {
            span.span_id: {**span.as_dict(), "children": []}
            for span in spans
        }
        roots = []
        for span in spans:
            parent = nodes.get(span.parent_id)
            if parent is not None and span.parent_id != span.span_id:
                parent["children"].append(nodes[span.span_id])
            else:
                roots.append(nodes[span.span_id])
        if len(roots) == 1:
            return roots[0]
        start = min(span.start for span in spans)
        end = max(span.end for span in spans)
        return {
            "name": "trace",
            "trace_id": trace_id,
            "span_id": 0,
            "parent_id": None,
            "start": round(start, 6),
            "end": round(end, 6),
            "duration": round(end - start, 6),
            "children": roots,
        }

    def export_jsonl(
        self, path: Union[str, Path], trace_id=None
    ) -> Path:
        """Write spans (optionally one trace's) as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(span.as_dict(), sort_keys=True)
            for span in self.spans(trace_id)
        ]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


#: Shared disabled tracer: every call is a no-op.
NULL_TRACER = Tracer(enabled=False)

_default_tracer: Optional[Tracer] = None
_default_tracer_lock = threading.Lock()


def default_tracer() -> Tracer:
    """The process-wide tracer components default to."""
    global _default_tracer
    with _default_tracer_lock:
        if _default_tracer is None:
            _default_tracer = Tracer()
        return _default_tracer
