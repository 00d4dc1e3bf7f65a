"""Span recording around the server's public functions, from outside ``src/``.

The traced launcher (``launch_traced.py``) installs these wrappers before it
hands control to ``repro.cli.main``.  Every wrapped call becomes one span:
``(layer, name, thread, start, end, self_seconds, attrs)``.  Each thread
keeps its own stack of open spans, so a span's *self* time is its duration
minus the durations of the wrapped calls nested directly inside it on the
same thread.  ``Job.transition`` is recorded as a point event instead, which
gives each job's state changes on the same clock as the spans.

Spans stay in memory and are written out once, when the server exits.
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so server spans and
the load generator's timestamps share one clock.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Function wrappers: (module, qualified attribute, layer, span name).
#: Module-level functions are patched wherever they are looked up (every
#: ``repro`` module holding a reference), methods on their class.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.serve.service", "PatternService.submit_job", "jobs", "submit_job"),
    ("repro.serve.service", "PatternService.start", "setup", "start"),
    ("repro.serve.jobs", "JobTable.create", "jobs", "create"),
    ("repro.serve.jobs", "JobTable.persist", "jobs", "persist"),
    ("repro.serve.registry", "ModelRegistry.resolve", "setup", "fit"),
    ("repro.diffusion.model", "ConditionalDiffusionModel.sample_batch",
     "diffusion", "sample_batch"),
    ("repro.diffusion.model", "ConditionalDiffusionModel.denoise_step_batch",
     "diffusion", "denoise_step_batch"),
    ("repro.diffusion.model", "ConditionalDiffusionModel.polish_batch",
     "diffusion", "polish_batch"),
    ("repro.diffusion.denoisers.neighborhood",
     "NeighborhoodDenoiser.predict_x0_many", "diffusion", "predict_x0_many"),
    ("repro.diffusion.model", "ConditionalDiffusionModel.denoise_step",
     "diffusion", "denoise_step"),
    ("repro.diffusion.model", "ConditionalDiffusionModel.polish",
     "diffusion", "polish"),
    ("repro.diffusion.denoisers.neighborhood",
     "NeighborhoodDenoiser.predict_x0", "diffusion", "predict_x0"),
    ("repro.ops.modify", "modify", "ops", "modify"),
    ("repro.ops.extend", "extend", "ops", "extend"),
    ("repro.core.chatpattern", "ChatPattern.handle_request",
     "agent", "handle_request"),
    ("repro.metrics.legality", "legalize_many", "legalize", "legalize_many"),
    ("repro.legalize.legalizer", "legalize", "legalize", "legalize"),
    ("repro.drc.checker", "check_pattern", "drc", "check_pattern"),
    ("repro.serve.store", "LibraryStore.add_library", "store", "add_library"),
)


def _span_attrs(name: str, result) -> Optional[Dict]:
    """Per-call details the budget needs: the job a submission created,
    store outcomes and legalization verdicts."""
    if name == "submit_job":
        return {"job_id": result.job_id, "created_at": result.created_at}
    if name == "add_library":
        return {"added": result.added, "deduplicated": result.deduplicated}
    if name == "legalize":
        return {"ok": bool(result.ok)}
    return None


class SpanRecorder:
    """Collects spans with per-thread self time, plus job transition events."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Tuple] = []
        self.events: List[Tuple] = []
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call appends one span."""
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                # A call that raised has no result to describe.
                attrs = _span_attrs(name, result) if result is not None else None
                spans.append(
                    (layer, name, threading.get_ident(), start, end,
                     duration - children[0], attrs)
                )

        return wrapper

    def wrap_transition(self, fn: Callable) -> Callable:
        """``Job.transition`` wrapped to log ``(job, state, stage, thread, t)``
        for every transition that took effect."""
        clock = self.clock
        events = self.events

        @functools.wraps(fn)
        def wrapper(job, state, stage=None, **detail):
            t = clock()
            moved = fn(job, state, stage, **detail)
            if moved:
                events.append(
                    (job.job_id, state, stage, threading.get_ident(), t)
                )
            return moved

        return wrapper

    def dump(self, path: str, meta: Dict) -> None:
        payload = {
            "meta": meta,
            "spans": [list(s) for s in self.spans],
            "events": [list(e) for e in self.events],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _patch_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module global that refers to ``original``."""
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                patched += 1
    return patched


def install(recorder: SpanRecorder) -> None:
    """Wrap every target in :data:`TARGETS` plus ``Job.transition``.

    The target modules must already be imported, so that modules holding a
    function by name are found and rebound too.
    """
    for module_name, attribute, layer, name in TARGETS:
        module = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            setattr(cls, method, recorder.wrap(layer, name, original))
        else:
            original = getattr(module, attribute)
            wrapped = recorder.wrap(layer, name, original)
            if not _patch_everywhere(original, wrapped):
                raise RuntimeError(f"nothing to patch for {module_name}.{attribute}")
    from repro.serve.jobs import Job

    Job.transition = recorder.wrap_transition(Job.__dict__["transition"])
