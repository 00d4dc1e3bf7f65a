"""Self-tuning serve performance: the SLO-driven tuning subsystem.

Two halves share one vocabulary (:class:`~repro.api.config.TuneConfig`,
the latency SLO and hysteresis knobs):

- **Online** — :class:`~repro.tune.controller.AdaptiveController`, the
  pure hysteresis controller behind the engine's ``adaptive`` batch
  policy (``ServeEngine(model, controller=...)``): under queue
  pressure it degrades effective ``sampler_steps`` toward ``"bucketed"``
  and widens batch gathering to hold the p95 SLO, restoring full quality
  once load calms.
- **Offline** — the ``repro tune`` autotuner: replay a seeded
  :class:`~repro.tune.workload.WorkloadSpec` on virtual time through an
  unstarted :class:`~repro.serve.engine.ServeEngine`
  (:mod:`repro.tune.simulate`) for every candidate of a small knob grid,
  score each on the full trace (:func:`~repro.tune.search.grid_search`),
  and emit a tuned :class:`~repro.api.config.PipelineConfig` plus a
  human-readable trial report (:mod:`repro.tune.report`).

The engine imports the controller, so nothing here imports
:mod:`repro.serve` at module level: the simulator loads the engine
inside :func:`~repro.tune.simulate.simulate_trial`.  Only the controller is
imported with the package; the offline names load on first use (a module
``__getattr__``), so a server start does not import the simulator, search,
report or workload modules.
"""

import importlib

from repro.tune.controller import (
    AdaptiveController,
    EngineLoadSnapshot,
    degrade_steps,
    quality_rank,
)

#: Offline names, resolved from their module on first use.
_LAZY = {
    "render_report": "repro.tune.report",
    "Candidate": "repro.tune.simulate",
    "TrialResult": "repro.tune.search",
    "TuneOutcome": "repro.tune.search",
    "default_candidates": "repro.tune.search",
    "grid_search": "repro.tune.search",
    "score_metrics": "repro.tune.search",
    "CostModel": "repro.tune.simulate",
    "TrialMetrics": "repro.tune.simulate",
    "simulate_trial": "repro.tune.simulate",
    "ARRIVAL_PATTERNS": "repro.tune.workload",
    "Arrival": "repro.tune.workload",
    "WorkloadPhase": "repro.tune.workload",
    "WorkloadSpec": "repro.tune.workload",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "ARRIVAL_PATTERNS",
    "AdaptiveController",
    "Arrival",
    "Candidate",
    "CostModel",
    "EngineLoadSnapshot",
    "TrialMetrics",
    "TrialResult",
    "TuneOutcome",
    "WorkloadPhase",
    "WorkloadSpec",
    "default_candidates",
    "degrade_steps",
    "grid_search",
    "quality_rank",
    "render_report",
    "score_metrics",
    "simulate_trial",
]
