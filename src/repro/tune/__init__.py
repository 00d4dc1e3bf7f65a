"""Self-tuning serve performance: the SLO-driven tuning subsystem.

Two halves share one vocabulary (:class:`~repro.api.config.TuneConfig`,
the latency SLO and hysteresis knobs):

- **Online** — :class:`~repro.tune.controller.AdaptiveController`, the
  pure hysteresis controller behind the engine's ``adaptive`` batch
  policy (:class:`~repro.serve.engine.AdaptivePolicy`): under queue
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
inside :func:`~repro.tune.simulate.simulate_trial`.
"""

from repro.tune.controller import (
    AdaptiveController,
    EngineLoadSnapshot,
    degrade_steps,
    quality_rank,
)
from repro.tune.report import render_report
from repro.tune.search import (
    Candidate,
    TrialResult,
    TuneOutcome,
    default_candidates,
    grid_search,
    score_metrics,
)
from repro.tune.simulate import CostModel, TrialMetrics, simulate_trial
from repro.tune.workload import (
    ARRIVAL_PATTERNS,
    Arrival,
    WorkloadPhase,
    WorkloadSpec,
)

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
