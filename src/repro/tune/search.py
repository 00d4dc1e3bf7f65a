"""Grid search over serve-engine knob configurations.

Every candidate of the (small) knob grid is simulated on the workload's
complete arrival trace, so each is judged on the traffic that separates
it from the others, spikes included.

Scoring is lexicographic (:func:`score_metrics`): meet the p95 SLO
without shedding load first, then maximize delivered sampler quality,
then minimize p95 latency, then maximize throughput.  Ties — including
the everything-meets-SLO easy workloads — break on the candidate's
stable ``key()`` string, which keeps the whole search deterministic for
a fixed spec + seed (the ``repro tune`` acceptance contract).

The output is a :class:`TuneOutcome`: every trial for the report, plus
``tuned_config()`` grafting the winner's knobs onto a base
:class:`~repro.api.config.PipelineConfig` (what ``repro tune -o`` saves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api.config import SERVE_POLICIES, PipelineConfig, TuneConfig
from repro.tune.simulate import Candidate, CostModel, TrialMetrics, simulate_trial
from repro.tune.workload import WorkloadSpec

#: Default grid axes (order fixed: the enumeration order is part of the
#: deterministic contract).
DEFAULT_SAMPLER_STEPS = ("full", 32, "bucketed")


def default_candidates(
    policies: Sequence[str] = SERVE_POLICIES,
    sampler_steps: Sequence = DEFAULT_SAMPLER_STEPS,
) -> List[Candidate]:
    """The full knob grid, in stable enumeration order.

    The ``adaptive`` policy owns its quality schedule (that is the point
    of it), so it is only paired with ``sampler_steps="full"`` — the
    other combinations would just pre-degrade what the controller
    manages dynamically.  The queue limit is not searched: it is the
    overload guard, and it never changed a candidate's score.
    """
    return [
        Candidate(policy=policy, sampler_steps=steps)
        for steps in sampler_steps
        for policy in policies
        if policy != "adaptive" or steps == "full"
    ]


def score_metrics(metrics: TrialMetrics, slo_p95: float) -> Tuple:
    """Lexicographic goodness of one trial (bigger wins).

    Inside the SLO, quality is the prize: a config that holds p95 while
    delivering more sampler steps beats one that holds it degraded.
    Outside the SLO the priorities flip — get *close* to the latency bar
    first, quality second (full quality at triple the SLO helps nobody).
    Shedding load (rejections) disqualifies a candidate from the
    "holds the SLO" tier — a config that 429s its way under the latency
    bar did not actually serve the workload.
    """
    holds_slo = int(metrics.p95_latency <= slo_p95 and metrics.rejected == 0)
    if holds_slo:
        return (
            1,
            round(metrics.quality, 6),
            -round(metrics.p95_latency, 6),
            0,
            round(metrics.throughput, 3),
        )
    return (
        0,
        -round(metrics.p95_latency, 6),
        round(metrics.quality, 6),
        -metrics.rejected,
        round(metrics.throughput, 3),
    )


@dataclass
class TrialResult:
    """One candidate's full-trace simulation and its score."""

    candidate: Candidate
    metrics: TrialMetrics
    score: Tuple

    def as_dict(self) -> dict:
        return {
            "candidate": self.candidate.as_dict(),
            "key": self.candidate.key(),
            "metrics": self.metrics.as_dict(),
            "score": list(self.score),
        }


@dataclass
class TuneOutcome:
    """Everything one ``repro tune`` run decided and measured."""

    workload: str
    seed: int
    slo_p95: float
    winner: TrialResult
    #: every candidate's trial, best first
    trials: List[TrialResult]

    def tuned_config(self, base: Optional[PipelineConfig] = None) -> PipelineConfig:
        """The winner's knobs grafted onto ``base`` (default config if
        omitted) — the JSON ``repro tune -o`` emits, loadable by
        ``PipelineConfig.load`` and servable as-is."""
        base = base if base is not None else PipelineConfig()
        won = self.winner.candidate
        return base.replace(
            serve=base.serve.replace(
                policy=won.policy,
                queue_limit=won.queue_limit,
            ),
            sample=base.sample.replace(sampler_steps=won.sampler_steps),
        )


def grid_search(
    spec: WorkloadSpec,
    candidates: Optional[Sequence[Candidate]] = None,
    tune: Optional[TuneConfig] = None,
    cost: Optional[CostModel] = None,
    seed: Optional[int] = None,
    gather_window: float = 0.02,
    max_batch: int = 64,
) -> TuneOutcome:
    """Score every candidate on the spec's seeded arrival trace.

    ``candidates`` defaults to :func:`default_candidates`; ``seed``
    overrides the spec's own arrival seed.
    """
    tune = tune if tune is not None else TuneConfig()
    cost = cost if cost is not None else CostModel()
    pool = list(candidates) if candidates is not None else default_candidates()
    if not pool:
        raise ValueError("no candidates to search")
    arrivals = spec.arrivals(seed)
    if not arrivals:
        raise ValueError(f"workload {spec.name!r} produced no arrivals")
    trials = []
    for candidate in pool:
        metrics = simulate_trial(
            candidate,
            arrivals,
            tune=tune,
            cost=cost,
            gather_window=gather_window,
            max_batch=max_batch,
        )
        trials.append(
            TrialResult(
                candidate=candidate,
                metrics=metrics,
                score=score_metrics(metrics, tune.slo_p95),
            )
        )
    # Best first; the stable key string settles exact score ties.
    trials.sort(key=lambda t: (t.score, t.candidate.key()), reverse=True)
    return TuneOutcome(
        workload=spec.name,
        seed=spec.seed if seed is None else seed,
        slo_p95=tune.slo_p95,
        winner=trials[0],
        trials=trials,
    )
