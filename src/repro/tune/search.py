"""Successive-halving search over serve-engine knob configurations.

The classic multi-fidelity racing scheme: every surviving candidate is
simulated on a *prefix* of the workload's arrival trace, the weaker half
is dropped, and the fidelity doubles — so a budget of N candidates costs
roughly 2N cheap-trial-equivalents instead of N full replays, and the
final rung always scores the survivors on the complete trace.

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

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api.config import PipelineConfig, TuneConfig
from repro.tune.simulate import Candidate, CostModel, TrialMetrics, simulate_trial
from repro.tune.workload import Arrival, WorkloadSpec

#: Default grid axes (order fixed: it is part of the deterministic
#: contract — ``--budget`` trims this enumeration, never reorders it).
DEFAULT_POLICIES = ("greedy", "shape_bucketed", "fair_share", "adaptive")
DEFAULT_QUEUE_LIMITS = (None, 64)
DEFAULT_SAMPLER_STEPS = ("full", 32, "bucketed")

#: Fewest arrivals a low-fidelity rung may score a candidate on.
MIN_FIDELITY_ARRIVALS = 8


def _fidelity_subset(arrivals: List[Arrival], fidelity: float) -> List[Arrival]:
    """A shape-preserving subsample of the trace at the given fidelity.

    Each phase contributes its earliest ``round(len * fidelity)``
    arrivals (at least one), so a mid-trace spike survives every rung —
    a plain prefix would score cheap rungs only on the calm lead-in and
    eliminate exactly the candidates the spike is meant to separate.
    """
    if fidelity >= 1.0:
        return list(arrivals)
    floor = min(MIN_FIDELITY_ARRIVALS, len(arrivals))
    fidelity = max(fidelity, floor / max(1, len(arrivals)))
    by_phase: "OrderedDict[int, List[Arrival]]" = OrderedDict()
    for arrival in arrivals:
        by_phase.setdefault(arrival.phase, []).append(arrival)
    subset: List[Arrival] = []
    for group in by_phase.values():
        group.sort(key=lambda a: a.at)
        subset.extend(group[: max(1, int(round(len(group) * fidelity)))])
    subset.sort(key=lambda a: a.at)
    return subset


def default_candidates(
    policies: Sequence[str] = DEFAULT_POLICIES,
    queue_limits: Sequence[Optional[int]] = DEFAULT_QUEUE_LIMITS,
    sampler_steps: Sequence = DEFAULT_SAMPLER_STEPS,
) -> List[Candidate]:
    """The full knob grid, in stable enumeration order.

    The ``adaptive`` policy owns its quality schedule (that is the point
    of it), so it is only paired with ``sampler_steps="full"`` — the
    other combinations would just pre-degrade what the controller
    manages dynamically.
    """
    grid: List[Candidate] = []
    # Policy is the innermost axis so a small ``--budget`` prefix still
    # races every policy against each other instead of e.g. only greedy.
    for limit in queue_limits:
        for steps in sampler_steps:
            for policy in policies:
                if policy == "adaptive" and steps != "full":
                    continue
                grid.append(
                    Candidate(
                        policy=policy,
                        queue_limit=limit,
                        sampler_steps=steps,
                    )
                )
    return grid


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
    """One (candidate, fidelity) simulation and its score."""

    candidate: Candidate
    metrics: TrialMetrics
    rung: int
    fidelity: float
    score: Tuple

    def as_dict(self) -> dict:
        return {
            "candidate": self.candidate.as_dict(),
            "key": self.candidate.key(),
            "rung": self.rung,
            "fidelity": round(self.fidelity, 4),
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
    trials: List[TrialResult]
    rungs: int
    candidates: int

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


def successive_halving(
    spec: WorkloadSpec,
    candidates: Optional[Sequence[Candidate]] = None,
    tune: Optional[TuneConfig] = None,
    cost: Optional[CostModel] = None,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
    gather_window: float = 0.02,
    max_batch: int = 64,
) -> TuneOutcome:
    """Race candidate configs over the spec's seeded arrival trace.

    ``budget`` caps how many grid points enter rung 0 (a deterministic
    prefix of the stable enumeration).  ``seed`` overrides the spec's
    own arrival seed.
    """
    tune = tune if tune is not None else TuneConfig()
    cost = cost if cost is not None else CostModel()
    pool = list(candidates) if candidates is not None else default_candidates()
    if budget is not None:
        if budget < 1:
            raise ValueError("budget must be >= 1 candidates")
        pool = pool[:budget]
    if not pool:
        raise ValueError("no candidates to search")
    arrivals = spec.arrivals(seed)
    if not arrivals:
        raise ValueError(f"workload {spec.name!r} produced no arrivals")
    used_seed = spec.seed if seed is None else seed
    rungs = max(1, math.ceil(math.log2(len(pool)))) if len(pool) > 1 else 1
    survivors = pool
    trials: List[TrialResult] = []
    final_rung: List[TrialResult] = []
    for rung in range(rungs):
        fidelity = 1.0 / (2 ** (rungs - 1 - rung))
        subset = _fidelity_subset(arrivals, fidelity)
        results = []
        for candidate in survivors:
            metrics = simulate_trial(
                candidate,
                subset,
                tune=tune,
                cost=cost,
                gather_window=gather_window,
                max_batch=max_batch,
            )
            results.append(
                TrialResult(
                    candidate=candidate,
                    metrics=metrics,
                    rung=rung,
                    fidelity=len(subset) / len(arrivals),
                    score=score_metrics(metrics, tune.slo_p95),
                )
            )
        # Best first; the stable key string settles exact score ties.
        results.sort(key=lambda t: (t.score, t.candidate.key()), reverse=True)
        trials.extend(results)
        final_rung = results
        survivors = [
            t.candidate for t in results[: max(1, len(results) // 2)]
        ]
    return TuneOutcome(
        workload=spec.name,
        seed=used_seed,
        slo_p95=tune.slo_p95,
        winner=final_rung[0],
        trials=trials,
        rungs=rungs,
        candidates=len(pool),
    )
