"""Deterministic discrete-event simulation of the serving engine.

The offline tuner needs *reproducible* trials: the acceptance contract of
``repro tune`` is "same workload spec + same seed → same winning config",
which wall-clock runs against a live engine cannot promise (thread
scheduling, machine load).  So each candidate config is scored by
replaying the arrival trace through a real, never-started
:class:`~repro.serve.engine.ServeEngine` on virtual time: admission
(``queue_limit`` rejection), fair-share selection, the adaptive
controller's ticks and gather widening, trajectory planning and
the load snapshot are the engine's own code, handed simulated instants
as their ``now`` arguments, and so is the decision whether to keep
gathering.  This module keeps only the event loop — when the worker
frees up, the gather wait, the tick replay — and the cost of each
trajectory.

Execution cost comes from :class:`CostModel`: a trajectory costs a fixed
dispatch overhead plus, per denoiser evaluation, a batch-size-independent
base (the cost batching amortizes) and a per-sample increment.  The
defaults are an unfit placeholder until they are fit to measured
trajectory timings: ``full_steps = 128`` predates the default full chain's
82 evals and the per-step split was never fit to the kernel.  Absolute
seconds don't matter — the tuner only needs the *ranking* of candidates
to be faithful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.api.config import ConfigError, SERVE_POLICIES, StageConfig, TuneConfig
from repro.diffusion.schedule import validate_sampler_steps
from repro.obs.metrics import MetricsRegistry
from repro.tune.controller import AdaptiveController
from repro.tune.workload import Arrival


@dataclass(frozen=True)
class CostModel(StageConfig):
    """Virtual execution cost of one batched trajectory.

    ``batch_seconds = batch_overhead + evals * (step_base +
    step_per_sample * samples)``.  The defaults are an unfit placeholder:
    ``full_steps = 128`` overstates the default full chain (82 evals), and
    the fixed per-step component is not what the kernel measures.  They
    stay as they are so tuner output does not move until the model is fit
    to measured trajectory timings.
    """

    batch_overhead: float = 0.004
    step_base: float = 0.0020
    step_per_sample: float = 0.00025
    full_steps: int = 128
    bucketed_steps: int = 16

    def __post_init__(self):
        if min(self.batch_overhead, self.step_base, self.step_per_sample) < 0:
            raise ConfigError("cost-model components must be >= 0")
        if self.bucketed_steps < 1 or self.full_steps < self.bucketed_steps:
            raise ConfigError("need full_steps >= bucketed_steps >= 1")

    def evals(self, spec: Union[str, int, None]) -> int:
        """Denoiser evaluations of one schedule spec."""
        if spec is None or spec == "full":
            return self.full_steps
        if spec == "bucketed":
            return self.bucketed_steps
        return max(1, min(int(spec), self.full_steps))

    def batch_seconds(self, samples: int, spec: Union[str, int, None]) -> float:
        return self.batch_overhead + self.evals(spec) * (
            self.step_base + self.step_per_sample * samples
        )


@dataclass(frozen=True)
class Candidate(StageConfig):
    """One point of the tuner's search space: the three searched knobs."""

    policy: str = "fair_share"
    queue_limit: Optional[int] = None
    sampler_steps: Union[str, int] = "full"

    def __post_init__(self):
        if self.policy not in SERVE_POLICIES:
            raise ConfigError(
                f"unknown serve policy {self.policy!r}; known: "
                f"{sorted(SERVE_POLICIES)}"
            )
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1 (or null)")
        try:
            validate_sampler_steps(self.sampler_steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def key(self) -> str:
        """Stable human-readable identity (also the search tie-breaker)."""
        limit = "inf" if self.queue_limit is None else str(self.queue_limit)
        return f"{self.policy}/q{limit}/s{self.sampler_steps}"


@dataclass
class TrialMetrics:
    """What one simulated trial measured."""

    requests: int
    completed: int
    rejected: int
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_latency: float
    throughput: float
    quality: float
    degrades: int
    restores: int
    final_level: int
    makespan: float

    def as_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "p50_latency": round(self.p50_latency, 4),
            "p95_latency": round(self.p95_latency, 4),
            "p99_latency": round(self.p99_latency, 4),
            "mean_latency": round(self.mean_latency, 4),
            "throughput": round(self.throughput, 2),
            "quality": round(self.quality, 4),
            "degrades": self.degrades,
            "restores": self.restores,
            "final_level": self.final_level,
            "makespan": round(self.makespan, 4),
        }


def _percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank-with-interpolation percentile over a sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


def simulate_trial(
    candidate: Candidate,
    arrivals: List[Arrival],
    tune: Optional[TuneConfig] = None,
    cost: Optional[CostModel] = None,
    gather_window: float = 0.02,
    max_batch: int = 64,
) -> TrialMetrics:
    """Replay one arrival trace through an engine built from a candidate."""
    # Imported here: repro.serve.engine imports repro.tune.controller,
    # which loads this package, so a top-level import would cycle.
    from repro.serve.engine import EngineJob, QueueFullError, ServeEngine

    tune = tune if tune is not None else TuneConfig()
    cost = cost if cost is not None else CostModel()
    controller = (
        AdaptiveController(tune) if candidate.policy == "adaptive" else None
    )
    # Never started and given no model (the cost model prices each
    # trajectory instead): nothing else touches its queue, so its
    # ``*_locked`` helpers run here without the lock.  It gets a registry
    # of its own because ``metrics=None`` would report into the
    # process-wide one.
    engine = ServeEngine(
        None,
        controller=controller,
        queue_limit=candidate.queue_limit,
        gather_window=gather_window,
        max_batch=max_batch,
        metrics=MetricsRegistry(),
    )
    # What each job *wants* (the quality denominator): the arrival's
    # explicit ask, else full quality.  What it *runs* is its
    # ``sampler_steps``: the explicit ask wins (a job-level override on
    # the live engine), otherwise the candidate's default schedule — so a
    # statically degraded candidate pays for it in delivered quality,
    # exactly like an adaptive degrade does.
    wanted: Dict[EngineJob, Union[str, int]] = {}
    free_at = 0.0  # when the worker finishes its current batch
    interval = max(tune.tick_interval, 1e-3)
    next_tick = interval
    latencies: List[float] = []
    qualities: List[float] = []
    rejected = completed_samples = 0
    i = 0

    def advance(until: float) -> None:
        """Admit arrivals and replay controller ticks, in time order, up
        to ``until``.  The live worker ticks on its own cadence; a replay
        every ``tick_interval`` lets the adaptive controller's pressured
        and calm streaks accrue while a long batch runs."""
        nonlocal i, next_tick, rejected
        while True:
            at = arrivals[i].at if i < len(arrivals) else math.inf
            if next_tick <= until and next_tick < at:
                engine._tick_locked(next_tick)
                next_tick += interval
            elif at <= until:
                arrival = arrivals[i]
                i += 1
                ask = arrival.sampler_steps
                job = EngineJob(
                    count=arrival.count,
                    condition=None,
                    shape=arrival.shape,
                    sampler_steps=(
                        ask if ask is not None else candidate.sampler_steps
                    ),
                    source=arrival.source,
                )
                job.submitted_at = arrival.at
                try:
                    engine.submit_job(job)
                except QueueFullError:
                    rejected += 1
                    continue
                wanted[job] = ask if ask is not None else "full"
            else:
                return

    while True:
        now = free_at
        advance(now)
        if not engine._jobs:
            if i >= len(arrivals):
                break
            now = arrivals[i].at
            advance(now)
        # Gather: wait for coalescing arrivals up to the engine's window
        # (which the adaptive controller widens while degraded), for as
        # long as the engine's own gather rule says so.  No simulated
        # arrival opens a request, so only the window and a full batch
        # end the wait.
        start = now
        if engine._gathering_locked():
            gather_end = now + engine.gather_window
            while (
                i < len(arrivals)
                and arrivals[i].at <= gather_end
                and engine._gathering_locked()
            ):
                start = arrivals[i].at
                advance(start)
            if engine._gathering_locked():
                start = gather_end
        advance(start)
        # The engine's plans run back to back on its worker.
        t = start
        for plan in engine._plan(engine._select_locked(), start):
            seconds = cost.batch_seconds(plan.samples, plan.sampler_steps)
            engine._account(plan, t, seconds)
            t += seconds
            for job in plan.jobs:
                latencies.append(t - job.submitted_at)
                qualities.append(
                    min(
                        1.0,
                        cost.evals(plan.sampler_steps)
                        / max(1, cost.evals(wanted.pop(job))),
                    )
                )
            completed_samples += plan.samples
        free_at = t

    latencies.sort()
    makespan = max(free_at, arrivals[-1].at if arrivals else 0.0)
    return TrialMetrics(
        requests=len(arrivals),
        completed=len(latencies),
        rejected=rejected,
        p50_latency=_percentile(latencies, 50.0),
        p95_latency=_percentile(latencies, 95.0),
        p99_latency=_percentile(latencies, 99.0),
        mean_latency=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        throughput=(
            completed_samples / makespan if makespan > 0 else 0.0
        ),
        quality=(sum(qualities) / len(qualities) if qualities else 0.0),
        degrades=controller.degrades if controller is not None else 0,
        restores=controller.restores if controller is not None else 0,
        final_level=controller.level if controller is not None else 0,
        makespan=makespan,
    )
