"""The hysteresis controller behind the ``adaptive`` batch policy.

The controller is the *decision* half of online self-tuning; the engine
half (building :class:`EngineLoadSnapshot` views and applying the chosen
degrade level to selected jobs) lives in
:class:`~repro.serve.engine.ServeEngine`, which ticks the controller it
is given.  Splitting them keeps this
module pure — config + arithmetic, no threads, no engine imports — so the
engine can import it without a cycle.

Mechanics: each tick classifies the engine's load as *pressured*, *calm*
or neutral.  ``degrade_after`` consecutive pressured ticks step the
degrade level down one rung of ``TuneConfig.degrade_ladder`` (level 0 =
full requested quality); ``restore_after`` consecutive calm ticks step it
back up.  The two streak counters give hysteresis: a single noisy tick in
either direction resets the opposing streak, so the level never flaps.
An idle engine is by construction calm — the no-stuck-degraded guarantee
(property-tested) is that ``levels * restore_after`` idle ticks always
walk the controller back to level 0.

Degraded quality is bounded twice: per-job, a degrade never *upgrades*
(a job that asked for ``"bucketed"`` stays bucketed when the ladder says
32), and globally ``floor_steps`` clamps every rung, so no job ever runs
below the configured quality floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.api.config import TuneConfig

#: An explicit step-schedule spec (``None`` means "model default", which
#: the quality ordering treats as full quality).
SamplerSpec = Union[str, int, None]

#: Quality rank of the full schedule: above any int step count.
FULL_RANK = 1 << 30


def quality_rank(spec: SamplerSpec) -> int:
    """Total order over step schedules: more denoiser evals = higher.

    ``"full"``/``None`` rank highest, an int ranks as itself, and
    ``"bucketed"`` (the collapsed ~16-eval fast path) ranks lowest — it
    visits fewer representative steps than any schedule a caller would
    spell as an int.
    """
    if spec is None or spec == "full":
        return FULL_RANK
    if spec == "bucketed":
        return 0
    return int(spec)


def degrade_steps(requested: SamplerSpec, candidate: SamplerSpec) -> SamplerSpec:
    """The candidate schedule, unless it would *upgrade* the request."""
    if quality_rank(candidate) >= quality_rank(requested):
        return requested
    return candidate


@dataclass(frozen=True)
class EngineLoadSnapshot:
    """One thread-consistent view of engine load, the controller's input.

    Built by the engine under its queue lock
    (:meth:`~repro.serve.engine.ServeEngine.load_snapshot`), on wall time
    when serving and on virtual time in the offline tuner.  ``at`` is a
    ``perf_counter``-style instant used only for tick rate-limiting;
    ``queue_wait_p95`` is the *windowed* p95 of ``repro_queue_wait_seconds``
    (observations since the previous snapshot, not since boot), so the
    signal decays as soon as pressure does.
    """

    at: float
    queue_depth: int
    queued_samples: int
    oldest_wait: float
    queue_wait_p95: float
    busy_fraction: float


class AdaptiveController:
    """SLO-holding hysteresis over degrade levels.

    Not internally locked: the live engine only ticks it under the queue
    lock, and the simulator is single-threaded.  ``level`` is the current
    degrade depth — 0 means full requested quality, ``i >= 1`` means
    ``degrade_ladder[i - 1]`` (floor-clamped) is in force.
    """

    def __init__(self, config: Optional[TuneConfig] = None):
        self.config = config if config is not None else TuneConfig()
        self.level = 0
        #: lifetime transition counts, mirrored into the engine's
        #: ``repro_adaptive_degrade_total`` counter by its tick
        self.degrades = 0
        self.restores = 0
        self._pressure_streak = 0
        self._calm_streak = 0
        self._last_tick: Optional[float] = None

    @property
    def levels(self) -> int:
        """Deepest degrade level (= rungs on the ladder)."""
        return len(self.config.degrade_ladder)

    def due(self, now: float) -> bool:
        """Whether a tick at ``now`` would be observed (rate limit)."""
        return (
            self._last_tick is None
            or now - self._last_tick >= self.config.tick_interval
        )

    # -- load classification ------------------------------------------

    def pressured(self, snapshot: EngineLoadSnapshot) -> bool:
        """Load that, sustained, would miss the SLO: degrade evidence."""
        cfg = self.config
        return (
            snapshot.queue_depth >= cfg.queue_high
            or snapshot.queue_wait_p95 > 0.5 * cfg.slo_p95
            or snapshot.oldest_wait > 0.5 * cfg.slo_p95
        )

    def calm(self, snapshot: EngineLoadSnapshot) -> bool:
        """Load comfortably inside the SLO: restore evidence.

        Deliberately stricter than ``not pressured()`` — the band between
        the two is neutral and resets both streaks, which is what makes
        the hysteresis sticky instead of flappy.
        """
        cfg = self.config
        return (
            snapshot.queue_depth <= cfg.queue_low
            and snapshot.queue_wait_p95 <= 0.25 * cfg.slo_p95
            and snapshot.oldest_wait <= 0.25 * cfg.slo_p95
        )

    # -- the tick ------------------------------------------------------

    def observe(self, snapshot: EngineLoadSnapshot) -> int:
        """Consume one load snapshot; returns the (possibly new) level."""
        if not self.due(snapshot.at):
            return self.level
        self._last_tick = snapshot.at
        if self.pressured(snapshot):
            self._calm_streak = 0
            self._pressure_streak += 1
            if (
                self._pressure_streak >= self.config.degrade_after
                and self.level < self.levels
            ):
                self.level += 1
                self.degrades += 1
                self._pressure_streak = 0
        elif self.calm(snapshot):
            self._pressure_streak = 0
            self._calm_streak += 1
            if (
                self._calm_streak >= self.config.restore_after
                and self.level > 0
            ):
                self.level -= 1
                self.restores += 1
                self._calm_streak = 0
        else:
            self._pressure_streak = 0
            self._calm_streak = 0
        return self.level

    # -- what the current level means ----------------------------------

    def effective_steps(self, requested: SamplerSpec) -> SamplerSpec:
        """The schedule a job runs at the current level.

        Level 0 passes the request through.  Deeper levels substitute the
        ladder rung, clamped so it never drops below ``floor_steps`` and
        never upgrades what the job asked for.
        """
        if self.level == 0:
            return requested
        candidate = self.config.degrade_ladder[self.level - 1]
        if quality_rank(candidate) < quality_rank(self.config.floor_steps):
            candidate = self.config.floor_steps
        return degrade_steps(requested, candidate)

    def gather_scale(self) -> float:
        """Gather-window multiplier: wider batching while degraded."""
        return self.config.gather_boost ** self.level

    def reset(self) -> None:
        """Back to level 0 with clean streaks (lifetime counts remain)."""
        self.level = 0
        self._pressure_streak = 0
        self._calm_streak = 0
        self._last_tick = None
