"""Workload specs: the input vocabulary of the offline tuner.

A workload spec is a small JSON document describing the traffic a
deployment expects — phases of request arrivals (rate, arrival process,
samples per request, shape, source tag, optionally a per-phase step
schedule), e.g. a steady trickle followed by a spike.  ``repro tune``
replays the spec through the discrete-event engine simulator for every
candidate knob configuration.

Arrival times are *seeded*: :meth:`WorkloadSpec.arrivals` derives every
inter-arrival draw from one ``numpy`` generator, so the same spec + seed
always produces the identical request trace — the foundation of the
tuner's same-seed → same-winner determinism guarantee.

Example spec::

    {
      "name": "spike",
      "seed": 7,
      "phases": [
        {"duration": 4.0, "rate": 2.0, "count": 2},
        {"duration": 2.0, "rate": 20.0, "count": 2, "source": "bulk"},
        {"duration": 4.0, "rate": 2.0, "count": 2}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.api.config import ConfigError, StageConfig
from repro.diffusion.schedule import validate_sampler_steps

#: Supported arrival processes within a phase.
ARRIVAL_PATTERNS = ("poisson", "uniform", "burst")


@dataclass(frozen=True)
class WorkloadPhase(StageConfig):
    """One phase of traffic: a rate held for a duration.

    ``arrival`` picks the process: ``poisson`` draws exponential
    inter-arrival gaps (seeded), ``uniform`` spaces requests evenly, and
    ``burst`` drops the phase's whole request budget at the phase start —
    the spike shape that makes static policies miss their SLO.
    ``sampler_steps`` optionally pins the quality this phase's requests
    ask for; ``null`` (the default) means they run the tuned config's
    default schedule.
    """

    duration: float = 1.0
    rate: float = 1.0
    count: int = 2
    shape: Tuple[int, int] = (64, 64)
    source: str = "default"
    sampler_steps: Union[str, int, None] = None
    arrival: str = "poisson"

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError("phase duration must be > 0 seconds")
        if self.rate < 0:
            raise ConfigError("phase rate must be >= 0 requests/sec")
        if self.count < 1:
            raise ConfigError("phase count must be >= 1 samples/request")
        if (
            len(self.shape) != 2
            or any(int(s) < 1 for s in self.shape)
        ):
            raise ConfigError(
                f"phase shape must be two positive ints, got {self.shape!r}"
            )
        if self.arrival not in ARRIVAL_PATTERNS:
            raise ConfigError(
                f"unknown arrival pattern {self.arrival!r}; known: "
                f"{sorted(ARRIVAL_PATTERNS)}"
            )
        if self.sampler_steps is not None:
            try:
                validate_sampler_steps(self.sampler_steps)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class Arrival:
    """One request of the derived trace (sorted by ``at``).

    ``phase`` records which spec phase (by index) produced the request.
    """

    at: float
    count: int
    shape: Tuple[int, int]
    source: str
    sampler_steps: Union[str, int, None]
    phase: int = 0


@dataclass(frozen=True)
class WorkloadSpec(StageConfig):
    """A named, seeded sequence of traffic phases."""

    name: str = "workload"
    seed: int = 0
    phases: Tuple[WorkloadPhase, ...] = ()

    def __post_init__(self):
        if not self.phases:
            raise ConfigError("a workload needs at least one phase")
        if not isinstance(self.seed, int):
            raise ConfigError(f"workload seed must be an int, got {self.seed!r}")
        normalized = tuple(
            phase
            if isinstance(phase, WorkloadPhase)
            else WorkloadPhase.from_dict(dict(phase))
            for phase in self.phases
        )
        object.__setattr__(self, "phases", normalized)

    # -- dict/JSON round-trip (nested phases need explicit plumbing) ---

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "phases": [phase.as_dict() for phase in self.phases],
        }

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadSpec":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid workload JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    # -- derived properties -------------------------------------------

    @property
    def duration(self) -> float:
        return sum(phase.duration for phase in self.phases)

    @property
    def expected_requests(self) -> int:
        return int(
            round(sum(phase.duration * phase.rate for phase in self.phases))
        )

    def arrivals(self, seed: Optional[int] = None) -> List[Arrival]:
        """Derive the seeded request trace (same seed → same trace)."""
        rng = np.random.default_rng(self.seed if seed is None else seed)
        out: List[Arrival] = []
        t0 = 0.0
        for index, phase in enumerate(self.phases):
            budget = int(round(phase.duration * phase.rate))
            times: List[float] = []
            if phase.arrival == "poisson" and phase.rate > 0:
                t = t0
                while True:
                    t += float(rng.exponential(1.0 / phase.rate))
                    if t >= t0 + phase.duration:
                        break
                    times.append(t)
            elif phase.arrival == "uniform" and budget > 0:
                gap = phase.duration / budget
                times = [t0 + i * gap for i in range(budget)]
            elif phase.arrival == "burst":
                times = [t0] * budget
            for t in times:
                out.append(
                    Arrival(
                        at=t,
                        count=phase.count,
                        shape=tuple(int(s) for s in phase.shape),
                        source=phase.source,
                        sampler_steps=phase.sampler_steps,
                        phase=index,
                    )
                )
            t0 += phase.duration
        out.sort(key=lambda a: a.at)
        return out
