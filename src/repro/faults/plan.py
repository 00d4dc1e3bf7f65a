"""Deterministic, seed-driven fault injection for the serve stack.

Every component that can fail in production carries a *named fault site* —
a single ``faults.fire("site.name")`` call placed exactly where the real
failure would surface (the ``open()`` that reads a registry entry, the
engine's batch execute, the store's journal fsync...).  In normal
operation the installed plan is :data:`NULL_FAULTS` and ``fire`` is a
dictionary-free no-op; under test or chaos-smoke a :class:`FaultPlan` is
installed and selected sites raise or sleep on a deterministic schedule.

Design rules:

- **Deterministic by default.**  Rules trigger on exact call counts
  (``nth``) so a seeded plan produces the same failure sequence every
  run.  Probabilistic rules exist for soak-style sweeps but the chaos
  suite pins everything with ``nth``/``times``.
- **The site is the contract.**  Site names are registered in
  :data:`FAULT_SITES`; plans naming unknown sites fail validation, so a
  refactor that drops a seam breaks loudly instead of silently
  un-testing a failure path.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultInjected",
    "FaultPoint",
    "FaultPlan",
    "NullFaultPlan",
    "NULL_FAULTS",
    "SimulatedCrash",
    "active_plan",
    "fire",
    "injected",
    "install",
    "parse_fault_spec",
    "reset",
    "validate_point",
]

#: Every named injection site in the stack.  Adding a seam means adding
#: its name here *and* placing the ``fire`` call; plans referencing
#: unknown sites are rejected at validation time.
FAULT_SITES: Tuple[str, ...] = (
    "registry.disk_read",       # ModelRegistry._load_from_disk, per attempt
    "registry.disk_write",      # ModelRegistry._save_to_disk
    "engine.execute",           # before a trajectory runs on a worker
    "http.accept",              # per accepted HTTP connection
    "http.respond",             # before a response is written
    "store.object_write",       # LibraryStore pattern .npz write
    "store.journal_append",     # after the journal line is written, pre-fsync
    "store.journal_sync",       # after the journal fsync, pre index mutate
    "store.flush_tmp",          # after the tmp index is written + fsynced
    "store.flush_publish",      # after os.replace published the new index
    "store.flush_compact",      # after the journal was compacted
)

_MODES = ("error", "latency")
# Compact-spec spellings of the ``crash`` flag; anything else is rejected.
_CRASH_FLAGS = {
    "1": True, "0": False, "true": True, "false": False,
    "yes": True, "no": False,
}


class FaultError(RuntimeError):
    """Base class of every injected failure.  Carries a stable code."""

    code = "fault_injected"


class FaultInjected(FaultError):
    """The default injected error: a generic runtime failure at a seam."""


class SimulatedCrash(FaultError):
    """An injected *crash*: the caller must treat the process as dead.

    Used by the store/job kill-point tests: raising this at a kill site
    and then reopening a fresh instance reproduces the exact on-disk
    state a real ``SIGKILL`` at that point would leave behind, without
    sacrificing a subprocess per data point.
    """

    code = "simulated_crash"


@dataclass(frozen=True)
class FaultPoint:
    """One injection rule: *where*, *how*, and *when* to fail.

    ``site``
        A name from :data:`FAULT_SITES`, or a prefix wildcard such as
        ``"store.*"`` matching every site under that component.
    ``mode``
        ``"error"`` raises (``crash=False`` → :class:`FaultInjected`,
        ``crash=True`` → :class:`SimulatedCrash`); ``"latency"`` sleeps
        ``delay`` seconds then continues.
    ``nth``
        1-based call index at that site on which the rule becomes
        eligible; ``None`` means every call is eligible.
    ``times``
        Maximum number of firings (``None`` = unlimited).  An ``nth``
        rule implicitly fires at most once per counter stream.
    ``probability``
        Chance an eligible call actually fires, drawn from the plan's
        seeded RNG — deterministic for a fixed seed and call order.
    """

    site: str
    mode: str = "error"
    nth: Optional[int] = None
    times: Optional[int] = None
    probability: float = 1.0
    delay: float = 0.0
    crash: bool = False
    message: str = ""

    def __post_init__(self):
        validate_point(self.as_dict())

    def as_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "mode": self.mode,
            "nth": self.nth,
            "times": self.times,
            "probability": self.probability,
            "delay": self.delay,
            "crash": self.crash,
            "message": self.message,
        }

    def matches(self, site: str) -> bool:
        if self.site.endswith(".*"):
            return site.startswith(self.site[:-1])
        return site == self.site


def _is_int(value) -> bool:
    """An int that is not a bool (``True`` is an ``int`` subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_point(data: Mapping[str, object]) -> Dict[str, object]:
    """Validate one fault-point mapping; returns a normalized dict.

    Shared by :class:`FaultPoint` itself and ``FaultConfig`` in
    :mod:`repro.api.config` (which stores points as plain dicts so the
    config layer stays JSON-round-trippable without importing runtime
    classes into its schema).
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"fault point must be a mapping, got {type(data).__name__}")
    known = {
        "site", "mode", "nth", "times", "probability", "delay", "crash",
        "message",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown fault point fields: {sorted(unknown)}")
    site = data.get("site")
    if not isinstance(site, str) or not site:
        raise ValueError("fault point requires a non-empty 'site'")
    if site.endswith(".*"):
        prefix = site[:-1]
        if not any(name.startswith(prefix) for name in FAULT_SITES):
            raise ValueError(f"fault site pattern {site!r} matches no known site")
    elif site not in FAULT_SITES:
        raise ValueError(
            f"unknown fault site {site!r}; known sites: {', '.join(FAULT_SITES)}"
        )
    mode = data.get("mode", "error")
    if mode not in _MODES:
        raise ValueError(f"fault mode must be one of {_MODES}, got {mode!r}")
    nth = data.get("nth")
    if nth is not None and (not _is_int(nth) or nth < 1):
        raise ValueError(f"fault 'nth' must be a positive int, got {nth!r}")
    times = data.get("times")
    if times is not None and (not _is_int(times) or times < 1):
        raise ValueError(f"fault 'times' must be a positive int, got {times!r}")
    probability = data.get("probability", 1.0)
    if not _is_number(probability) or not 0.0 <= probability <= 1.0:
        raise ValueError(f"fault 'probability' must be in [0, 1], got {probability!r}")
    delay = data.get("delay", 0.0)
    if not _is_number(delay) or delay < 0:
        raise ValueError(f"fault 'delay' must be >= 0, got {delay!r}")
    crash = data.get("crash", False)
    if not isinstance(crash, bool):
        raise ValueError(f"fault 'crash' must be a bool, got {crash!r}")
    return {
        "site": site,
        "mode": mode,
        "nth": nth,
        "times": times,
        "probability": float(probability),
        "delay": float(delay),
        "crash": crash,
        "message": str(data.get("message", "")),
    }


class NullFaultPlan:
    """The disabled plan: ``fire`` does nothing, costs one attribute load."""

    enabled = False
    points: Tuple[FaultPoint, ...] = ()

    def fire(self, site: str) -> None:  # pragma: no cover - trivial
        return None

    def counts(self) -> Dict[str, int]:
        return {}

    def injected_total(self) -> int:
        return 0


#: The module-wide disabled plan (shared; stateless).
NULL_FAULTS = NullFaultPlan()


class FaultPlan:
    """An installed set of :class:`FaultPoint` rules with seeded state.

    Thread-safe: per-site call counters and per-rule firing tallies are
    guarded by one lock; the act itself (raise / sleep) happens
    outside it.
    """

    enabled = True

    def __init__(
        self,
        points: Iterable[FaultPoint] = (),
        seed: int = 0,
        metrics=None,
    ):
        self.points: Tuple[FaultPoint, ...] = tuple(points)
        self.seed = int(seed)
        self._rng = Random(self.seed)
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._fired: List[int] = [0] * len(self.points)
        if metrics is None:
            from repro.obs import NULL_METRICS

            metrics = NULL_METRICS
        self._m_injected = metrics.counter(
            "repro_faults_injected_total",
            "Faults injected by the active FaultPlan, by site.",
            labels=("site",),
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_config(cls, cfg, metrics=None) -> "FaultPlan":
        """Build from a ``FaultConfig`` (see :mod:`repro.api.config`)."""
        points = tuple(FaultPoint(**validate_point(p)) for p in cfg.points)
        return cls(points=points, seed=cfg.seed, metrics=metrics)

    # -- the hot path ---------------------------------------------------

    def fire(self, site: str) -> None:
        """Evaluate rules for ``site``; raise or sleep if one triggers."""
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            triggered: Optional[FaultPoint] = None
            for index, point in enumerate(self.points):
                if not point.matches(site):
                    continue
                if point.nth is not None and count != point.nth:
                    continue
                if point.times is not None and self._fired[index] >= point.times:
                    continue
                if point.probability < 1.0 and self._rng.random() >= point.probability:
                    continue
                self._fired[index] += 1
                triggered = point
                break
        if triggered is None:
            return
        self._m_injected.inc(site=site)
        self._act(triggered, site)

    @staticmethod
    def _act(point: FaultPoint, site: str) -> None:
        if point.mode == "latency":
            time.sleep(point.delay)
            return
        message = point.message or f"injected fault at {site}"
        if point.crash:
            raise SimulatedCrash(message)
        raise FaultInjected(message)

    # -- introspection --------------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def injected_total(self) -> int:
        with self._lock:
            return sum(self._fired)


# -- the active plan ----------------------------------------------------
#
# One process-wide slot, so seams call ``faults.fire(site)`` without any
# handle threading.  Tests use :func:`injected` to scope installation.

_active_lock = threading.Lock()
_active = NULL_FAULTS


def install(plan) -> object:
    """Install ``plan`` as the process-wide active plan; returns the old."""
    global _active
    with _active_lock:
        previous, _active = _active, plan
    return previous


def reset() -> None:
    """Restore the disabled :data:`NULL_FAULTS` plan."""
    install(NULL_FAULTS)


def active_plan():
    return _active


def fire(site: str) -> None:
    """Fire the named site against the active plan (no-op when disabled)."""
    _active.fire(site)


class injected:
    """Context manager installing a plan for a scope (tests)."""

    def __init__(self, plan):
        self.plan = plan
        self._previous = None

    def __enter__(self):
        self._previous = install(self.plan)
        return self.plan

    def __exit__(self, *exc_info):
        install(self._previous)
        return False


# -- spec parsing (REPRO_FAULTS / --faults) ------------------------------


def parse_fault_spec(text: str) -> Dict[str, object]:
    """Parse a fault spec string into ``{"seed": ..., "points": [...]}``.

    Two forms:

    - JSON: ``{"seed": 7, "points": [{"site": "engine.execute", ...}]}``
    - Compact (shell-friendly): ``|``-separated clauses, each either
      ``seed=N`` or ``site:mode[:key=value...]``, e.g.::

          seed=7|engine.execute:error:nth=2|registry.disk_read:error:nth=1

    Compact values are typed by key: ``nth``/``times`` ints,
    ``probability``/``delay`` floats, and ``crash`` one of
    ``1/0/true/false/yes/no``.  In JSON, ``crash`` must be a boolean and
    the numeric fields must be numbers, not booleans.

    Returns a validated plain dict; build the plan with
    ``FaultPlan.from_config(FaultConfig.from_dict(spec))``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty fault spec")
    if text.startswith("{"):
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("JSON fault spec must be an object")
        points = [validate_point(p) for p in spec.get("points", ())]
        seed = spec.get("seed", 0)
        if not _is_int(seed):
            raise ValueError(f"fault spec 'seed' must be an int, got {seed!r}")
        return {"seed": seed, "points": points}
    seed = 0
    points: List[Dict[str, object]] = []
    for clause in text.split("|"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = int(clause[len("seed="):])
            continue
        parts = clause.split(":")
        point: Dict[str, object] = {"site": parts[0]}
        if len(parts) > 1 and parts[1]:
            point["mode"] = parts[1]
        for extra in parts[2:]:
            if not extra:
                continue
            if "=" not in extra:
                raise ValueError(
                    f"bad fault clause field {extra!r} (expected key=value)"
                )
            key, value = extra.split("=", 1)
            if key in ("nth", "times"):
                point[key] = int(value)
            elif key in ("probability", "delay"):
                point[key] = float(value)
            elif key == "crash":
                flag = value.lower()
                if flag not in _CRASH_FLAGS:
                    raise ValueError(
                        f"fault 'crash' must be one of "
                        f"{'/'.join(_CRASH_FLAGS)}, got {value!r}"
                    )
                point[key] = _CRASH_FLAGS[flag]
            elif key == "message":
                point[key] = value
            else:
                raise ValueError(f"unknown fault clause key {key!r}")
        points.append(validate_point(point))
    return {"seed": seed, "points": points}
