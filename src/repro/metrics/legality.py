"""Legality evaluation pipeline (Eq. 7).

``Legality = #legal / #generated`` *without* topology selection: every
generated topology goes through legalization exactly once (plus the agent's
optional modification retries, which the Table-1 protocol disables) and
failures count against the method — matching the paper's fair-comparison
protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.styles import MODEL_SIZE, TILE_NM
from repro.drc.rules import DesignRules, rules_for_style
from repro.legalize.legalizer import LegalizationResult, legalize
from repro.squish.pattern import PatternLibrary, SquishPattern


def physical_size_for(shape: Tuple[int, int]) -> Tuple[int, int]:
    """Physical target in nm for a topology shape.

    Scales the paper's base setting (2048 nm at 128 cells) linearly, so a
    512x512 topology legalizes into an 8192x8192 nm window.
    """
    rows, cols = shape
    return (cols * TILE_NM // MODEL_SIZE, rows * TILE_NM // MODEL_SIZE)


@dataclass
class LegalityResult:
    """Outcome of legalizing a batch of generated topologies."""

    total: int
    legal: PatternLibrary
    failure_causes: Dict[str, int] = field(default_factory=dict)
    failures: List[LegalizationResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def legality(self) -> float:
        """Eq. 7: fraction of generated patterns that are DRC-clean."""
        if self.total == 0:
            return 0.0
        return len(self.legal) / self.total

    @property
    def patterns_per_sec(self) -> float:
        """Batch legalization throughput (attempted patterns per second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total / self.wall_seconds


def legalize_many(
    topologies: Sequence[np.ndarray],
    style: str,
    rules: Optional[DesignRules] = None,
    physical_size: Optional[Tuple[int, int]] = None,
    keep_failures: bool = False,
    engine: str = "vectorized",
    fault_isolation: bool = True,
) -> LegalityResult:
    """Legalize a batch of topologies in order on the calling thread.

    The batch counterpart of :func:`repro.legalize.legalizer.legalize`:
    results come back in input order, and a topology that *raises* — rather
    than merely failing legalization — is fault-isolated into a synthetic
    failed :class:`LegalizationResult` whose cause is the exception type, so
    one malformed item cannot sink the batch.
    Pass ``fault_isolation=False`` to let such exceptions propagate instead
    (a malformed topology is then a programming error, not a statistic).
    """
    rules = rules or rules_for_style(style)
    items = list(topologies)

    def _one(topology: np.ndarray) -> LegalizationResult:
        try:
            target = physical_size or physical_size_for(topology.shape)
            return legalize(topology, target, rules, style=style, engine=engine)
        except Exception as exc:
            if not fault_isolation:
                raise
            failed = LegalizationResult(ok=False)
            failed.log.append(f"FAIL {type(exc).__name__}: {exc}")
            return failed

    started = time.perf_counter()
    results = [_one(topology) for topology in items]
    wall = time.perf_counter() - started

    legal = PatternLibrary(name=f"legal-{style}")
    causes: Dict[str, int] = {}
    failures: List[LegalizationResult] = []
    for result in results:
        if result.ok:
            legal.add(result.pattern)
        else:
            cause = _failure_cause(result)
            causes[cause] = causes.get(cause, 0) + 1
            if keep_failures:
                failures.append(result)
    return LegalityResult(
        total=len(items),
        legal=legal,
        failure_causes=causes,
        failures=failures,
        wall_seconds=wall,
    )


def legalize_sequential(
    topologies: Sequence[np.ndarray],
    style: str,
    rules: Optional[DesignRules] = None,
    physical_size: Optional[Tuple[int, int]] = None,
    keep_failures: bool = False,
) -> LegalityResult:
    """Deterministic single-thread batch legalization (Table-1 protocol).

    The blessed spelling of ``legalize_many(..., fault_isolation=False)``:
    a malformed topology raises (a programming error, not a statistic).
    """
    return legalize_many(
        topologies,
        style,
        rules=rules,
        physical_size=physical_size,
        keep_failures=keep_failures,
        fault_isolation=False,
    )


def _failure_cause(result: LegalizationResult) -> str:
    for line in result.log:
        if line.startswith("FAIL"):
            return line.split(":")[0].replace("FAIL ", "").strip()
    return "unknown"
