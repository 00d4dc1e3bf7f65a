"""Human-readable trial reports for ``repro tune``.

One fixed-width table of every candidate scored on the full trace (best
first), then the winner with the exact serve knobs to copy.  Plain text
on purpose: the report lands next to the tuned config JSON and gets
pasted into PRs and incident docs.
"""

from __future__ import annotations

from typing import List

from repro.tune.search import TrialResult, TuneOutcome

_COLUMNS = (
    ("candidate", 28),
    ("p95(s)", 8),
    ("quality", 8),
    ("rej", 5),
    ("thru(sps)", 10),
    ("SLO", 4),
)


def _row(trial: TrialResult, slo_p95: float) -> str:
    metrics = trial.metrics
    holds = metrics.p95_latency <= slo_p95 and metrics.rejected == 0
    cells = (
        trial.candidate.key(),
        f"{metrics.p95_latency:.3f}",
        f"{metrics.quality:.2f}",
        str(metrics.rejected),
        f"{metrics.throughput:.1f}",
        "ok" if holds else "MISS",
    )
    return "  ".join(
        cell.ljust(width) for cell, (_, width) in zip(cells, _COLUMNS)
    ).rstrip()


def render_report(outcome: TuneOutcome) -> str:
    """The full report as one printable string."""
    lines: List[str] = []
    lines.append(
        f"repro tune — workload {outcome.workload!r}, seed {outcome.seed}, "
        f"SLO p95 <= {outcome.slo_p95:.3f}s"
    )
    lines.append(
        f"{len(outcome.trials)} candidate(s), each scored on the full trace"
    )
    header = "  ".join(
        name.ljust(width) for name, width in _COLUMNS
    ).rstrip()
    lines.append("")
    lines.append(header)
    lines.append("-" * len(header))
    for trial in outcome.trials:
        lines.append(_row(trial, outcome.slo_p95))
    won = outcome.winner
    lines.append("")
    lines.append(f"winner: {won.candidate.key()}")
    lines.append(
        f"  p95 {won.metrics.p95_latency:.3f}s, quality "
        f"{won.metrics.quality:.2f}, {won.metrics.rejected} rejected, "
        f"{won.metrics.throughput:.1f} samples/s over "
        f"{won.metrics.makespan:.2f}s"
    )
    if won.candidate.policy == "adaptive":
        lines.append(
            f"  adaptive transitions: {won.metrics.degrades} degrade(s), "
            f"{won.metrics.restores} restore(s), final level "
            f"{won.metrics.final_level}"
        )
    lines.append(
        "  serve knobs: policy={p} queue_limit={q} "
        "sampler_steps={s}".format(
            p=won.candidate.policy,
            q=won.candidate.queue_limit,
            s=won.candidate.sampler_steps,
        )
    )
    return "\n".join(lines) + "\n"
