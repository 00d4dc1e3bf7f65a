"""Serving benchmark for the ChatPattern reproduction.

Drives the real server, ``python -m repro.cli serve --http``, as a
subprocess over its public HTTP API, with the default pipeline config
(window 128, 48 training tiles per style, full sampler schedule, greedy
policy, thread executor, one engine worker).  Every server gets a fresh
store, state directory and empty model cache under ``.perfbench_work/``.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time is the median
over several cold servers, the rest come from one server under the
workload's load.  ``--trace 1`` serves half of the window plain and half
through ``launch_traced.py``, prints the per-request latency budget and
reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, whose names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import budget  # noqa: E402
from check import StoreCheck, check_store  # noqa: E402
from loadgen import (  # noqa: E402
    POLL_INTERVAL,
    WORKLOADS,
    HttpClient,
    Outcome,
    Workload,
    execute,
    make_request,
    run_load,
)
from server import Server  # noqa: E402
from stats import tail_percentile  # noqa: E402

#: Cold servers timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Small chat request that loads the agent path before a ``freesize`` run.
_CHAT_WARMUP = (
    "Generate 1 legal patterns, 128*128 topology, "
    "physical size 2048nm * 2048nm, style {style}."
)


@dataclass
class ServedRun:
    """One server's life under a workload."""

    setup_s: float
    t0: float
    seconds: float
    outcomes: List[Outcome]
    peak_rss_mb: float
    exit_code: int
    check: StoreCheck
    diversity: float = math.nan
    busy_delta: float = 0.0
    trace: Optional[budget.Trace] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def wall_s(self) -> float:
        """The measured window, stretched to the last result fetched."""
        return max([self.seconds] + [o.end - self.t0 for o in self.ok])


def warmup_bodies(workload: Workload, seed: int) -> List[Dict]:
    """One small request per style (plus a small chat before ``freesize``)
    so lazy set-up is done before the measured window opens."""
    small = WORKLOADS["interactive"]
    bodies = [make_request(small, seed, -1 - i) for i in range(2)]
    if workload.kind == "chat":
        style = bodies[0]["params"]["style"]
        bodies.append({"kind": "chat", "text": _CHAT_WARMUP.format(style=style)})
    return bodies


def delivered_topologies(client: HttpClient, outcomes: List[Outcome]) -> List:
    """Every pattern the succeeded requests delivered, fetched again with
    their topologies once the window has closed (so untimed)."""
    topologies = []
    for o in outcomes:
        if o.ok:
            status, result = client.call(
                "GET", f"/v1/jobs/{o.job_id}/result?topologies=1"
            )
            if status != 200:
                raise RuntimeError(f"result of request {o.index} answered {status}")
            topologies.extend(
                numpy.asarray(entry["topology"], dtype=numpy.uint8)
                for entry in result.get("library", [])
            )
    return topologies


def normalized_diversity(topologies: List) -> float:
    """``repro.metrics.diversity`` (bits) over ``log2`` of the pattern
    count: 1.0 when every pattern has a complexity class of its own, lower
    as patterns share classes.  The raw entropy of ``n`` patterns is capped
    at ``log2(n)``, so it would follow how many requests fit in the window."""
    from repro.metrics.diversity import diversity

    n = len(topologies)
    return diversity(topologies) / math.log2(n) if n > 1 else math.nan


def cold_setup(root: Path, workdir: Path, seed: int) -> float:
    """Spawn a server and time it up to its first accepted request."""
    server = Server(root, workdir)
    try:
        server.start()
        client = HttpClient(server.host, server.port)
        body = warmup_bodies(WORKLOADS["interactive"], seed)[0]
        first = execute(client, -1, body, 1, time.perf_counter())
        if not first.ok:
            raise RuntimeError(f"cold server failed its first request: {first.error}")
        return first.posted - server.spawned_at
    finally:
        server.stop()


def serve(
    root: Path, workdir: Path, workload: Workload, seed: int, seconds: float,
    traced: bool = False,
) -> ServedRun:
    spans_out = workdir / "spans.json" if traced else None
    server = Server(root, workdir, spans_out)
    try:
        server.start()
        client = HttpClient(server.host, server.port)
        warmup = [
            execute(client, -1 - i, body, 1, time.perf_counter())
            for i, body in enumerate(warmup_bodies(workload, seed))
        ]
        setup_s = warmup[0].posted - server.spawned_at
        busy_before = budget.busy_seconds(client.call("GET", "/metrics")[1]) if traced else 0.0
        t0, outcomes = run_load(client, workload, seed, seconds)
        busy_after = budget.busy_seconds(client.call("GET", "/metrics")[1]) if traced else 0.0
        rss = server.peak_rss_mb()
        topologies = [] if traced else delivered_topologies(client, outcomes)
    finally:
        exit_code = server.stop()
    run = ServedRun(
        setup_s=setup_s,
        t0=t0,
        seconds=seconds,
        outcomes=outcomes,
        peak_rss_mb=rss,
        exit_code=exit_code,
        check=check_store(server.store_dir, warmup + outcomes),
        busy_delta=busy_after - busy_before,
    )
    if not traced:
        run.diversity = normalized_diversity(topologies)
        produced = sum(o.produced for o in outcomes if o.ok)
        if len(topologies) != produced:
            run.problems.append(
                f"results list {len(topologies)} patterns, requests reported "
                f"{produced} legal patterns"
            )
    if traced:
        with open(spans_out, encoding="utf-8") as handle:
            run.trace = budget.Trace.from_payload(json.load(handle))
    run.problems.extend(f"warm-up request failed: {o.error}" for o in warmup if not o.ok)
    run.problems.extend(f"request {o.index} failed: {o.error}" for o in outcomes if not o.ok)
    run.problems.extend(run.check.problems)
    if exit_code != 0:
        run.problems.append(f"server exited with code {exit_code}")
    return run


def end_to_end(workload: Workload, run: ServedRun, setups: List[float]) -> Dict[str, float]:
    ok = run.ok
    latencies = [o.latency for o in ok]
    delivered = sum(o.produced for o in ok)
    requested = sum(o.requested for o in run.outcomes)
    sent = len(run.outcomes)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": float(numpy.percentile(latencies, 50)) if latencies else 0.0,
        "slo_met_frac": sum(1 for v in latencies if v <= workload.slo) / max(sent, 1),
        "legal_patterns_per_s": delivered / run.wall_s,
        "legal_yield": delivered / requested if requested else 0.0,
        "diversity": run.diversity,
        "peak_rss_mb": run.peak_rss_mb,
    }


def steady_details(run: ServedRun) -> Dict:
    """Figures of the measured window that are not end-to-end metrics."""
    latencies = [o.latency for o in run.ok]
    tail = tail_percentile(latencies)
    return {
        "sent": len(run.outcomes),
        "succeeded": len(run.ok),
        "error_frac": 1.0 - len(run.ok) / max(len(run.outcomes), 1),
        "latency_mean_s": statistics.fmean(latencies) if latencies else None,
        "latency_p90_s": float(numpy.percentile(latencies, 90)) if latencies else None,
        "latency_tail": (
            {"percentile": tail[0], "seconds": tail[1], "samples": len(latencies)}
            if tail else {"percentile": None, "samples": len(latencies)}
        ),
        "latencies_s": [round(v, 4) for v in latencies],
        "stored_patterns": run.check.patterns,
        "window_s": run.wall_s,
    }


def run_record(root: Path, args, workload: Workload) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload.name,
        "loop": workload.loop,
        "rate_per_s": workload.rate if workload.loop == "open" else None,
        "clients": workload.threads if workload.loop == "closed" else None,
        "generator_threads": workload.threads,
        "slo_s": workload.slo,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "poll_interval_s": POLL_INTERVAL,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def measure(root: Path, work: Path, workload: Workload, args) -> Dict:
    """Run one workload; returns ``{"metrics", "sent", "problems", ...}``."""
    record = run_record(root, args, workload)
    if args.trace:
        # Each half of the window goes to one server, plain then traced.
        half = args.seconds / 2
        plain = serve(root, work / "plain", workload, args.seed, half)
        traced = serve(root, work / "traced", workload, args.seed, half, traced=True)
        runs = [plain, traced]
        rows, latency, n = budget.budget_table(traced.ok, traced.trace)
        metrics = budget.layer_metrics(
            traced.outcomes, traced.trace, rows, latency, traced.t0,
            traced.wall_s, traced.busy_delta,
        )
        plain_p50, traced_p50 = (
            float(numpy.percentile([o.latency for o in r.ok], 50)) if r.ok else math.nan
            for r in runs
        )
        metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
        sent = sum(len(r.outcomes) for r in runs)
        metrics["error_frac"] = 1.0 - sum(len(r.ok) for r in runs) / max(sent, 1)
        print(f"[{workload.name}] latency budget, per-request means (traced run):")
        for line in budget.format_table(rows, latency, n):
            print(line)
        record["steady"] = {"plain": steady_details(plain),
                            "traced": steady_details(traced)}
        record["cold"] = {
            "setup_s": [plain.setup_s, traced.setup_s],
            "import_s": metrics["setup.import_s"],
            "fit_s": metrics["setup.fit_s"],
            "start_s": metrics["setup.start_s"],
        }
    else:
        setups = [
            cold_setup(root, work / f"cold{i}", args.seed)
            for i in range(SETUP_SAMPLES - 1)
        ]
        main = serve(root, work / "main", workload, args.seed, args.seconds)
        setups.append(main.setup_s)
        runs = [main]
        metrics = end_to_end(workload, main, setups)
        sent = len(main.outcomes)
        record["cold"] = {"setup_s": setups}
        record["steady"] = steady_details(main)
    problems = [p for r in runs for p in r.problems]
    problems.extend(
        f"{name} is not a finite number" for name, value in metrics.items()
        if not math.isfinite(value)
    )
    print("record " + json.dumps(record, sort_keys=True))
    return {"metrics": metrics, "sent": sent, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = measure(root, work / name, WORKLOADS[name], args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_metrics = {}
    for name, result in results.items():
        metrics = result["metrics"]
        if set(metrics) != set(units):
            raise SystemExit(
                f"metric names drifted from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(units))}"
            )
        print(f"[{name}] {'trace' if args.trace else 'end-to-end'} metrics:")
        for metric in units:
            print(f"  {metric:<34} {metrics[metric]:>14.6g} {units[metric]}")
        for problem in result["problems"]:
            print(f"  PROBLEM: {problem}")
        prefix = f"{name}." if len(results) > 1 else ""
        for metric in units:
            value = metrics[metric] if math.isfinite(metrics[metric]) else 0.0
            out_metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    # Each failed request and each output-check violation is one failure.
    failed = sum(len(r["problems"]) for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["sent"] for r in results.values()),
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
