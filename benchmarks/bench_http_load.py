"""E12 — HTTP serving under concurrent client load.

Hundreds of blocking :class:`~repro.serve.ServeClient` threads hammer one
:class:`~repro.serve.PatternHttpServer` over real sockets with a mixed
workload:

- **interactive** clients: one pattern per job, tight polling — the
  latency-sensitive class;
- **bulk** clients: several patterns per job, relaxed polling — the
  throughput class that keeps the engine's batches full.

Each client times its submit round-trip and its end-to-end job latency
(submit -> SUCCEEDED -> result fetched), so the payload records, per
class, the p50/p95 a real caller would see while the server multiplexes
everyone else.  The sampling back-end is a synthetic fixed-cost model
(a few ms of numpy per pattern): this bench gates the *serving stack* —
HTTP framing, the job lifecycle layer, the request pool and the engine
queue — not diffusion throughput, which ``bench_serve_throughput``
already owns.

A full run appends its payload to ``BENCH_http_load.json`` at the repo
root; every run writes it to ``benchmarks/out/http_load.json``, and a
smoke run writes only there.  A run FAILS if ``jobs_per_sec`` regresses
more than 25% against the committed baseline (the first entry of the same
workload class).  ``REPRO_SMOKE=1`` shrinks the client fleet for CI.
"""

import os
import threading
import time
from datetime import datetime, timezone

import numpy as np

from benchmarks.conftest import load_history, print_table, record_run
from repro.api import PipelineConfig, ServeConfig
from repro.obs.export import parse_exposition
from repro.serve import (
    PatternHttpServer,
    PatternService,
    ServeClient,
    ServeClientError,
)

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
WINDOW = 64
INTERACTIVE_CLIENTS = 24 if SMOKE else 180
BULK_CLIENTS = 8 if SMOKE else 60
BULK_COUNT = 4  # patterns per bulk job (interactive jobs ask for 1)
MODEL_COST_LOOPS = 3  # synthetic per-pattern compute (a few ms each)
MAX_WORKERS = 16
GATHER_WINDOW = 0.005
REGRESSION_TOLERANCE = 0.5 if SMOKE else 0.75
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_http_load.json",
)


class LoadModel:
    """Fixed-cost synthetic sampler: legal patterns, ~ms-scale compute.

    Emulates a model whose per-pattern cost is small and deterministic,
    so wall-clock differences measure the serving layers under test.
    """

    def __init__(self, window=WINDOW):
        self.window = window
        self.fitted = True
        self.n_classes = 2

    def sample_batch(self, conditions, rng, shape=None, **kwargs):
        shape = shape or (self.window, self.window)
        work = np.ones((len(conditions), *shape))
        for _ in range(MODEL_COST_LOOPS):
            work = np.tanh(work * 0.5) + 1.0  # burn deterministic FLOPs
        out = np.zeros((len(conditions), *shape), dtype=np.uint8)
        quarter = shape[0] // 4
        out[:, quarter:-quarter, quarter:-quarter] = 1
        return out


def _client_run(url, kind, index, records, errors, barrier):
    """One client thread: submit -> poll to terminal -> fetch result."""
    client = ServeClient(url, timeout=60.0)
    count = 1 if kind == "interactive" else BULK_COUNT
    interval = 0.01 if kind == "interactive" else 0.05
    barrier.wait(timeout=60.0)
    started = time.perf_counter()
    try:
        job_id = client.submit(
            kind="pipeline",
            params={
                "count": count,
                "style": "Layer-10001" if index % 2 == 0 else "Layer-10003",
                "seed": index,
            },
        )
        submit_seconds = time.perf_counter() - started
        final = client.wait(job_id, timeout=600.0, interval=interval)
        result = client.result(job_id)
        records.append(
            {
                "kind": kind,
                "state": final["state"],
                "produced": result["produced"],
                "submit_seconds": submit_seconds,
                "e2e_seconds": time.perf_counter() - started,
            }
        )
    except ServeClientError as exc:
        errors.append(f"{kind}-{index}: [{exc.code}] {exc}")


def _percentiles(values):
    if not values:
        return {"p50": 0.0, "p95": 0.0}
    return {
        "p50": round(float(np.percentile(values, 50)), 4),
        "p95": round(float(np.percentile(values, 95)), 4),
    }


def _class_summary(records, kind):
    mine = [r for r in records if r["kind"] == kind]
    e2e = [r["e2e_seconds"] for r in mine]
    return {
        "clients": len(mine),
        "produced": sum(r["produced"] for r in mine),
        "e2e": _percentiles(e2e),
        "submit": _percentiles([r["submit_seconds"] for r in mine]),
    }


def _check_regression(payload, history):
    """Compare jobs/sec against the FIRST entry of the same workload
    class — anchoring on the committed baseline keeps the gate from
    ratcheting downward as later runs are appended."""
    same = [
        entry for entry in history["history"]
        if entry.get("smoke") == payload["smoke"]
    ]
    if not same:
        return []
    anchor = same[0]
    floor = anchor["jobs_per_sec"] * REGRESSION_TOLERANCE
    if payload["jobs_per_sec"] < floor:
        return [
            f"jobs_per_sec {payload['jobs_per_sec']} regressed against "
            f"the committed {anchor['jobs_per_sec']} (floor {floor:.2f})"
        ]
    return []


def _run(output_dir):
    config = PipelineConfig(
        serve=ServeConfig(
            max_workers=MAX_WORKERS, gather_window=GATHER_WINDOW, max_batch=32
        )
    )
    service = PatternService(config, model=LoadModel())
    server = PatternHttpServer(service, port=0)
    total_clients = INTERACTIVE_CLIENTS + BULK_CLIENTS
    records, errors = [], []
    threads = []
    # +1 for the main thread: every client blocks on the barrier until
    # the whole fleet is up, so arrival is a true thundering herd.
    barrier = threading.Barrier(total_clients + 1)
    with server:
        for i in range(total_clients):
            kind = "interactive" if i < INTERACTIVE_CLIENTS else "bulk"
            thread = threading.Thread(
                target=_client_run,
                args=(server.url, kind, i, records, errors, barrier),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        started = time.perf_counter()
        barrier.wait(timeout=60.0)
        for thread in threads:
            thread.join(timeout=600.0)
        wall = time.perf_counter() - started
        exposition = parse_exposition(ServeClient(server.url).metrics())
    terminal = {
        labels.get("state"): value
        for _name, labels, value in exposition.get(
            "repro_job_terminal_total", {"samples": []}
        )["samples"]
    }

    interactive = _class_summary(records, "interactive")
    bulk = _class_summary(records, "bulk")
    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "smoke": SMOKE,
        "cpus": CPUS,
        "workload": {
            "interactive_clients": INTERACTIVE_CLIENTS,
            "bulk_clients": BULK_CLIENTS,
            "bulk_count": BULK_COUNT,
            "window": WINDOW,
            "max_workers": MAX_WORKERS,
        },
        "wall_seconds": round(wall, 3),
        "jobs": len(records),
        "jobs_per_sec": round(len(records) / max(wall, 1e-9), 2),
        "produced": interactive["produced"] + bulk["produced"],
        "errors": len(errors),
        "interactive": interactive,
        "bulk": bulk,
        "terminal_counts": terminal,
    }

    history = load_history(RESULT_PATH, "http_load")
    regressions = _check_regression(payload, history)
    output_path = os.path.join(output_dir, "http_load.json")
    record_run(payload, history, RESULT_PATH, output_path)

    print_table(
        f"HTTP load ({total_clients} concurrent clients, "
        f"{MAX_WORKERS} workers, {CPUS} cpu(s))",
        ["class", "clients", "produced", "submit p95 (s)", "e2e p50/p95 (s)"],
        [
            ["interactive", interactive["clients"], interactive["produced"],
             interactive["submit"]["p95"],
             f"{interactive['e2e']['p50']} / {interactive['e2e']['p95']}"],
            ["bulk", bulk["clients"], bulk["produced"],
             bulk["submit"]["p95"],
             f"{bulk['e2e']['p50']} / {bulk['e2e']['p95']}"],
        ],
    )
    print(
        f"{payload['jobs']} jobs in {payload['wall_seconds']}s "
        f"({payload['jobs_per_sec']} jobs/s), {payload['errors']} errors  "
        f"(payload: {output_path})"
    )
    if errors:
        for line in errors[:5]:
            print(f"  error: {line}")
    payload["regressions"] = regressions
    return payload


def test_http_load(benchmark, output_dir):
    payload = benchmark.pedantic(
        _run, args=(output_dir,), rounds=1, iterations=1
    )
    total = INTERACTIVE_CLIENTS + BULK_CLIENTS
    # Every client's job must finish SUCCEEDED with its full result.
    assert payload["errors"] == 0
    assert payload["jobs"] == total
    assert payload["produced"] == INTERACTIVE_CLIENTS + BULK_CLIENTS * BULK_COUNT
    # The server's own accounting agrees with the client fleet.
    assert payload["terminal_counts"].get("SUCCEEDED", 0) == total
    # Interactive jobs must stay cheaper end-to-end than bulk jobs at p50.
    assert (
        payload["interactive"]["e2e"]["p50"] <= payload["bulk"]["e2e"]["p95"]
    )
    # No >25% regression against the committed baseline.
    assert not payload["regressions"], payload["regressions"]
