"""E13 — sampling throughput: baseline reverse chain vs the perf engine.

The acceptance experiment for the sampling performance engine.  The same
workloads run twice:

- **baseline**: the pre-engine architecture — on-the-fly probability
  derivation from the raw count tables (the float64
  :class:`~repro.diffusion.ReferenceDenoiser`, its counts replayed from
  the fit's training set and seed) walking the **full** reverse chain,
  every step from the schedule's ``start_step`` down (82 of the K=128
  steps; 58 of the smoke run's 64);
- **optimized**: compiled float32 logit lookup tables plus the
  **bucket-collapsed** step schedule (one denoiser evaluation per noise
  bucket).

Two workloads are measured: a single 8-sample request
(``model.sample``) and an 8-request serve workload riding the serving
engine (``ServeEngine.bind(model)`` → ``sample_batch``), mixed styles.
Results are appended to ``BENCH_sample_throughput.json`` at the repo root;
a run FAILS if its speedups regress more than 25% against the committed
baseline (the first entry of the same workload class), or fall below the
absolute floors (>= 5x single, >= 3x serve; ``REPRO_SMOKE=1`` shrinks the
workload and relaxes the floors — tiny maps measure fixed overhead, not
throughput).
"""

import copy
import json
import os
import time
from datetime import datetime, timezone

import numpy as np

from benchmarks.conftest import print_table, scale
from repro.data import DatasetConfig, STYLES, build_training_set
from repro.diffusion import (
    ConditionalDiffusionModel,
    DiffusionSchedule,
    ReferenceDenoiser,
)
from repro.serve import ServeEngine

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)
WINDOW = 64 if SMOKE else 128
STEPS = 64 if SMOKE else 128
TRAIN_COUNT = 8 if SMOKE else 48
SINGLE_COUNT = (4 if SMOKE else 8) * scale()
N_REQUESTS = 8
SAMPLES_PER_REQUEST = (1 if SMOKE else 2) * scale()
SINGLE_FLOOR = 1.2 if SMOKE else 5.0
SERVE_FLOOR = 1.1 if SMOKE else 3.0
# Fail under this fraction of the committed speedup.  The smoke workload's
# ratio carries more fixed overhead (gather window, numpy dispatch) than
# real throughput, so its gate gets extra headroom against runner noise
# while still catching a disabled engine (speedup ~1x).
REGRESSION_TOLERANCE = 0.5 if SMOKE else 0.75
# The gather window is pure constant latency inside the timed region; on
# the smoke workload it would dominate both modes and compress the ratio.
GATHER_WINDOW = 0.05 if SMOKE else 0.2

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sample_throughput.json",
)

MODES = {
    # (model, sampler_steps)
    "baseline": ("reference", "full"),
    "optimized": ("compiled", "bucketed"),
}


def _build_models():
    """The fitted model, and the same model on the float64 reference
    denoiser, whose count tables replay the fit's training set and seed."""
    topologies, conditions = build_training_set(
        list(STYLES),
        TRAIN_COUNT,
        DatasetConfig(topology_size=WINDOW, seed=2024),
    )
    model = ConditionalDiffusionModel(
        schedule=DiffusionSchedule.linear(STEPS, 0.003, 0.08),
        window=WINDOW,
        n_classes=len(STYLES),
    )
    model.fit(topologies, conditions, np.random.default_rng(0))
    reference = copy.copy(model)
    reference.denoiser = ReferenceDenoiser(
        model.denoiser,
        model.denoiser.count_tables(
            topologies, conditions, np.random.default_rng(0)
        ),
    )
    return {"compiled": model, "reference": reference}


def _run_single(model, sampler_steps):
    started = time.perf_counter()
    samples = model.sample(
        SINGLE_COUNT, 0, np.random.default_rng(1),
        sampler_steps=sampler_steps,
    )
    wall = time.perf_counter() - started
    assert samples.shape == (SINGLE_COUNT, WINDOW, WINDOW)
    return {
        "wall_seconds": round(wall, 3),
        "samples": SINGLE_COUNT,
        "samples_per_sec": round(SINGLE_COUNT / wall, 2),
        "denoise_evals": model.denoise_evals(sampler_steps),
    }


def _run_serve(model, sampler_steps):
    """8 concurrent requests coalescing in the serving engine."""
    engine = ServeEngine(gather_window=GATHER_WINDOW)
    client = engine.bind(model, sampler_steps=sampler_steps)
    started = time.perf_counter()
    with engine:
        jobs = [
            client.submit(SAMPLES_PER_REQUEST, i % len(STYLES), seed=i)
            for i in range(N_REQUESTS)
        ]
        results = [job.result(timeout=600) for job in jobs]
    wall = time.perf_counter() - started
    total = sum(len(r) for r in results)
    assert total == N_REQUESTS * SAMPLES_PER_REQUEST
    stats = client.stats()
    return {
        "wall_seconds": round(wall, 3),
        "requests": N_REQUESTS,
        "samples": total,
        "samples_per_sec": round(total / wall, 2),
        "max_batch_size": stats.max_batch_size,
        "batches": stats.batches,
    }


def _speedup(baseline, optimized):
    return round(
        baseline["wall_seconds"] / max(optimized["wall_seconds"], 1e-9), 3
    )


def _load_history():
    if not os.path.exists(RESULT_PATH):
        return {"benchmark": "sample_throughput", "history": []}
    with open(RESULT_PATH) as handle:
        return json.load(handle)


def _check_regression(payload, history):
    """Compare against the FIRST entry of the same workload class.

    The first entry is the committed baseline; anchoring on it (rather
    than the most recent run) keeps the gate from ratcheting downward as
    later runs — including failing ones — are appended to the history.
    Speedup *ratios* are compared (they are close to machine-independent,
    unlike absolute wall-clock), so a committed baseline from one machine
    still guards CI runners.
    """
    previous = [
        entry for entry in history["history"]
        if entry.get("smoke") == payload["smoke"]
    ]
    if not previous:
        return []
    anchor = previous[0]
    failures = []
    for key in ("speedup_single", "speedup_serve"):
        floor = anchor[key] * REGRESSION_TOLERANCE
        if payload[key] < floor:
            failures.append(
                f"{key} {payload[key]}x regressed against the committed "
                f"{anchor[key]}x (floor {floor:.2f}x)"
            )
    return failures


def _run(output_dir):
    models = _build_models()
    # Warm-up outside the timed windows (page-faults the tables, warms
    # numpy's pools) so both modes measure steady-state throughput.
    models["compiled"].sample(1, 0, np.random.default_rng(0))

    single = {}
    serve = {}
    for mode, (name, steps) in MODES.items():
        single[mode] = _run_single(models[name], steps)
        serve[mode] = _run_serve(models[name], steps)

    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "smoke": SMOKE,
        "cpus": CPUS,
        "workload": {
            "window": WINDOW,
            "steps": STEPS,
            "train_count": TRAIN_COUNT,
            "single_count": SINGLE_COUNT,
            "serve_requests": N_REQUESTS,
            "samples_per_request": SAMPLES_PER_REQUEST,
        },
        "single": single,
        "serve": serve,
        "speedup_single": _speedup(single["baseline"], single["optimized"]),
        "speedup_serve": _speedup(serve["baseline"], serve["optimized"]),
    }

    history = _load_history()
    regressions = _check_regression(payload, history)
    history["history"].append(payload)
    with open(RESULT_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")
    # Mirror next to the other bench outputs for convenience.
    with open(os.path.join(output_dir, "sample_throughput.json"), "w") as handle:
        json.dump(payload, handle, indent=2)

    print_table(
        f"Sampling throughput ({WINDOW}x{WINDOW}, K={STEPS})",
        ["workload", "mode", "wall (s)", "samples/s", "evals/traj"],
        [
            ["single x%d" % SINGLE_COUNT, "baseline",
             single["baseline"]["wall_seconds"],
             single["baseline"]["samples_per_sec"],
             single["baseline"]["denoise_evals"]],
            ["single x%d" % SINGLE_COUNT, "optimized",
             single["optimized"]["wall_seconds"],
             single["optimized"]["samples_per_sec"],
             single["optimized"]["denoise_evals"]],
            ["serve 8-request", "baseline",
             serve["baseline"]["wall_seconds"],
             serve["baseline"]["samples_per_sec"], "-"],
            ["serve 8-request", "optimized",
             serve["optimized"]["wall_seconds"],
             serve["optimized"]["samples_per_sec"], "-"],
        ],
    )
    print(
        f"single speedup: {payload['speedup_single']}x, "
        f"serve speedup: {payload['speedup_serve']}x  "
        f"(history: {RESULT_PATH})"
    )
    payload["regressions"] = regressions
    return payload


def test_sample_throughput(benchmark, output_dir):
    payload = benchmark.pedantic(
        _run, args=(output_dir,), rounds=1, iterations=1
    )
    # The engine must actually coalesce the 8 requests ...
    assert payload["serve"]["optimized"]["max_batch_size"] > 1
    # ... the engine must clear the absolute floors ...
    assert payload["speedup_single"] >= SINGLE_FLOOR, payload["speedup_single"]
    assert payload["speedup_serve"] >= SERVE_FLOOR, payload["speedup_serve"]
    # ... and must not regress >25% against the committed baseline.
    assert not payload["regressions"], payload["regressions"]
