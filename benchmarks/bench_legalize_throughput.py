"""E12 — legalize/DRC throughput: reference loop vs vectorized batch engine.

The acceptance experiment for the vectorized DRC/legalization engine: a
mixed two-style batch of dataset topologies is legalized two ways —

- **sequential reference**: one :func:`repro.legalize.legalizer.legalize`
  call after another with ``engine="reference"``, the original scalar
  per-run/per-polygon implementation (the pre-engine architecture);
- **sequential vectorized**: ``legalize_many`` on the vectorized engine —
  what ``PatternPipeline.legalize_topologies`` runs for a batch.

Both paths must agree on every legality outcome; the vectorized speedup is
asserted to be >= 3x.  ``REPRO_SMOKE=1`` shrinks the workload to CI-smoke
size and drops the speedup floor (tiny batches measure call overhead, not
throughput).
"""

import json
import os
import time

from benchmarks.conftest import print_table, scale
from repro.data import STYLES, DatasetConfig, build_training_set
from repro.drc.rules import rules_for_style
from repro.legalize.legalizer import legalize
from repro.metrics import legalize_many

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
PER_STYLE = 4 if SMOKE else 24 * scale()
TOPOLOGY_SIZE = 64 if SMOKE else 128
SPEEDUP_FLOOR = 3.0


def _workload():
    per_style = {}
    for style in STYLES:
        topologies, _ = build_training_set(
            [style],
            PER_STYLE,
            DatasetConfig(topology_size=TOPOLOGY_SIZE, seed=2024),
        )
        per_style[style] = list(topologies)
    return per_style


def _run_sequential_reference(per_style):
    started = time.perf_counter()
    legal = 0
    total = 0
    for style, topologies in per_style.items():
        rules = rules_for_style(style)
        for topology in topologies:
            total += 1
            size = TOPOLOGY_SIZE * 16  # matches physical_size_for scaling
            result = legalize(
                topology, (size, size), rules, style=style, engine="reference"
            )
            legal += int(result.ok)
    wall = time.perf_counter() - started
    return {"wall_seconds": round(wall, 3), "legal": legal, "total": total}


def _run_batched(per_style):
    started = time.perf_counter()
    legal = 0
    total = 0
    for style, topologies in per_style.items():
        result = legalize_many(topologies, style)
        legal += len(result.legal)
        total += result.total
    wall = time.perf_counter() - started
    return {"wall_seconds": round(wall, 3), "legal": legal, "total": total}


def _run(output_dir):
    per_style = _workload()
    reference = _run_sequential_reference(per_style)
    vectorized = _run_batched(per_style)

    def _speedup(base, new):
        return round(base["wall_seconds"] / max(new["wall_seconds"], 1e-9), 3)

    payload = {
        "workload": {
            "topologies": reference["total"],
            "topology_size": TOPOLOGY_SIZE,
            "styles": list(per_style),
            "smoke": SMOKE,
        },
        "sequential_reference": reference,
        "sequential_vectorized": vectorized,
        "vectorize_speedup": _speedup(reference, vectorized),
    }
    out_path = os.path.join(output_dir, "legalize_throughput.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)

    n = reference["total"]
    print_table(
        f"Batch DRC+legalization throughput ({n} topologies)",
        ["mode", "wall (s)", "patterns/s", "legal"],
        [
            ["sequential reference", reference["wall_seconds"],
             round(n / max(reference["wall_seconds"], 1e-9), 1),
             reference["legal"]],
            ["sequential vectorized", vectorized["wall_seconds"],
             round(n / max(vectorized["wall_seconds"], 1e-9), 1),
             vectorized["legal"]],
        ],
    )
    print(
        f"vectorize speedup: {payload['vectorize_speedup']}x  "
        f"(result JSON: {out_path})"
    )
    return payload


def test_legalize_throughput(benchmark, output_dir):
    payload = benchmark.pedantic(
        _run, args=(output_dir,), rounds=1, iterations=1
    )
    # Both paths must agree on what is legal — the engines are equivalent.
    assert (
        payload["sequential_reference"]["legal"]
        == payload["sequential_vectorized"]["legal"]
    )
    assert payload["sequential_reference"]["total"] > 0
    if SMOKE:
        # Tiny batches measure overhead, not throughput; just prove the
        # pipeline runs end to end.
        assert payload["vectorize_speedup"] > 0
    else:
        assert payload["vectorize_speedup"] >= SPEEDUP_FLOOR
