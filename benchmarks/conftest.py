"""Shared benchmark fixtures: trained back-ends and scale knobs.

Every experiment honours two environment variables:

- ``REPRO_SAMPLES``: per-cell sample count multiplier (default 1).  The
  paper uses 10,000 samples per class; the default bench scale keeps the
  full suite in CPU minutes.  Set e.g. ``REPRO_SAMPLES=10`` to scale every
  count by 10x.
- ``REPRO_K``: reverse-chain length used at sampling time (default 64 for
  the free-size benches; the trained denoisers are noise-level indexed so
  any K works).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import DatasetConfig, STYLES, build_training_set
from repro.diffusion import ConditionalDiffusionModel, DiffusionSchedule


def scale() -> int:
    return max(1, int(os.environ.get("REPRO_SAMPLES", "1")))


def sampling_steps() -> int:
    return max(8, int(os.environ.get("REPRO_K", "64")))


@pytest.fixture(scope="session")
def train_data():
    """Mixed two-style 128x128 training set (96 tiles per style)."""
    return build_training_set(
        list(STYLES), 96, DatasetConfig(topology_size=128, seed=2024)
    )


@pytest.fixture(scope="session")
def chatpattern_model(train_data):
    """The class-conditional ChatPattern back-end at window=128."""
    topologies, conditions = train_data
    model = ConditionalDiffusionModel(
        schedule=DiffusionSchedule.linear(sampling_steps(), 0.003, 0.08),
        window=128,
        n_classes=2,
    )
    model.fit(topologies, conditions, np.random.default_rng(0))
    return model


@pytest.fixture(scope="session")
def per_style_models(train_data):
    """Unconditional DiffPattern back-ends, one per style."""
    from repro.baselines import DiffPattern

    topologies, conditions = train_data
    models = {}
    for idx, style in enumerate(STYLES):
        dp = DiffPattern(
            window=128,
            schedule=DiffusionSchedule.linear(sampling_steps(), 0.003, 0.08),
        )
        dp.fit(topologies[conditions == idx], np.random.default_rng(idx))
        models[style] = dp
    return models


@pytest.fixture(scope="session")
def output_dir():
    path = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(path, exist_ok=True)
    return path


def print_table(title: str, header: list, rows: list) -> None:
    """Uniform table printer for every bench's paper-style output."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    line = " | ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
