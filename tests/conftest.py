"""Shared fixtures: small trained models and datasets, built once per session."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import PipelineConfig, ServeConfig, TrainConfig
from repro.data import DatasetConfig, STYLES, build_library, build_training_set
from repro.diffusion import (
    ConditionalDiffusionModel,
    DiffusionSchedule,
    ReferenceDenoiser,
)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset():
    """(topologies, conditions) at 64x64 resolution — fast to train on."""
    cfg = DatasetConfig(tile_nm=1024, topology_size=64, map_scale=8, seed=7)
    return build_training_set(list(STYLES), 24, cfg)


@pytest.fixture(scope="session")
def small_model(small_dataset):
    """Conditional diffusion model trained at window=64 (seconds)."""
    topologies, conditions = small_dataset
    model = ConditionalDiffusionModel(
        schedule=DiffusionSchedule.linear(64, 0.003, 0.08),
        window=64,
        n_classes=2,
    )
    model.fit(topologies, conditions, np.random.default_rng(0))
    return model


@pytest.fixture(scope="session")
def reference_model(small_model, small_dataset):
    """``small_model`` on the float64 :class:`ReferenceDenoiser`, whose
    count tables replay the fit's training set and seed."""
    topologies, conditions = small_dataset
    reference = copy.copy(small_model)
    reference.denoiser = ReferenceDenoiser(
        small_model.denoiser,
        small_model.denoiser.count_tables(
            topologies, conditions, np.random.default_rng(0)
        ),
    )
    return reference


@pytest.fixture(scope="session")
def tiny_library():
    """Eight real 64x64 tiles of Layer-10001."""
    cfg = DatasetConfig(tile_nm=1024, topology_size=64, map_scale=8, seed=11)
    return build_library("Layer-10001", 8, cfg)


def _serve_config(**overrides) -> PipelineConfig:
    return PipelineConfig(
        train=TrainConfig(window=64), serve=ServeConfig(**overrides)
    )


@pytest.fixture(scope="session")
def serve_config():
    """``serve_config(**overrides)``: the window-64 :class:`PipelineConfig`
    a test's :class:`PatternService` is built from, its ``serve`` section
    taking the overrides."""
    return _serve_config
