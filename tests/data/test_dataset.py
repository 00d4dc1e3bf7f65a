"""Unit tests for the dataset builder."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    DatasetConfig,
    build_library,
    build_training_set,
    reference_library,
    topology_stack,
)
from repro.api.config import TrainConfig
from repro.drc import check_pattern, rules_for_style
from repro.serve.registry import ModelKey

CFG = DatasetConfig(tile_nm=1024, topology_size=64, map_scale=6, seed=5)


class TestBuildLibrary:
    def test_count_and_shape(self):
        lib = build_library("Layer-10001", 6, CFG)
        assert len(lib) == 6
        for p in lib:
            assert p.shape == (64, 64)
            assert p.physical_size == (1024, 1024)
            assert p.style == "Layer-10001"

    def test_tiles_are_clean(self):
        lib = build_library("Layer-10003", 4, CFG)
        rules = rules_for_style("Layer-10003")
        assert all(check_pattern(p, rules).is_clean for p in lib)

    def test_deterministic_given_seed(self):
        a = build_library("Layer-10001", 3, CFG)
        b = build_library("Layer-10001", 3, CFG)
        assert all(x == y for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = build_library("Layer-10001", 3, CFG)
        b = build_library(
            "Layer-10001", 3,
            DatasetConfig(tile_nm=1024, topology_size=64, map_scale=6, seed=99),
        )
        assert any(x != y for x, y in zip(a, b))


class TestTrainingSet:
    def test_conditions_align(self):
        topos, conds = build_training_set(
            ["Layer-10001", "Layer-10003"], 4, CFG
        )
        assert topos.shape == (8, 64, 64)
        assert list(np.unique(conds)) == [0, 1]
        assert (conds[:4] == 0).all() and (conds[4:] == 1).all()

    #: SHA-256 of the default recipe's ``(topologies, conditions)`` bytes,
    #: recorded from the per-rect, per-row loop encoder.
    DEFAULT_DIGEST = (
        "dbc4946a2cae5295ccd9bcf04d51a7c0"
        "c65d73d7f372e5a7dcdc5a362831fdf2"
    )

    def test_default_recipe_is_pinned(self):
        key = ModelKey.from_config(TrainConfig())
        topos, conds = build_training_set(
            list(key.styles), key.train_count, key.dataset_config()
        )
        assert topos.shape == (96, 128, 128) and topos.dtype == np.uint8
        assert conds.dtype == np.int64
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(topos).tobytes())
        digest.update(np.ascontiguousarray(conds).tobytes())
        assert digest.hexdigest() == self.DEFAULT_DIGEST

    def test_topology_stack(self):
        lib = build_library("Layer-10001", 3, CFG)
        stack = topology_stack(lib)
        assert stack.shape == (3, 64, 64)
        assert stack.dtype == np.uint8


class TestReferenceLibrary:
    def test_scales_tile_with_resolution(self):
        lib = reference_library("Layer-10003", 2, 128, seed=3)
        assert len(lib) == 2
        assert lib[0].shape == (128, 128)
        assert lib[0].physical_size == (2048, 2048)

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            reference_library("Layer-10001", 2, 100)
