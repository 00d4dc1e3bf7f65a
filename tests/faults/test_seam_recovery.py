"""Fault seams in the model registry's disk tier heal correctly."""

from pathlib import Path

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultPoint, injected
from repro.serve import ModelKey, ModelRegistry


@pytest.fixture(autouse=True)
def clean_active_plan():
    faults.reset()
    yield
    faults.reset()


class _StubModel:
    fitted = True
    window = 8
    denoiser = None


def _stub_builder(key):
    return _StubModel()


class TestRegistryHealing:
    def test_torn_disk_read_heals_via_bounded_retry(self, tmp_path):
        """One injected read failure follows the transient-corruption
        path: the bounded retry re-reads and serves the disk hit."""
        writer = ModelRegistry(builder=_stub_builder, save_dir=tmp_path)
        key = ModelKey(window=8)
        writer.get_or_fit(key)  # publish the cache entry
        reader = ModelRegistry(builder=_stub_builder, save_dir=tmp_path)
        with injected(
            FaultPlan([FaultPoint(site="registry.disk_read", nth=1, times=1)])
        ):
            model, origin = reader.resolve(key)
        assert model is not None
        assert origin == "disk"  # healed: retried the read, no refit

    def test_persistent_read_failure_degrades_to_refit(self, tmp_path):
        writer = ModelRegistry(builder=_stub_builder, save_dir=tmp_path)
        key = ModelKey(window=8)
        writer.get_or_fit(key)
        reader = ModelRegistry(builder=_stub_builder, save_dir=tmp_path)
        # Every read attempt fails: the registry must refit, never crash.
        with injected(FaultPlan([FaultPoint(site="registry.disk_read")])):
            model, origin = reader.resolve(key)
        assert model is not None
        assert origin == "fit"

    def test_disk_write_failure_is_absorbed(self, tmp_path):
        registry = ModelRegistry(builder=_stub_builder, save_dir=tmp_path)
        key = ModelKey(window=8)
        with injected(FaultPlan([FaultPoint(site="registry.disk_write")])):
            model, origin = registry.resolve(key)
        assert model is not None and origin == "fit"
        # The failed save left no cache entry and no tmp litter.
        assert not registry.cache_path(key).exists()
        assert list(Path(tmp_path).glob("*.tmp")) == []
