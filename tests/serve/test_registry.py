"""Unit tests for the fitted-model registry."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.api.config import TrainConfig
from repro.serve import ModelKey, ModelRegistry


def _fake_model():
    return SimpleNamespace(fitted=True)


class TestModelKey:
    def test_hashable_and_equal(self):
        a = ModelKey(window=64, train_count=4)
        b = ModelKey(window=64, train_count=4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != ModelKey(window=128, train_count=4)

    def test_dataset_config_mirrors_key(self):
        key = ModelKey(window=64, tile_nm=1024, map_scale=4, seed=9)
        cfg = key.dataset_config()
        assert cfg.topology_size == 64
        assert cfg.tile_nm == 1024
        assert cfg.map_scale == 4
        assert cfg.seed == 9

    def test_derives_from_train_config(self):
        train = TrainConfig(window=64, train_count=4, seed=9)
        key = ModelKey.from_config(train)
        assert isinstance(key, TrainConfig)
        assert key == ModelKey(window=64, train_count=4, seed=9)
        assert key.recipe_hash() == train.recipe_hash()
        # an actual ModelKey passes through untouched
        assert ModelKey.from_config(key) is key

    def test_recipe_hash_distinguishes_recipes(self):
        base = ModelKey(window=64)
        assert base.recipe_hash() == ModelKey(window=64).recipe_hash()
        assert base.recipe_hash() != ModelKey(window=128).recipe_hash()


class TestModelRegistry:
    def test_fits_once_then_hits(self):
        calls = []

        def builder(key):
            calls.append(key)
            return _fake_model()

        registry = ModelRegistry(builder=builder)
        key = ModelKey(window=64)
        first = registry.get_or_fit(key)
        second = registry.get_or_fit(key)
        assert first is second
        assert len(calls) == 1
        assert registry.stats() == {
            "cached": 1, "hits": 1, "misses": 1, "disk_hits": 0,
        }

    def test_train_config_and_model_key_share_one_cache_slot(self):
        calls = []

        def builder(key):
            calls.append(key)
            return _fake_model()

        registry = ModelRegistry(builder=builder)
        a = registry.get_or_fit(TrainConfig(window=64, train_count=4))
        b = registry.get_or_fit(ModelKey(window=64, train_count=4))
        assert a is b
        assert len(calls) == 1

    def test_distinct_keys_distinct_models(self):
        registry = ModelRegistry(builder=lambda key: _fake_model())
        a = registry.get_or_fit(ModelKey(window=64))
        b = registry.get_or_fit(ModelKey(window=128))
        assert a is not b
        assert len(registry) == 2

    def test_put_requires_fitted(self):
        registry = ModelRegistry(builder=lambda key: _fake_model())
        with pytest.raises(ValueError):
            registry.put(ModelKey(), SimpleNamespace(fitted=False))

    def test_put_then_get_is_hit(self):
        registry = ModelRegistry(builder=lambda key: _fake_model())
        key = ModelKey(window=64)
        model = _fake_model()
        registry.put(key, model)
        assert key in registry
        assert registry.get_or_fit(key) is model
        assert registry.stats()["misses"] == 0

    def test_lru_eviction(self):
        registry = ModelRegistry(builder=lambda key: _fake_model(), max_models=2)
        keys = [ModelKey(window=w) for w in (32, 64, 128)]
        for key in keys:
            registry.get_or_fit(key)
        assert keys[0] not in registry
        assert keys[1] in registry and keys[2] in registry

    def test_concurrent_requests_fit_exactly_once(self):
        calls = []

        def slow_builder(key):
            calls.append(key)
            time.sleep(0.05)
            return _fake_model()

        registry = ModelRegistry(builder=slow_builder)
        key = ModelKey(window=64)
        results = []

        def worker():
            results.append(registry.get_or_fit(key))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(model is results[0] for model in results)


class TestDiskCache:
    """The persistent tier: fitted models survive across registries
    (i.e. across processes) keyed by the TrainConfig recipe hash."""

    @staticmethod
    def _counting_builder(calls):
        def builder(key):
            calls.append(key)
            return SimpleNamespace(fitted=True, recipe=key.as_dict())

        return builder

    def test_second_registry_hits_disk_instead_of_refitting(self, tmp_path):
        key = ModelKey(window=64, train_count=4)
        first_calls = []
        first = ModelRegistry(
            builder=self._counting_builder(first_calls), save_dir=tmp_path
        )
        model, source = first.resolve(key)
        assert source == "fit"
        assert first.cache_path(key).exists()
        assert len(first_calls) == 1

        # "new process": a fresh registry over the same save_dir
        second_calls = []
        second = ModelRegistry(
            builder=self._counting_builder(second_calls), save_dir=tmp_path
        )
        loaded, source = second.resolve(key)
        assert source == "disk"
        assert second_calls == []  # no retraining
        assert loaded.recipe == model.recipe
        assert second.stats()["disk_hits"] == 1
        # and the loaded model is now memory-resident
        again, source = second.resolve(key)
        assert again is loaded and source == "memory"

    def test_different_recipe_misses_disk(self, tmp_path):
        calls = []
        registry = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        registry.get_or_fit(ModelKey(window=64, train_count=4))
        fresh = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        _, source = fresh.resolve(ModelKey(window=64, train_count=8))
        assert source == "fit"
        assert len(calls) == 2

    def test_train_config_resolves_same_disk_entry(self, tmp_path):
        calls = []
        registry = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        registry.get_or_fit(TrainConfig(window=64, train_count=4))
        fresh = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        _, source = fresh.resolve(ModelKey(window=64, train_count=4))
        assert source == "disk"
        assert len(calls) == 1

    def test_corrupt_cache_file_degrades_to_refit(self, tmp_path):
        calls = []
        key = ModelKey(window=64, train_count=4)
        registry = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        registry.get_or_fit(key)
        registry.cache_path(key).write_bytes(b"not a pickle")
        fresh = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        _, source = fresh.resolve(key)
        assert source == "fit"
        assert len(calls) == 2
        # the refit repaired the cache entry
        final = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        _, source = final.resolve(key)
        assert source == "disk"

    def test_save_dir_expands_user(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        registry = ModelRegistry(
            builder=lambda key: _fake_model(), save_dir="~/model-cache"
        )
        assert registry.save_dir == tmp_path / "model-cache"
        registry.get_or_fit(ModelKey(window=64))
        assert (tmp_path / "model-cache").is_dir()

    def test_no_save_dir_means_no_disk_tier(self):
        registry = ModelRegistry(builder=lambda key: _fake_model())
        assert registry.cache_path(ModelKey()) is None
        _, source = registry.resolve(ModelKey(window=64))
        assert source == "fit"


class TestRealFit:
    def test_fit_model_trains_a_usable_backend(self):
        import numpy as np

        registry = ModelRegistry()
        key = ModelKey(window=64, train_count=4, tile_nm=1024, seed=7)
        model = registry.get_or_fit(key)
        assert model.fitted
        assert model.window == 64
        assert model.n_classes == 2
        samples = model.sample_batch([0, 1], np.random.default_rng(0))
        assert samples.shape == (2, 64, 64)


class TestCompiledRehydration:
    """The disk tier must always serve the compiled sampling representation."""

    KEY = dict(window=64, train_count=4, tile_nm=1024, seed=7)

    def test_fit_and_disk_hit_are_compiled(self, tmp_path):
        registry = ModelRegistry(save_dir=tmp_path)
        model = registry.get_or_fit(ModelKey(**self.KEY))
        assert model.denoiser.compiled
        fresh = ModelRegistry(save_dir=tmp_path)
        loaded, source = fresh.resolve(ModelKey(**self.KEY))
        assert source == "disk"
        assert loaded.denoiser.compiled

    def test_stale_format_payload_refits_and_is_rewritten(self, tmp_path):
        import pickle

        registry = ModelRegistry(save_dir=tmp_path)
        key = ModelKey(**self.KEY)
        model = registry.get_or_fit(key)
        path = registry.cache_path(key)
        # A payload from the previous layout: format 1, same recipe.
        with open(path, "wb") as handle:
            pickle.dump(
                {"format": 1, "recipe": key.as_dict(), "model": model}, handle
            )
        fresh = ModelRegistry(save_dir=tmp_path)
        loaded, source = fresh.resolve(key)
        assert source == "fit"
        assert loaded.denoiser.compiled
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["format"] == 4

    def test_per_scale_table_payload_refits_without_retries(
        self, tmp_path, monkeypatch
    ):
        import copy
        import pickle

        from repro.serve import registry as registry_module

        registry = ModelRegistry(save_dir=tmp_path)
        key = ModelKey(**self.KEY)
        model = registry.get_or_fit(key)
        # A format-2 denoiser: one (class, bucket, code) table per scale in
        # ``_logit_tables`` and no single ``_table``.
        old = copy.deepcopy(model)
        d = old.denoiser
        d._logit_tables = {
            s: d._table[:, j].transpose(1, 0, 2).copy()
            for j, s in enumerate(d.scales)
        }
        del d._table
        path = registry.cache_path(key)
        with open(path, "wb") as handle:
            pickle.dump(
                {"format": 2, "recipe": key.as_dict(), "model": old}, handle
            )
        sleeps = []
        monkeypatch.setattr(registry_module.time, "sleep", sleeps.append)
        loaded, source = ModelRegistry(save_dir=tmp_path).resolve(key)
        # The payload unpickles and is refused for its format at once; it
        # is not mistaken for a torn read and retried.
        assert source == "fit"
        assert sleeps == []
        assert loaded.denoiser.compiled

    def test_float64_count_payload_refits_without_retries(
        self, tmp_path, monkeypatch
    ):
        import copy
        import pickle

        import numpy as np

        from repro.serve import registry as registry_module

        registry = ModelRegistry(save_dir=tmp_path)
        key = ModelKey(**self.KEY)
        model = registry.get_or_fit(key)
        # A format-3 payload: the same model with float64 count tables.
        old = copy.deepcopy(model)
        d = old.denoiser
        d._counts = {s: c.astype(np.float64) for s, c in d._counts.items()}
        path = registry.cache_path(key)
        with open(path, "wb") as handle:
            pickle.dump(
                {"format": 3, "recipe": key.as_dict(), "model": old}, handle
            )
        sleeps = []
        monkeypatch.setattr(registry_module.time, "sleep", sleeps.append)
        loaded, source = ModelRegistry(save_dir=tmp_path).resolve(key)
        # Refused for its format at once, not retried as a torn read, and
        # not served at its float64 size.
        assert source == "fit"
        assert sleeps == []
        for counts in loaded.denoiser._counts.values():
            assert counts.dtype.kind == "u"
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["format"] == 4
        for counts in payload["model"].denoiser._counts.values():
            assert counts.dtype.kind == "u"

    def test_format4_payload_with_sampler_attribute_samples_identically(
        self, tmp_path
    ):
        import copy

        import numpy as np

        key = ModelKey(**self.KEY)
        model = ModelRegistry().get_or_fit(key)
        # Format-4 payloads written before the sampler option was removed
        # carry ``sampler = "x0"``; nothing reads it, so they stay valid.
        old = copy.deepcopy(model)
        old.sampler = "x0"
        assert ModelRegistry(save_dir=tmp_path)._save_to_disk(key, old)
        loaded, source = ModelRegistry(save_dir=tmp_path).resolve(key)
        assert source == "disk"
        assert loaded.sampler == "x0"
        expected = model.sample_batch([0, 1], np.random.default_rng(3))
        got = loaded.sample_batch([0, 1], np.random.default_rng(3))
        assert got.tobytes() == expected.tobytes()


class TestCacheWrite:
    """Writing a fitted model to the disk tier copies none of its arrays."""

    def test_save_streams_arrays_and_reloads_bit_identical(self, tmp_path):
        import tracemalloc

        import numpy as np

        from repro.serve.registry import fit_model

        key = ModelKey.from_config(TrainConfig(window=64, train_count=3, seed=5))
        model = fit_model(key)
        d = model.denoiser
        arrays = d._table.nbytes + sum(c.nbytes for c in d._counts.values())
        assert arrays > 8 << 20  # the whole model is far above the bound
        registry = ModelRegistry(save_dir=tmp_path)
        tracemalloc.start()
        try:
            assert registry._save_to_disk(key, model) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        loaded, source = ModelRegistry(save_dir=tmp_path).resolve(key)
        assert source == "disk"
        rng = np.random.default_rng(0)
        stack = (rng.random((3, 64, 64)) < 0.5).astype(np.uint8)
        for level in (0.02, 0.2, 0.5):
            assert np.array_equal(
                loaded.denoiser.predict_logits_many(stack, level, [0, 1, 1]),
                d.predict_logits_many(stack, level, [0, 1, 1]),
            )


class TestDiskCacheHardening:
    """Bounded-retry reads and cross-process single-flight fits."""

    @staticmethod
    def _counting_builder(calls):
        def builder(key):
            calls.append(key)
            return SimpleNamespace(fitted=True, recipe=key.as_dict())

        return builder

    def test_transient_partial_read_heals_on_retry(self, tmp_path, monkeypatch):
        key = ModelKey(window=64, train_count=4)
        writer = ModelRegistry(
            builder=self._counting_builder([]), save_dir=tmp_path
        )
        writer.get_or_fit(key)
        path = writer.cache_path(key)
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])  # torn write

        # The retry sleep doubles as the concurrent writer finishing its
        # atomic replace: after it, the file is whole again.
        sleeps = []

        def heal(duration):
            sleeps.append(duration)
            path.write_bytes(good)

        monkeypatch.setattr("repro.serve.registry.time.sleep", heal)

        def exploding_builder(builder_key):
            raise AssertionError("a transient read must not trigger a refit")

        reader = ModelRegistry(builder=exploding_builder, save_dir=tmp_path)
        model, source = reader.resolve(key)
        assert source == "disk"
        assert model.fitted
        assert sleeps  # at least one bounded retry happened

    def test_durably_corrupt_file_exhausts_retries_and_refits(self, tmp_path):
        calls = []
        key = ModelKey(window=64, train_count=4)
        registry = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        registry.get_or_fit(key)
        registry.cache_path(key).write_bytes(b"\x80garbage forever")
        fresh = ModelRegistry(
            builder=self._counting_builder(calls), save_dir=tmp_path
        )
        _, source = fresh.resolve(key)
        assert source == "fit"
        assert len(calls) == 2

    def test_single_flight_fit_across_registries(self, tmp_path):
        """Two registries sharing a save_dir (stand-in for two processes)
        fit a cold key exactly once: the flock loser re-checks disk."""
        calls = []
        key = ModelKey(window=64, train_count=4)

        def slow_builder(builder_key):
            calls.append(builder_key)
            time.sleep(0.2)
            return SimpleNamespace(fitted=True)

        registries = [
            ModelRegistry(builder=slow_builder, save_dir=tmp_path)
            for _ in range(2)
        ]
        sources = []

        def worker(registry):
            sources.append(registry.resolve(key)[1])

        threads = [
            threading.Thread(target=worker, args=(registry,))
            for registry in registries
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert sorted(sources) == ["disk", "fit"]
