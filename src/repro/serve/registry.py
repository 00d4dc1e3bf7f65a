"""Fitted-model registry: train once, serve many — now across processes.

Every request that reaches :class:`~repro.serve.service.PatternService`
needs a fitted :class:`~repro.diffusion.model.ConditionalDiffusionModel`.
Training is seconds-cheap but far from free, and a production service must
never retrain per request — the registry caches fitted models keyed by the
full recipe that determines them.  The key vocabulary is shared with the
config system: :class:`ModelKey` derives from
:class:`~repro.api.config.TrainConfig`, so a pipeline config and the
registry describe a back-end identically.

Two cache tiers:

- **memory** — a thread-safe LRU; concurrent requests for the same key
  block on a per-key lock so the model is fitted exactly once.
- **disk** (optional ``save_dir``) — fitted models pickled under the
  recipe's content hash, so a *second process* (e.g. a repeated CLI run
  with ``--model-cache``) loads the fitted model instead of retraining.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

try:  # POSIX-only advisory locks; the cross-process single-flight fit
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

import numpy as np

from repro import faults
from repro.api.config import TrainConfig
from repro.data.dataset import build_training_set
from repro.diffusion.model import ConditionalDiffusionModel
from repro.obs.metrics import default_metrics

# Bump when the pickled model layout changes; payloads of any other format
# refit instead of loading.  Format 2: the pickled denoiser carries its
# compiled logit tables, so a load needs no compile step.  Format 3: those
# tables are one (bucket, scale, class, code) array.  Format 4: the count
# tables are narrow unsigned integers, not float64.
_CACHE_FORMAT = 4


@dataclass(frozen=True)
class ModelKey(TrainConfig):
    """The registry's cache key: exactly a :class:`TrainConfig` recipe.

    Deriving from ``TrainConfig`` keeps one recipe vocabulary between the
    config system and the registry; :meth:`from_config` upgrades a plain
    ``TrainConfig`` (the registry normalises its inputs, so either type
    works everywhere a key is accepted).
    """

    @classmethod
    def from_config(cls, config: TrainConfig) -> "ModelKey":
        if isinstance(config, cls):
            return config
        return cls(**{
            spec.name: getattr(config, spec.name)
            for spec in dataclasses.fields(TrainConfig)
        })


def fit_model(key: ModelKey) -> ConditionalDiffusionModel:
    """Default builder: train the conditional back-end described by ``key``.

    The seconds each cold-start phase took, the training-set build and the
    fit, are left in the model's ``fit_phases`` for the start-up log.
    """
    started = time.perf_counter()
    topologies, conditions = build_training_set(
        list(key.styles), key.train_count, key.dataset_config()
    )
    built = time.perf_counter()
    model = ConditionalDiffusionModel(
        window=key.window, n_classes=len(key.styles)
    )
    model.fit(topologies, conditions, np.random.default_rng(key.seed))
    model.fit_phases = {
        "training set": built - started,
        "fit": time.perf_counter() - built,
    }
    return model


class ModelRegistry:
    """Thread-safe LRU cache of fitted models, optionally disk-persistent.

    Args:
        builder: ``key -> fitted model`` factory (default :func:`fit_model`).
        max_models: LRU capacity; the least-recently-used model is evicted
            when a new key would exceed it (memory tier only — disk entries
            are never evicted).
        save_dir: directory for the persistent cache.  On a memory miss the
            registry tries ``save_dir/model-<recipe_hash>.pkl`` before
            fitting, and every freshly fitted model is written back, so the
            fit cost is paid once per recipe *per machine*, not per process.
            The disk tier is keyed by recipe only: every registry sharing a
            ``save_dir`` must use an equivalent ``builder``, or a
            stub-built model would be served to processes expecting the
            real recipe.
    """

    def __init__(
        self,
        builder: Optional[Callable[[ModelKey], ConditionalDiffusionModel]] = None,
        max_models: int = 8,
        save_dir: Optional[Union[str, Path]] = None,
        metrics=None,
    ):
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
        self._builder = builder or fit_model
        self._max_models = max_models
        self._save_dir = (
            Path(save_dir).expanduser() if save_dir is not None else None
        )
        self._models: "OrderedDict[ModelKey, ConditionalDiffusionModel]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._key_locks: Dict[ModelKey, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self.metrics = metrics if metrics is not None else default_metrics()
        self._m_hits = self.metrics.counter(
            "repro_model_cache_hits_total",
            "Model resolutions served from a cache tier",
            labels=("tier",),
        )
        self._m_misses = self.metrics.counter(
            "repro_model_cache_misses_total",
            "Model resolutions that fitted from scratch",
        )
        self._m_resident = self.metrics.gauge(
            "repro_model_cache_resident", "Fitted models resident in memory"
        )

    @property
    def save_dir(self) -> Optional[Path]:
        return self._save_dir

    def cache_path(self, key: Union[ModelKey, TrainConfig]) -> Optional[Path]:
        """On-disk location of ``key``'s model (``None`` when not persistent)."""
        if self._save_dir is None:
            return None
        key = ModelKey.from_config(key)
        return self._save_dir / f"model-{key.recipe_hash()}.pkl"

    def get_or_fit(
        self, key: Union[ModelKey, TrainConfig]
    ) -> ConditionalDiffusionModel:
        """Return the cached model for ``key``, fitting it on first use."""
        return self.resolve(key)[0]

    def resolve(
        self,
        key: Union[ModelKey, TrainConfig],
        on_fit_start: Optional[Callable[[ModelKey], None]] = None,
    ) -> Tuple[ConditionalDiffusionModel, str]:
        """Like :meth:`get_or_fit`, but also reports where the model came
        from: ``"memory"``, ``"disk"`` or ``"fit"``.  ``on_fit_start`` is
        invoked just before the builder runs (progress reporting)."""
        key = ModelKey.from_config(key)
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self._hits += 1
                self._models.move_to_end(key)
                self._m_hits.inc(tier="memory")
                return model, "memory"
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            # Double-check: another thread may have finished fitting while
            # this one waited on the per-key lock.
            with self._lock:
                model = self._models.get(key)
                if model is not None:
                    self._hits += 1
                    self._models.move_to_end(key)
                    self._m_hits.inc(tier="memory")
                    return model, "memory"
            model = self._load_from_disk(key)
            if model is not None:
                with self._lock:
                    self._disk_hits += 1
                self._m_hits.inc(tier="disk")
                self.put(key, model)
                return model, "disk"
            with self._fit_lock(key):
                # Single-flight across *processes*: while this one blocked
                # on the advisory lock, the winner may have published the
                # fitted model — re-check disk before paying for a refit
                # (prevents an N-worker retrain stampede at cold start).
                model = self._load_from_disk(key)
                if model is not None:
                    with self._lock:
                        self._disk_hits += 1
                    self._m_hits.inc(tier="disk")
                    self.put(key, model)
                    return model, "disk"
                if on_fit_start is not None:
                    on_fit_start(key)
                model = self._builder(key)
                self.put(key, model, _count_miss=True)
                self._save_to_disk(key, model)
                return model, "fit"

    # -- disk tier -----------------------------------------------------

    @contextmanager
    def _fit_lock(self, key: ModelKey):
        """Advisory cross-process lock for ``key``'s fit (no-op in memory-only
        registries or where ``fcntl`` is unavailable).

        The lock file sits next to the cache entry and is left in place —
        unlinking it would race a concurrent locker onto a different inode,
        silently voiding the mutual exclusion.
        """
        path = self.cache_path(key)
        if path is None or fcntl is None:
            yield
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = path.with_name(path.name + ".fitlock")
        handle = open(lock_path, "a+b")
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX)
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            handle.close()

    def _load_from_disk(
        self, key: ModelKey, retries: int = 3, retry_delay: float = 0.05
    ) -> Optional[ConditionalDiffusionModel]:
        path = self.cache_path(key)
        if path is None:
            return None
        for attempt in range(retries):
            if not path.exists():
                return None
            try:
                faults.fire("registry.disk_read")
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
                if payload.get("format") != _CACHE_FORMAT:
                    # A wrong-format payload is durable, not transient:
                    # retrying cannot fix it, so refit immediately.
                    return None
                model = payload["model"]
            except FileNotFoundError:
                return None
            except Exception:
                # A truncated or garbled read may be transient (a reader
                # racing a writer on a non-atomic filesystem, a torn NFS
                # page): retry briefly before degrading to a refit.  A
                # genuinely corrupt file exhausts the budget and refits —
                # the registry must never crash the service over cache
                # contents.
                if attempt + 1 < retries:
                    time.sleep(retry_delay * (attempt + 1))
                    continue
                return None
            if not getattr(model, "fitted", False):
                return None
            return model
        return None

    def _save_to_disk(self, key: ModelKey, model) -> Optional[Path]:
        path = self.cache_path(key)
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique per writer: two processes saving the same recipe must not
        # interleave writes into one tmp file before the atomic publish.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        payload = {
            "format": _CACHE_FORMAT,
            "recipe": key.as_dict(),
            "model": model,
        }
        try:
            faults.fire("registry.disk_write")
            with open(tmp, "wb") as handle:
                # Protocol 5 writes each array straight from its buffer;
                # protocol 4 would copy every array into a memoized bytes
                # object kept alive until the dump ends (the model's whole
                # size again).  Loads read either protocol, so the payload
                # format is unchanged.
                pickle.dump(payload, handle, protocol=5)
            tmp.replace(path)  # atomic: concurrent readers see old or new
        except Exception:
            tmp.unlink(missing_ok=True)
            return None
        return path

    # -- memory tier ---------------------------------------------------

    def put(
        self,
        key: Union[ModelKey, TrainConfig],
        model: ConditionalDiffusionModel,
        _count_miss: bool = False,
    ) -> None:
        """Insert a pre-fitted model (e.g. a benchmark fixture) under ``key``."""
        if not model.fitted:
            raise ValueError("registry only caches fitted models")
        key = ModelKey.from_config(key)
        with self._lock:
            if _count_miss:
                self._misses += 1
                self._m_misses.inc()
            self._models[key] = model
            self._models.move_to_end(key)
            while len(self._models) > self._max_models:
                evicted_key, _ = self._models.popitem(last=False)
                # Drop the per-key fit lock with its model: worst case two
                # threads re-fit an evicted key concurrently (wasted work,
                # not corruption), and the lock table stays bounded.
                self._key_locks.pop(evicted_key, None)
            self._m_resident.set(len(self._models))

    def __contains__(self, key: Union[ModelKey, TrainConfig]) -> bool:
        key = ModelKey.from_config(key)
        with self._lock:
            return key in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def clear(self) -> None:
        with self._lock:
            self._models.clear()
            self._key_locks.clear()
            self._m_resident.set(0)

    def stats(self) -> Dict:
        with self._lock:
            return {
                "cached": len(self._models),
                "hits": self._hits,
                "misses": self._misses,
                "disk_hits": self._disk_hits,
            }
