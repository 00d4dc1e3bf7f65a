"""The one typed pipeline behind every entrypoint.

``PatternPipeline`` is built once from a :class:`PipelineConfig` and
exposes the paper's chain — condition -> diffusion sampling -> legalization
-> library — as chainable stages::

    pipeline = PatternPipeline(PipelineConfig())
    result = pipeline.sample().legalize().score().persist()
    print(result.scores, result.timings)

Each stage returns a :class:`PipelineResult` carrying the accumulated
artifacts (topologies, legal library, scores, output paths) and per-stage
wall-clock timings; results chain back into the pipeline, so
``pipeline.sample().legalize()`` and ``pipeline.legalize(pipeline.sample())``
are the same call.

The fitted back-end is resolved lazily through a
:class:`~repro.serve.registry.ModelRegistry` (memory LRU + optional disk
cache under ``config.model_cache``), so repeated pipelines — including
repeated CLI processes — skip retraining.  The stage *primitives*
(``sample_topologies``, ``extend_one``, ``modify_one``,
``legalize_topologies``, ``legalize_one``, ``persist_library``) are the
single implementation the agent tools, the serving subsystem and the CLI
all route through, and each runs inside the pipeline's one stage recorder
(:meth:`PatternPipeline.stage`): a request records the same stages
whether the agent or the chain calls them.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.config import PipelineConfig
from repro.data.styles import style_condition
from repro.drc.violations import GridRegion
from repro.io.gds import write_gds
from repro.io.store import save_library
from repro.legalize.legalizer import LegalizationResult, legalize
from repro.metrics.legality import (
    LegalityResult,
    legalize_many,
    physical_size_for,
)
from repro.metrics.stats import library_stats
from repro.obs.metrics import NULL_METRICS, default_metrics
from repro.obs.trace import StageTiming
from repro.ops.extend import ExtensionResult, extend
from repro.ops.modify import modify_region
from repro.squish.pattern import PatternLibrary

# Process-wide default registries, one per model-cache directory, so every
# facade that builds a pipeline without an explicit registry (repeated
# ``ChatPattern.pretrained`` calls, CLI subcommands...) shares fitted models.
_default_registries: Dict[Optional[str], "ModelRegistry"] = {}
_default_registries_lock = threading.Lock()

_UNSET = object()  # "resolve the store from config" vs an explicit None


def default_registry(model_cache: Optional[Union[str, Path]] = None):
    """The process-wide shared registry for ``model_cache`` (or in-memory)."""
    from repro.serve.registry import ModelRegistry

    token = (
        str(Path(model_cache).expanduser().resolve()) if model_cache else None
    )
    with _default_registries_lock:
        registry = _default_registries.get(token)
        if registry is None:
            registry = ModelRegistry(save_dir=model_cache)
            _default_registries[token] = registry
        return registry


@dataclass
class PipelineResult:
    """Accumulated artifacts of a pipeline run, chainable into more stages."""

    config: PipelineConfig
    style: Optional[str] = None
    topologies: List[np.ndarray] = field(default_factory=list)
    library: PatternLibrary = field(
        default_factory=lambda: PatternLibrary(name="pipeline-output")
    )
    legality: Optional[LegalityResult] = None
    scores: Dict = field(default_factory=dict)
    output_path: Optional[Path] = None
    gds_path: Optional[Path] = None
    store_added: int = 0
    store_deduplicated: int = 0
    timings: List[StageTiming] = field(default_factory=list)
    _pipeline: Optional["PatternPipeline"] = field(
        default=None, repr=False, compare=False
    )

    # -- chaining ------------------------------------------------------

    def _require_pipeline(self) -> "PatternPipeline":
        if self._pipeline is None:
            raise RuntimeError("result is not attached to a pipeline")
        return self._pipeline

    def legalize(self, **kwargs) -> "PipelineResult":
        return self._require_pipeline().legalize(result=self, **kwargs)

    def score(self, **kwargs) -> "PipelineResult":
        return self._require_pipeline().score(result=self, **kwargs)

    def persist(self, **kwargs) -> "PipelineResult":
        return self._require_pipeline().persist(result=self, **kwargs)

    def export(self, path, **kwargs) -> "PipelineResult":
        return self._require_pipeline().export(path, result=self, **kwargs)

    # -- bookkeeping ---------------------------------------------------

    def stage_seconds(self, stage: str) -> float:
        return sum(t.seconds for t in self.timings if t.stage == stage)

    @property
    def produced(self) -> int:
        return len(self.library)

    @property
    def dropped(self) -> int:
        """Topologies that failed legalization (0 before the stage ran)."""
        if self.legality is None:
            return 0
        return self.legality.total - len(self.legality.legal)

    def summary(self) -> str:
        parts = [f"{len(self.topologies)} topology(ies)"]
        if self.legality is not None:
            parts.append(
                f"legal {len(self.legality.legal)} "
                f"({self.legality.legality:.0%})"
            )
        if self.scores:
            parts.append(f"scores {self.scores}")
        timing = ", ".join(
            f"{t.stage}={t.seconds:.3f}s" for t in self.timings
        )
        return f"pipeline: {'; '.join(parts)}" + (
            f" [{timing}]" if timing else ""
        )


class PatternPipeline:
    """The typed sample -> extend -> legalize -> score -> persist pipeline.

    Args:
        config: the composed pipeline description; defaults to the paper's
            base setting.
        model: a pre-fitted back-end, bypassing registry resolution (used
            by the serving path, whose model is a per-request batched
            engine client, and by tests).
        registry: explicit :class:`ModelRegistry`; defaults to the shared
            process-wide registry for ``config.model_cache``.
        store: explicit :class:`LibraryStore` (or an explicit ``None`` to
            disable persistence); when omitted one is opened lazily at
            ``config.store.store_dir``.
        verbose: print model-resolution markers to stderr (the CLI's
            training/cache-hit lines).
        metrics: explicit metrics registry.  When omitted,
            ``config.obs.enabled`` picks between the process-wide default
            and the shared no-op registry, so a disabled config costs one
            attribute call per stage.
        job: optional lifecycle :class:`~repro.serve.jobs.Job` this
            pipeline reports into: every stage :meth:`stage` records is a
            cancel checkpoint + state transition of the job and lands in
            its ``stage_events``.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        model=None,
        registry=None,
        store=_UNSET,
        verbose: bool = False,
        metrics=None,
        job=None,
    ):
        self.config = config or PipelineConfig()
        self._model = model
        self._registry = registry
        self._store = None if store is _UNSET else store
        self._store_resolved = store is not _UNSET
        self.verbose = verbose
        self.model_source: Optional[str] = None
        obs = self.config.obs
        if metrics is None:
            metrics = default_metrics() if obs.enabled else NULL_METRICS
        self.metrics = metrics
        self.job = job
        #: the stage :meth:`stage` recorded last, which the chain stages
        #: append to their result (a pipeline runs one stage at a time)
        self.last_stage: Optional[StageTiming] = None
        self._m_stage_latency = metrics.histogram(
            "repro_stage_latency_seconds",
            "Pipeline stage wall time",
            labels=("stage",),
        )

    @contextmanager
    def stage(self, name: str, **detail) -> Iterator[StageTiming]:
        """Record one stage: the one place a stage is recorded.

        Entering is the job's cancel checkpoint and state transition
        (``legalize`` -> LEGALIZING, ``persist`` -> PERSISTING, others ->
        RUNNING(stage)), before the timed window, so ``DELETE`` on a
        running job takes effect at its next stage and ``GET`` status
        reports the stage executing.  The body may add to the yielded
        :class:`StageTiming`'s ``detail``.  When the body returns, the
        timing is observed into ``repro_stage_latency_seconds``, appended
        to the job's ``stage_events`` and kept as :attr:`last_stage`; a
        body that raises records nothing.
        """
        if self.job is not None:
            self.job.enter_stage(name)
        timing = StageTiming(name, 0.0, detail, start=time.perf_counter())
        yield timing
        timing.seconds = time.perf_counter() - timing.start
        self._m_stage_latency.observe(timing.seconds, stage=name)
        if self.job is not None:
            self.job.record_stage(timing)
        self.last_stage = timing

    # -- resolution ----------------------------------------------------

    @property
    def registry(self):
        if self._registry is None:
            self._registry = default_registry(self.config.model_cache)
        return self._registry

    @property
    def model_key(self):
        from repro.serve.registry import ModelKey

        return ModelKey.from_config(self.config.train)

    @property
    def model(self):
        """The fitted back-end, resolved through the registry on first use."""
        if self._model is None:
            started = time.perf_counter()
            self._model, self.model_source = self.registry.resolve(
                self.model_key, on_fit_start=self._log_fit_start
            )
            self._log_model_source(
                self.model_source, time.perf_counter() - started
            )
        return self._model

    def _log_fit_start(self, key) -> None:
        """Announce training *before* it runs, so a cold first run is not
        silent for the whole fit."""
        if self.verbose:
            print(
                f"[repro] training back-end ({key.train_count} tiles/style, "
                f"window {key.window})...",
                file=sys.stderr,
            )

    def _log_model_source(self, source: str, seconds: float) -> None:
        if not self.verbose:
            return
        if source == "fit":
            message = f"[repro] training done in {seconds:.1f}s"
            phases = getattr(self._model, "fit_phases", None)
            if phases:
                message += " (" + ", ".join(
                    f"{name} {took:.1f}s" for name, took in phases.items()
                ) + ")"
        elif source == "disk":
            message = (
                "[repro] model cache hit: loaded fitted back-end from "
                f"{self.registry.cache_path(self.config.train)} "
                "(skipping training)"
            )
        else:
            message = (
                "[repro] model registry hit: reusing fitted back-end "
                "(skipping training)"
            )
        print(message, file=sys.stderr)

    @property
    def store(self):
        """The attached indexed pattern store, opened lazily from config."""
        if not self._store_resolved:
            if self.config.store.store_dir:
                from repro.serve.store import LibraryStore

                self._store = LibraryStore(
                    self.config.store.store_dir, metrics=self.metrics
                )
            self._store_resolved = True
        return self._store

    def _rng(self, seed: Optional[int] = None) -> np.random.Generator:
        if seed is None:
            seed = (
                self.config.sample.seed
                if self.config.sample.seed is not None
                else self.config.train.seed
            )
        return np.random.default_rng(seed)

    def _condition(self, style: str) -> Optional[int]:
        return style_condition(style) if self.model.n_classes else None

    def _result(self) -> PipelineResult:
        return PipelineResult(config=self.config, _pipeline=self)

    def with_library(self, library: PatternLibrary) -> PipelineResult:
        """Start a result from an existing library (evaluate/export flows)."""
        result = self._result()
        result.library = library
        return result

    # -- primitives (the single shared implementation) -----------------

    def sample_topologies(
        self,
        count: int,
        style: str,
        size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample ``count`` fixed-size topologies of one style (a
        ``sample`` stage)."""
        size = size or self.config.sample.size or self.model.window
        with self.stage(
            "sample", count=count, style=style, size=size,
            **self._sampler_detail(),
        ):
            return self.model.sample(
                count, self._condition(style), rng or self._rng(),
                shape=(size, size),
                sampler_steps=self.config.sample.sampler_steps,
            )

    def extend_one(
        self,
        size: Union[int, Tuple[int, int]],
        style: str,
        method: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
        seed_topology: Optional[np.ndarray] = None,
    ) -> ExtensionResult:
        """Free-size synthesis of one topology via in/out-painting (an
        ``extend`` stage)."""
        shape = (size, size) if isinstance(size, int) else tuple(size)
        if min(shape) < self.model.window:
            raise ValueError(
                f"extension target {shape} is smaller than the model "
                f"window {self.model.window}; use sample(size=...) for "
                "sub-window topologies"
            )
        method = (method or self.config.sample.extend_method).lower()
        with self.stage(
            "extend", size=size, method=method, **self._sampler_detail()
        ) as timing:
            extension = extend(
                self.model,
                shape,
                self._condition(style),
                rng or self._rng(),
                method=method,
                seed_topology=seed_topology,
                sampler_steps=self.config.sample.sampler_steps,
            )
            timing.detail["samplings"] = extension.samplings
        return extension

    def modify_one(
        self,
        topology: np.ndarray,
        region: GridRegion,
        style: str,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Regenerate one cell region of a topology (Eq. 12; a ``modify``
        stage)."""
        with self.stage("modify", region=region.as_tuple()):
            return modify_region(
                self.model, topology, region, self._condition(style),
                rng or self._rng(),
                sampler_steps=self.config.sample.sampler_steps,
            )

    def legalize_topologies(
        self,
        topologies: Sequence[np.ndarray],
        style: str,
        physical_size: Optional[Tuple[int, int]] = None,
        rules=None,
    ) -> LegalityResult:
        """Batch-legalize topologies with the configured engine (a
        ``legalize`` stage)."""
        cfg = self.config.legalize
        with self.stage("legalize") as timing:
            legality = legalize_many(
                topologies,
                style,
                rules=rules,
                physical_size=physical_size or cfg.physical_size,
                keep_failures=cfg.keep_failures,
                engine=cfg.engine,
                fault_isolation=cfg.fault_isolation,
            )
            timing.detail.update(
                total=legality.total, legal=len(legality.legal)
            )
        return legality

    def legalize_one(
        self,
        topology: np.ndarray,
        style: str,
        physical_size: Optional[Tuple[int, int]] = None,
        rules=None,
    ) -> LegalizationResult:
        """Legalize a single topology, keeping the full per-item log/region
        contract the agent's Legalization tool rides (a ``legalize`` stage
        of one pattern)."""
        from repro.drc.rules import rules_for_style

        target = (
            physical_size
            or self.config.legalize.physical_size
            or physical_size_for(topology.shape)
        )
        with self.stage("legalize") as timing:
            outcome = legalize(
                topology,
                target,
                rules or rules_for_style(style),
                style=style,
                engine=self.config.legalize.engine,
            )
            timing.detail.update(total=1, legal=int(outcome.ok))
        return outcome

    def _sampler_detail(self) -> Dict:
        """Step-schedule provenance for stage timings.

        Reports how many denoiser evaluations one trajectory costs under
        the configured ``sampler_steps`` against the full chain's
        evaluations (``denoise_evals("full")``, not the schedule length), so
        ``PipelineResult.timings`` carries the per-stage speedup factor.
        """
        detail: Dict = {"sampler_steps": self.config.sample.sampler_steps}
        model = self.model
        if hasattr(model, "denoise_evals"):
            evals = int(model.denoise_evals(self.config.sample.sampler_steps))
            full = int(model.denoise_evals("full"))
            detail.update(
                denoise_evals=evals,
                full_steps=full,
                step_speedup=round(full / max(evals, 1), 2),
            )
        return detail

    def persist_library(
        self,
        library: PatternLibrary,
        output: Optional[Union[str, Path]] = None,
    ):
        """Write a library to ``output`` (.npz) and add it to the attached
        indexed store (dedup): a ``persist`` stage, recorded even when an
        empty library or no store leaves nothing to write.  Returns the
        store report, or ``None`` when nothing reached a store."""
        with self.stage("persist") as timing:
            path = (
                save_library(library, output)
                if output and len(library)
                else None
            )
            report = (
                self.store.add_library(library, legal=True)
                if self.store is not None and len(library)
                else None
            )
            timing.detail.update(
                output=str(path) if path else None,
                store_added=report.added if report is not None else 0,
            )
        return report

    # -- chainable stages ----------------------------------------------
    #
    # Each runs one or more primitives (or the recorder itself) and appends
    # the timings they recorded to the result, so ``result.timings`` and a
    # job's ``stage_events`` hold the same objects.

    def sample(
        self,
        count: Optional[int] = None,
        style: Optional[str] = None,
        size: Optional[int] = None,
        seed: Optional[int] = None,
        result: Optional[PipelineResult] = None,
    ) -> PipelineResult:
        """Stage: draw fixed-size samples into a fresh (or given) result."""
        result = result or self._result()
        style = style or self.config.sample.style
        count = count if count is not None else self.config.sample.count
        samples = self.sample_topologies(
            count, style, size=size, rng=self._rng(seed)
        )
        result.topologies.extend(list(samples))
        result.style = style
        result.timings.append(self.last_stage)
        return result

    def extend(
        self,
        size: Optional[int] = None,
        method: Optional[str] = None,
        count: Optional[int] = None,
        style: Optional[str] = None,
        seed: Optional[int] = None,
        result: Optional[PipelineResult] = None,
    ) -> PipelineResult:
        """Stage: free-size synthesis via in/out-painting, one ``extend``
        timing per topology."""
        result = result or self._result()
        style = style or self.config.sample.style
        count = count if count is not None else self.config.sample.count
        size = size or self.config.sample.extend_size or self.model.window
        rng = self._rng(seed)
        for _ in range(count):
            extension = self.extend_one(size, style, method=method, rng=rng)
            result.topologies.append(extension.topology)
            result.timings.append(self.last_stage)
        result.style = style
        return result

    def legalize(
        self,
        result: Optional[PipelineResult] = None,
        topologies: Optional[Sequence[np.ndarray]] = None,
        style: Optional[str] = None,
        physical_size: Optional[Tuple[int, int]] = None,
    ) -> PipelineResult:
        """Stage: batch-legalize the result's topologies into its library."""
        result = result or self._result()
        items = list(topologies) if topologies is not None else result.topologies
        style = style or result.style or self.config.sample.style
        legality = self.legalize_topologies(
            items, style, physical_size=physical_size
        )
        result.legality = legality
        result.library.extend(list(legality.legal))
        result.style = style
        result.timings.append(self.last_stage)
        return result

    def score(
        self, result: Optional[PipelineResult] = None
    ) -> PipelineResult:
        """Stage: legality/diversity/library statistics into ``scores``."""
        result = result or self._result()
        with self.stage("score") as timing:
            scores: Dict = {"count": len(result.library)}
            if result.legality is not None:
                scores["legality"] = round(result.legality.legality, 4)
            stats = library_stats(result.library)
            scores["stats"] = stats.as_dict()
            if len(result.library):
                scores["diversity"] = round(stats.diversity, 4)
            result.scores = scores
        result.timings.append(timing)
        return result

    def persist(
        self,
        result: Optional[PipelineResult] = None,
        output: Optional[Union[str, Path]] = None,
    ) -> PipelineResult:
        """Stage: write the legal library (.npz and/or the indexed store)."""
        result = result or self._result()
        report = self.persist_library(
            result.library, output or self.config.store.output_path
        )
        result.timings.append(self.last_stage)
        written = self.last_stage.detail["output"]
        if written:
            result.output_path = Path(written)
        if report is not None:
            result.store_added += report.added
            result.store_deduplicated += report.deduplicated
        return result

    def export(
        self,
        path: Union[str, Path],
        result: Optional[PipelineResult] = None,
    ) -> PipelineResult:
        """Stage: write the result's library to GDSII."""
        result = result or self._result()
        with self.stage("export") as timing:
            result.gds_path = Path(write_gds(result.library, path))
            timing.detail["path"] = str(result.gds_path)
        result.timings.append(timing)
        return result

    def run(self) -> PipelineResult:
        """The configured default chain: (sample | extend) -> legalize ->
        score -> persist."""
        if self.config.sample.extend_size:
            result = self.extend()
        else:
            result = self.sample()
        return self.persist(self.score(self.legalize(result)))

    # -- facades over the other subsystems -----------------------------

    def chat(self, text: str, objective: Optional[str] = None):
        """Run one natural-language request through the agent front-end."""
        from repro.core.chatpattern import ChatPattern

        facade = ChatPattern(
            self,
            max_retries=self.config.serve.max_retries,
            base_seed=self.config.serve.base_seed,
        )
        return facade.handle_request(
            text, objective=objective or self.config.serve.objective
        )

    def service(self, registry=None):
        """Build a :class:`PatternService` from this pipeline's config.

        The service reads every setting from that config, and shares this
        pipeline's model, store and metrics registry, so one snapshot
        covers the pipeline stages, the engine and the store.
        """
        from repro.serve.service import PatternService

        return PatternService(
            self.config,
            model=self._model,
            registry=registry or self.registry,
            store=self.store,
            metrics=self.metrics,
        )
