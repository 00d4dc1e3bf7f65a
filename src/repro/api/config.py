"""Typed configuration for the one true pipeline.

Every entrypoint of the system — the CLI subcommands, the ``ChatPattern``
facade, the batched ``PatternService`` — describes the same pipeline
(condition -> diffusion sampling -> legalization -> library), so they share
one configuration vocabulary: five frozen dataclasses, one per stage,
composed into :class:`PipelineConfig`.  Each config round-trips losslessly
through ``as_dict``/``from_dict`` and :class:`PipelineConfig` through JSON
(``save``/``load``), which is what the CLI's ``--config pipeline.json``
flag consumes.

:class:`TrainConfig` doubles as the *recipe* of a fitted back-end: the
registry's ``ModelKey`` derives from it (see :mod:`repro.serve.registry`),
so the config system and the model cache speak the same language, and
``recipe_hash`` names the on-disk cache entry of a fitted model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.data.dataset import DatasetConfig
from repro.data.styles import STYLES, TILE_NM
from repro.diffusion.schedule import validate_sampler_steps
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricError, validate_buckets


class ConfigError(ValueError):
    """A config payload does not describe a valid pipeline."""


@dataclass(frozen=True)
class StageConfig:
    """Shared dict/JSON plumbing for the flat per-stage configs.

    ``from_dict`` rejects unknown keys (a typo in a pipeline.json must fail
    loudly, not silently fall back to a default) and normalises lists to
    tuples so a JSON round-trip compares equal to the original.
    """

    def as_dict(self) -> Dict:
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "StageConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"{cls.__name__} payload must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} field(s): {unknown}; "
                f"known: {sorted(known)}"
            )
        kwargs = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in data.items()
        }
        return cls(**kwargs)

    def replace(self, **changes) -> "StageConfig":
        """Functional update (configs are frozen)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class TrainConfig(StageConfig):
    """Everything that determines a fitted diffusion back-end.

    The defaults reproduce the paper's base setting (both styles, 128
    window, 48 training tiles per style).  ``seed`` drives both the dataset
    tiling and the denoiser's fit, exactly as the registry's builder does.
    """

    styles: Tuple[str, ...] = tuple(STYLES)
    window: int = 128
    train_count: int = 48
    seed: int = 2024
    tile_nm: int = TILE_NM
    map_scale: int = 8

    def dataset_config(self) -> DatasetConfig:
        return DatasetConfig(
            tile_nm=self.tile_nm,
            topology_size=self.window,
            map_scale=self.map_scale,
            seed=self.seed,
        )

    def recipe_hash(self) -> str:
        """Stable content hash of the recipe (the disk-cache key)."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class SampleConfig(StageConfig):
    """Fixed-size sampling and free-size extension parameters.

    ``size`` defaults to the model window; ``seed`` falls back to the
    training seed when unset.  ``extend_size`` switches the pipeline's
    default run from the ``sample`` stage to the ``extend`` stage.
    ``sampler_steps`` picks the reverse-step schedule: ``"full"`` walks
    every step from the schedule's ``start_step`` down, ``"bucketed"``
    collapses steps sharing a denoiser noise bucket to one representative
    (~``n_buckets`` denoiser evaluations), an int visits that many evenly
    spaced steps.
    """

    style: str = STYLES[0]
    count: int = 4
    size: Optional[int] = None
    seed: Optional[int] = None
    extend_size: Optional[int] = None
    extend_method: str = "out"
    sampler_steps: Union[str, int] = "full"

    def __post_init__(self):
        if self.extend_method not in ("out", "in"):
            raise ConfigError(
                f"extend_method must be 'out' or 'in', got "
                f"{self.extend_method!r}"
            )
        try:
            validate_sampler_steps(self.sampler_steps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class LegalizeConfig(StageConfig):
    """Batch-legalization knobs (see :func:`repro.metrics.legalize_many`)."""

    physical_size: Optional[Tuple[int, int]] = None
    engine: str = "vectorized"
    keep_failures: bool = False
    fault_isolation: bool = True


@dataclass(frozen=True)
class StoreConfig(StageConfig):
    """Where pipeline output goes: flat ``.npz`` and/or the indexed store."""

    store_dir: Optional[str] = None
    output_path: Optional[str] = None


#: Batching policies of the serving engine.  The implementations live in
#: :mod:`repro.serve.engine`; the names are declared here so config
#: validation never has to import the engine.  ``fair_share`` is the one
#: selection rule (FIFO within a request source, sources taking turns);
#: ``adaptive`` is that rule steered by the hysteresis controller
#: configured through :class:`TuneConfig`.
SERVE_POLICIES = ("fair_share", "adaptive")

#: What a request's agent optimizes when it picks among candidates.
OBJECTIVES = ("legality", "diversity")


@dataclass(frozen=True)
class ServeConfig(StageConfig):
    """Multi-request service/engine knobs (see :class:`PatternService` and
    :class:`~repro.serve.engine.ServeEngine`).

    ``policy`` picks the batching policy (``fair_share`` = FIFO within a
    request source, sources taking turns; ``adaptive`` = fair-share
    selection steered by the :class:`TuneConfig` hysteresis controller,
    degrading sampler quality under queue pressure to hold the latency
    SLO).  ``queue_limit`` bounds the admission queue (jobs beyond it
    fast-fail with backpressure instead of queueing unboundedly);
    ``deadline`` expires jobs still queued after that many seconds.
    ``job_ttl`` bounds, in seconds, how long finished lifecycle jobs stay
    readable in the service's :class:`~repro.serve.jobs.JobTable` (and
    thus pollable over HTTP) after reaching a terminal state.
    ``state_dir`` names a directory where the job table journals job
    records: on restart, terminal jobs are rehydrated (pollable instead
    of 404) and jobs caught mid-flight come back FAILED with the stable
    ``server_restart`` error code.
    """

    objective: str = "legality"
    gather_window: float = 0.02
    max_batch: int = 64
    max_workers: int = 8
    max_retries: int = 2
    base_seed: int = 0
    policy: str = "fair_share"
    queue_limit: Optional[int] = None
    deadline: Optional[float] = None
    job_ttl: float = 600.0
    state_dir: Optional[str] = None

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"unknown objective {self.objective!r}; known: "
                f"{list(OBJECTIVES)}"
            )
        if self.policy not in SERVE_POLICIES:
            raise ConfigError(
                f"unknown serve policy {self.policy!r}; known: "
                f"{sorted(SERVE_POLICIES)}"
            )
        if not (math.isfinite(self.gather_window) and self.gather_window >= 0):
            raise ConfigError("gather_window must be finite and >= 0 seconds")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if self.max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ConfigError("queue_limit must be >= 1 (or null)")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError("deadline must be > 0 seconds (or null)")
        if self.job_ttl <= 0:
            raise ConfigError("job_ttl must be > 0 seconds")
        if self.state_dir is not None and not isinstance(self.state_dir, str):
            raise ConfigError("state_dir must be a path string (or null)")


@dataclass(frozen=True)
class ObsConfig(StageConfig):
    """Observability knobs (see :mod:`repro.obs`).

    ``enabled`` turns the whole telemetry layer on/off — off hands every
    instrumented component a shared no-op registry and writes no trace,
    so the cost of instrumentation is one attribute call.
    ``snapshot_path`` (with ``snapshot_interval`` seconds) activates the
    background
    :class:`~repro.obs.export.SnapshotWriter` dumping the JSON snapshot
    there and the Prometheus text exposition next to it (``+ ".prom"``);
    ``trace_path`` writes the request span trees as JSON lines on service
    shutdown, derived from the jobs the service still holds (the job TTL
    bounds them).  ``latency_buckets`` is the histogram bucket ladder
    (seconds, strictly increasing) every latency histogram uses.
    """

    enabled: bool = True
    snapshot_path: Optional[str] = None
    snapshot_interval: float = 5.0
    trace_path: Optional[str] = None
    latency_buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS

    def __post_init__(self):
        if self.snapshot_interval <= 0:
            raise ConfigError("snapshot_interval must be > 0 seconds")
        try:
            validate_buckets(self.latency_buckets)
        except MetricError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class FaultConfig(StageConfig):
    """Deterministic fault injection (see :mod:`repro.faults`).

    Disabled by default: every component then shares the no-op
    :data:`~repro.faults.NULL_FAULTS` plan and injection costs one
    attribute load — the same null-object pattern as :class:`ObsConfig`.
    When ``enabled``, the service builds and installs a seeded
    :class:`~repro.faults.FaultPlan` from ``points`` (each a mapping as
    accepted by :func:`repro.faults.validate_point`); injections are
    counted in ``repro_faults_injected_total{site=...}``.
    """

    enabled: bool = False
    seed: int = 0
    points: Tuple[Dict, ...] = ()

    def __post_init__(self):
        from repro.faults.plan import validate_point

        try:
            normalized = tuple(validate_point(p) for p in self.points)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "points", normalized)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"fault seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class TuneConfig(StageConfig):
    """Self-tuning knobs: the latency SLO and the adaptive-policy
    hysteresis controller (see :mod:`repro.tune`).

    ``slo_p95`` is the target p95 request latency in seconds — the
    contract both halves of the tuning subsystem optimise for: the online
    ``adaptive`` batch policy trades sampler quality for latency to hold
    it, and the offline ``repro tune`` search scores candidate configs
    against it.  ``degrade_ladder`` lists the step schedules the
    controller walks through under sustained pressure, best quality
    first (level 1 uses the first entry, level 2 the second, ...);
    ``floor_steps`` is the quality floor no job is ever degraded below.
    ``degrade_after`` / ``restore_after`` are the hysteresis widths:
    consecutive pressured ticks before stepping down one level, and
    consecutive calm ticks before stepping back up.  ``queue_high`` /
    ``queue_low`` are the queue-depth thresholds defining
    *pressured* and *calm*; ``gather_boost`` multiplies the engine's
    gather window per degrade level (wider gathering = bigger batches
    under load); ``tick_interval`` rate-limits controller decisions.
    """

    slo_p95: float = 2.0
    degrade_ladder: Tuple[Union[str, int], ...] = (32, "bucketed")
    floor_steps: Union[str, int] = "bucketed"
    degrade_after: int = 2
    restore_after: int = 5
    queue_high: int = 8
    queue_low: int = 2
    gather_boost: float = 2.0
    tick_interval: float = 0.05

    def __post_init__(self):
        if self.slo_p95 <= 0:
            raise ConfigError("slo_p95 must be > 0 seconds")
        if not self.degrade_ladder:
            raise ConfigError(
                "degrade_ladder must name at least one degraded schedule"
            )
        for spec in tuple(self.degrade_ladder) + (self.floor_steps,):
            if spec is None:
                raise ConfigError(
                    "degrade_ladder/floor_steps entries must be explicit "
                    "step schedules ('full' | 'bucketed' | int), not null"
                )
            try:
                validate_sampler_steps(spec)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.degrade_after < 1:
            raise ConfigError("degrade_after must be >= 1 ticks")
        if self.restore_after < 1:
            raise ConfigError("restore_after must be >= 1 ticks")
        if self.queue_low < 0 or self.queue_high <= self.queue_low:
            raise ConfigError("need queue_high > queue_low >= 0")
        if self.gather_boost < 1.0:
            raise ConfigError("gather_boost must be >= 1")
        if self.tick_interval < 0:
            raise ConfigError("tick_interval must be >= 0 seconds")


@dataclass(frozen=True)
class PipelineConfig(StageConfig):
    """The composed pipeline description behind every entrypoint.

    ``model_cache`` names a directory for the persistent fitted-model cache:
    when set, a second run with the same :class:`TrainConfig` loads the
    fitted back-end from disk instead of retraining.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    legalize: LegalizeConfig = field(default_factory=LegalizeConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    tune: TuneConfig = field(default_factory=TuneConfig)
    model_cache: Optional[str] = None

    _SECTIONS = {
        "train": TrainConfig,
        "sample": SampleConfig,
        "legalize": LegalizeConfig,
        "store": StoreConfig,
        "serve": ServeConfig,
        "obs": ObsConfig,
        "faults": FaultConfig,
        "tune": TuneConfig,
    }

    def as_dict(self) -> Dict:
        out = {
            name: getattr(self, name).as_dict() for name in self._SECTIONS
        }
        out["model_cache"] = self.model_cache
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"PipelineConfig payload must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = set(cls._SECTIONS) | {"model_cache"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown PipelineConfig field(s): {unknown}; "
                f"known: {sorted(known)}"
            )
        kwargs = {}
        for name, section_cls in cls._SECTIONS.items():
            if name in data:
                value = data[name]
                if isinstance(value, section_cls):
                    kwargs[name] = value
                else:
                    kwargs[name] = section_cls.from_dict(value)
        if "model_cache" in data:
            kwargs["model_cache"] = data["model_cache"]
        return cls(**kwargs)

    # -- JSON round-trip ----------------------------------------------

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "PipelineConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid pipeline JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.dumps() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PipelineConfig":
        return cls.loads(Path(path).read_text())
