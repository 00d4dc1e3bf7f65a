"""The typed-config pipeline API: one front door for every entrypoint.

- :mod:`repro.api.config` — frozen per-stage configs composed into
  :class:`PipelineConfig`, with lossless dict/JSON round-trips.
- :mod:`repro.api.pipeline` — :class:`PatternPipeline`, the chainable
  sample -> extend -> legalize -> score -> persist pipeline all CLI
  subcommands, the ``ChatPattern`` facade and the serving subsystem share.
"""

from repro.api.config import (
    OBJECTIVES,
    SERVE_POLICIES,
    ConfigError,
    FaultConfig,
    LegalizeConfig,
    ObsConfig,
    PipelineConfig,
    SampleConfig,
    ServeConfig,
    StoreConfig,
    TrainConfig,
    TuneConfig,
)
from repro.api.pipeline import (
    PatternPipeline,
    PipelineResult,
    StageTiming,
    default_registry,
)

__all__ = [
    "OBJECTIVES",
    "SERVE_POLICIES",
    "ConfigError",
    "FaultConfig",
    "LegalizeConfig",
    "ObsConfig",
    "PatternPipeline",
    "PipelineConfig",
    "PipelineResult",
    "SampleConfig",
    "ServeConfig",
    "StageTiming",
    "StoreConfig",
    "TrainConfig",
    "TuneConfig",
    "default_registry",
]
