"""Property-style round-trip tests for the typed pipeline configs."""

import dataclasses
import json

import pytest

from repro.api.config import (
    ConfigError,
    LegalizeConfig,
    ObsConfig,
    PipelineConfig,
    SampleConfig,
    ServeConfig,
    StoreConfig,
    TrainConfig,
    TuneConfig,
)

SECTIONS = (
    TrainConfig, SampleConfig, LegalizeConfig, StoreConfig, ServeConfig,
    TuneConfig,
)


def _variants():
    """A non-default instance of every config, exercising every field."""
    return [
        TrainConfig(styles=("Layer-10003",), window=64, train_count=8,
                    seed=7, tile_nm=1024, map_scale=4),
        SampleConfig(style="Layer-10003", count=3, size=32, seed=11,
                     extend_size=128, extend_method="in",
                     sampler_steps="bucketed"),
        LegalizeConfig(physical_size=(1024, 1024), engine="reference",
                       keep_failures=True, fault_isolation=False),
        StoreConfig(store_dir="store", output_path="out.npz"),
        ServeConfig(objective="diversity", gather_window=0.5, max_batch=16,
                    max_workers=2, max_retries=0, base_seed=3,
                    policy="fair_share", queue_limit=128, deadline=30.0),
        TuneConfig(slo_p95=1.5, degrade_ladder=(64, 16, "bucketed"),
                   floor_steps=8, degrade_after=3, restore_after=4,
                   queue_high=16, queue_low=4, gather_boost=1.5,
                   tick_interval=0.1),
    ]


class TestSectionRoundTrip:
    @pytest.mark.parametrize("cls", SECTIONS)
    def test_defaults_round_trip(self, cls):
        cfg = cls()
        assert cls.from_dict(cfg.as_dict()) == cfg

    @pytest.mark.parametrize("cfg", _variants(), ids=lambda c: type(c).__name__)
    def test_non_defaults_round_trip(self, cfg):
        rebuilt = type(cfg).from_dict(cfg.as_dict())
        assert rebuilt == cfg
        # ... and through actual JSON text (lists vs tuples normalised)
        rebuilt = type(cfg).from_dict(json.loads(json.dumps(cfg.as_dict())))
        assert rebuilt == cfg

    @pytest.mark.parametrize("cls", SECTIONS)
    def test_unknown_key_rejected(self, cls):
        with pytest.raises(ConfigError, match="unknown"):
            cls.from_dict({"definitely_not_a_field": 1})

    @pytest.mark.parametrize("cls", SECTIONS)
    def test_non_mapping_rejected(self, cls):
        with pytest.raises(ConfigError):
            cls.from_dict([1, 2, 3])

    def test_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.window = 64

    def test_replace_is_functional(self):
        cfg = TrainConfig()
        other = cfg.replace(window=64)
        assert cfg.window == 128 and other.window == 64

    def test_sample_config_validates_method(self):
        with pytest.raises(ConfigError):
            SampleConfig(extend_method="sideways")

    def test_serve_config_validates_engine_knobs(self):
        with pytest.raises(ConfigError, match="unknown serve policy"):
            ServeConfig(policy="fifo")
        # A saved config naming a field the schema lacks must fail loudly.
        with pytest.raises(ConfigError, match="executor"):
            ServeConfig.from_dict({"executor": "thread"})
        with pytest.raises(ConfigError, match="queue_limit"):
            ServeConfig(queue_limit=0)
        with pytest.raises(ConfigError, match="max_workers"):
            ServeConfig(max_workers=0)
        with pytest.raises(ConfigError, match="deadline"):
            ServeConfig(deadline=0.0)

    @pytest.mark.parametrize("objective", ["bogus", "", None, 1])
    def test_serve_config_rejects_an_unknown_objective(self, objective):
        with pytest.raises(ConfigError, match="legality.*diversity"):
            ServeConfig(objective=objective)
        # A saved pipeline.json fails at load, not at its first request.
        with pytest.raises(ConfigError, match="objective"):
            PipelineConfig.from_dict({"serve": {"objective": objective}})

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("gather_window", float("nan")),
            ("gather_window", float("inf")),
            ("gather_window", -0.01),
            ("max_batch", 0),
            ("max_retries", -1),
        ],
    )
    def test_serve_config_rejects_a_bad_engine_knob(self, knob, value):
        with pytest.raises(ConfigError, match=knob):
            ServeConfig(**{knob: value})
        # NaN reaches a pipeline.json as a bare ``NaN`` literal.
        with pytest.raises(ConfigError, match=knob):
            PipelineConfig.loads(json.dumps({"serve": {knob: value}}))

    def test_serve_config_accepts_both_objectives(self):
        assert ServeConfig(objective="diversity").objective == "diversity"
        assert ServeConfig().objective == "legality"

    def test_serve_config_defaults_preserve_legacy_engine(self):
        """The default engine shape is the pre-engine scheduler: one
        worker, FIFO batching (fair-share across sources, the plain FIFO
        prefix for one), unbounded queue, no deadlines."""
        cfg = ServeConfig()
        assert cfg.policy == "fair_share"
        assert cfg.queue_limit is None
        assert cfg.deadline is None

    @pytest.mark.parametrize("policy", ["greedy", "shape_bucketed"])
    def test_removed_batch_policies_fail_the_known_name_check(self, policy):
        with pytest.raises(ConfigError, match="unknown serve policy"):
            ServeConfig.from_dict({"policy": policy})

    def test_removed_pool_knobs_fail_the_unknown_key_check(self):
        """The engine runs one worker and legalization runs on the calling
        thread; a saved config still naming either pool size must fail
        loudly rather than be silently ignored."""
        with pytest.raises(ConfigError, match="engine_workers"):
            ServeConfig.from_dict({"engine_workers": 2})
        with pytest.raises(ConfigError, match="max_workers"):
            LegalizeConfig.from_dict({"max_workers": 2})

    def test_removed_span_buffer_knob_fails_the_unknown_key_check(self):
        """Spans are derived from the jobs the service holds, which the job
        TTL bounds; a saved config still sizing a span buffer must fail."""
        with pytest.raises(ConfigError, match="unknown ObsConfig.*max_spans"):
            ObsConfig.from_dict({"max_spans": 10000})
        with pytest.raises(ConfigError, match="max_spans"):
            PipelineConfig.from_dict({"obs": {"max_spans": 10000}})


class TestPipelineConfig:
    def test_defaults_stability(self):
        """The default config's serialized form is the fixed point every
        entrypoint assumes — accidental default drift must fail a test."""
        cfg = PipelineConfig()
        data = cfg.as_dict()
        assert data["train"]["window"] == 128
        assert data["train"]["train_count"] == 48
        assert data["train"]["seed"] == 2024
        assert data["sample"]["count"] == 4
        assert data["legalize"]["engine"] == "vectorized"
        assert data["serve"]["max_retries"] == 2
        assert data["model_cache"] is None
        assert PipelineConfig.from_dict(data) == cfg

    def test_nested_round_trip(self):
        cfg = PipelineConfig(
            train=_variants()[0],
            sample=_variants()[1],
            legalize=_variants()[2],
            store=_variants()[3],
            serve=_variants()[4],
            model_cache="cache",
        )
        assert PipelineConfig.from_dict(cfg.as_dict()) == cfg
        assert PipelineConfig.loads(cfg.dumps()) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = PipelineConfig.from_dict({"train": {"window": 64}})
        assert cfg.train.window == 64
        assert cfg.train.train_count == 48
        assert cfg.sample == SampleConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown PipelineConfig"):
            PipelineConfig.from_dict({"trian": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="TrainConfig"):
            PipelineConfig.from_dict({"train": {"windw": 64}})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="invalid pipeline JSON"):
            PipelineConfig.loads("{not json")

    def test_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(
            train=TrainConfig(window=64, train_count=8),
            model_cache=str(tmp_path / "mc"),
        )
        path = cfg.save(tmp_path / "pipeline.json")
        assert PipelineConfig.load(path) == cfg

    def test_tuple_fields_survive_json(self, tmp_path):
        cfg = PipelineConfig(
            train=TrainConfig(styles=("Layer-10001", "Layer-10003")),
            legalize=LegalizeConfig(physical_size=(2048, 2048)),
        )
        loaded = PipelineConfig.load(cfg.save(tmp_path / "p.json"))
        assert loaded.train.styles == ("Layer-10001", "Layer-10003")
        assert loaded.legalize.physical_size == (2048, 2048)
        assert loaded == cfg


class TestRecipeHash:
    def test_stable_across_instances(self):
        assert TrainConfig().recipe_hash() == TrainConfig().recipe_hash()

    def test_sensitive_to_every_field(self):
        base = TrainConfig()
        changed = [
            base.replace(styles=("Layer-10001",)),
            base.replace(window=64),
            base.replace(train_count=8),
            base.replace(seed=1),
            base.replace(tile_nm=1024),
            base.replace(map_scale=4),
        ]
        hashes = {cfg.recipe_hash() for cfg in changed}
        assert len(hashes) == len(changed)
        assert base.recipe_hash() not in hashes


class TestSamplerSteps:
    def test_default_is_full(self):
        assert SampleConfig().sampler_steps == "full"

    def test_int_survives_json(self, tmp_path):
        cfg = PipelineConfig(sample=SampleConfig(sampler_steps=12))
        loaded = PipelineConfig.load(cfg.save(tmp_path / "p.json"))
        assert loaded.sample.sampler_steps == 12
        assert loaded == cfg

    def test_bucketed_survives_json(self, tmp_path):
        cfg = PipelineConfig(sample=SampleConfig(sampler_steps="bucketed"))
        loaded = PipelineConfig.load(cfg.save(tmp_path / "p.json"))
        assert loaded.sample.sampler_steps == "bucketed"

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SampleConfig(sampler_steps="warp")
        with pytest.raises(ConfigError):
            SampleConfig(sampler_steps=0)


class TestTuneConfig:
    def test_defaults_describe_a_sane_controller(self):
        cfg = TuneConfig()
        assert cfg.slo_p95 > 0
        assert cfg.degrade_ladder  # at least one degraded rung
        assert cfg.queue_high > cfg.queue_low

    def test_adaptive_serve_policy_round_trips(self, tmp_path):
        cfg = PipelineConfig()
        cfg = cfg.replace(
            serve=cfg.serve.replace(policy="adaptive"),
            tune=cfg.tune.replace(slo_p95=0.75, degrade_ladder=(32,)),
        )
        loaded = PipelineConfig.load(cfg.save(tmp_path / "adaptive.json"))
        assert loaded == cfg
        assert loaded.serve.policy == "adaptive"
        assert loaded.tune.degrade_ladder == (32,)

    def test_ladder_list_normalizes_to_tuple(self):
        cfg = TuneConfig.from_dict({"degrade_ladder": [64, "bucketed"]})
        assert cfg.degrade_ladder == (64, "bucketed")

    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            TuneConfig(slo_p95=-1.0)
        with pytest.raises(ConfigError):
            TuneConfig(degrade_ladder=(None,))
        with pytest.raises(ConfigError):
            TuneConfig(floor_steps="warp")
        with pytest.raises(ConfigError):
            TuneConfig(restore_after=0)
        with pytest.raises(ConfigError):
            TuneConfig(tick_interval=-0.1)
