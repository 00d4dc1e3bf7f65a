"""Unit tests for the deterministic fault-injection plan machinery."""

import pytest

from repro import faults
from repro.api.config import ConfigError, FaultConfig, PipelineConfig
from repro.faults import (
    FAULT_SITES,
    FaultError,
    FaultInjected,
    FaultPlan,
    FaultPoint,
    NULL_FAULTS,
    SimulatedCrash,
    injected,
    parse_fault_spec,
    validate_point,
)


@pytest.fixture(autouse=True)
def clean_active_plan():
    faults.reset()
    yield
    faults.reset()


class TestFaultPoint:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPoint(site="nonsense.seam")

    def test_wildcard_must_match_a_component(self):
        with pytest.raises(ValueError, match="matches no known site"):
            FaultPoint(site="carrier.*")

    def test_wildcard_matches_prefix(self):
        point = FaultPoint(site="store.*")
        assert point.matches("store.flush_tmp")
        assert point.matches("store.journal_append")
        assert not point.matches("registry.disk_read")

    def test_exact_site_matches_only_itself(self):
        point = FaultPoint(site="store.journal_sync")
        assert point.matches("store.journal_sync")
        assert not point.matches("store.journal_append")

    def test_validation_bounds(self):
        with pytest.raises(ValueError, match="nth"):
            validate_point({"site": "engine.execute", "nth": 0})
        with pytest.raises(ValueError, match="probability"):
            validate_point({"site": "engine.execute", "probability": 1.5})
        with pytest.raises(ValueError, match="mode"):
            validate_point({"site": "engine.execute", "mode": "explode"})
        with pytest.raises(ValueError, match="mode"):
            validate_point({"site": "engine.execute", "mode": "kill"})
        with pytest.raises(ValueError, match="unknown fault point fields"):
            validate_point({"site": "engine.execute", "color": "red"})


class TestFaultPlan:
    def test_null_plan_is_default_and_inert(self):
        assert faults.active_plan() is NULL_FAULTS
        for site in FAULT_SITES:
            faults.fire(site)  # never raises
        assert NULL_FAULTS.injected_total() == 0

    def test_nth_rule_fires_exactly_once(self):
        plan = FaultPlan([FaultPoint(site="engine.execute", nth=2, times=1)])
        plan.fire("engine.execute")
        with pytest.raises(FaultInjected):
            plan.fire("engine.execute")
        for _ in range(5):
            plan.fire("engine.execute")  # nth passed; never again
        assert plan.injected_total() == 1
        assert plan.counts()["engine.execute"] == 7

    def test_times_bounds_unconditional_rule(self):
        plan = FaultPlan([FaultPoint(site="http.respond", times=2)])
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.fire("http.respond")
        plan.fire("http.respond")
        assert plan.injected_total() == 2

    def test_crash_mode_raises_simulated_crash(self):
        plan = FaultPlan([FaultPoint(site="store.flush_tmp", crash=True)])
        with pytest.raises(SimulatedCrash) as excinfo:
            plan.fire("store.flush_tmp")
        assert excinfo.value.code == "simulated_crash"
        assert isinstance(excinfo.value, FaultError)

    def test_latency_mode_does_not_raise(self):
        plan = FaultPlan(
            [FaultPoint(site="engine.execute", mode="latency", delay=0.0)]
        )
        plan.fire("engine.execute")
        assert plan.injected_total() == 1

    def test_probability_is_seed_deterministic(self):
        def firings(seed):
            plan = FaultPlan(
                [FaultPoint(site="http.accept", probability=0.5)], seed=seed
            )
            fired = []
            for index in range(50):
                try:
                    plan.fire("http.accept")
                except FaultInjected:
                    fired.append(index)
            return fired

        assert firings(7) == firings(7)
        assert firings(7) != firings(8)

    def test_injected_context_installs_and_restores(self):
        plan = FaultPlan([FaultPoint(site="engine.execute")])
        with injected(plan) as active:
            assert faults.active_plan() is active is plan
            with pytest.raises(FaultInjected):
                faults.fire("engine.execute")
        assert faults.active_plan() is NULL_FAULTS
        faults.fire("engine.execute")  # restored: inert again

    def test_custom_message_carried(self):
        plan = FaultPlan(
            [FaultPoint(site="engine.execute", message="disk on fire")]
        )
        with pytest.raises(FaultInjected, match="disk on fire"):
            plan.fire("engine.execute")


class TestSpecParsing:
    def test_compact_spec(self):
        spec = parse_fault_spec(
            "seed=7|engine.execute:latency:nth=2:delay=0.5"
            "|registry.disk_read:error:nth=1"
        )
        assert spec["seed"] == 7
        assert [p["site"] for p in spec["points"]] == [
            "engine.execute", "registry.disk_read",
        ]
        assert spec["points"][0]["mode"] == "latency"
        assert spec["points"][0]["delay"] == 0.5
        assert spec["points"][0]["nth"] == 2

    def test_compact_extras(self):
        spec = parse_fault_spec(
            "store.flush_tmp:error:times=3:probability=0.25:crash=true"
            ":message=boom"
        )
        (point,) = spec["points"]
        assert point["times"] == 3
        assert point["probability"] == 0.25
        assert point["crash"] is True
        assert point["message"] == "boom"

    def test_json_spec(self):
        spec = parse_fault_spec(
            '{"seed": 3, "points": [{"site": "engine.execute", "nth": 1}]}'
        )
        assert spec["seed"] == 3
        assert spec["points"][0]["site"] == "engine.execute"

    @pytest.mark.parametrize(
        "parse",
        [
            lambda: validate_point({"site": "engine.execute", "crash": "false"}),
            lambda: validate_point({"site": "engine.execute", "crash": 1}),
            lambda: parse_fault_spec("engine.execute:error:crash=on"),
            lambda: parse_fault_spec(
                '{"seed": true, "points": [{"site": "engine.execute"}]}'
            ),
            lambda: parse_fault_spec(
                '{"points": [{"site": "engine.execute", "nth": true}]}'
            ),
            lambda: validate_point({"site": "engine.execute", "times": True}),
            lambda: validate_point(
                {"site": "engine.execute", "probability": True}
            ),
            lambda: validate_point(
                {"site": "engine.execute", "mode": "latency", "delay": True}
            ),
        ],
        ids=[
            "crash-string", "crash-int", "compact-crash-on", "json-seed-bool",
            "json-nth-bool", "times-bool", "probability-bool", "delay-bool",
        ],
    )
    def test_wrongly_typed_fields_rejected(self, parse):
        with pytest.raises(ValueError):
            parse()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_spec("")
        with pytest.raises(ValueError):
            parse_fault_spec("not.a.site:error")
        with pytest.raises(ValueError):
            parse_fault_spec("engine.execute:error:frequency=2")


class TestFaultConfig:
    def test_disabled_by_default(self):
        cfg = PipelineConfig()
        assert cfg.faults.enabled is False
        assert cfg.faults.points == ()

    def test_points_normalized_and_validated(self):
        cfg = FaultConfig.from_dict(
            {"enabled": True, "seed": 5,
             "points": [{"site": "engine.execute", "mode": "latency"}]}
        )
        assert cfg.points[0]["probability"] == 1.0
        plan = FaultPlan.from_config(cfg)
        assert plan.seed == 5
        assert plan.points[0].site == "engine.execute"

    def test_bad_site_fails_config_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig.from_dict(
                {"enabled": True, "points": [{"site": "bogus.site"}]}
            )

    def test_roundtrips_through_pipeline_json(self, tmp_path):
        cfg = PipelineConfig().replace(
            faults=FaultConfig.from_dict(
                {"enabled": True, "seed": 9,
                 "points": [{"site": "store.*", "crash": True}]}
            )
        )
        path = tmp_path / "pipeline.json"
        cfg.save(path)
        loaded = PipelineConfig.load(path)
        assert loaded.faults == cfg.faults
