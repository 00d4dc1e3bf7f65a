"""Tests for PatternPipeline: chainable stages, timings, facades."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import PipelineConfig, PatternPipeline
from repro.api.config import SampleConfig, StoreConfig, TrainConfig
from repro.drc.violations import GridRegion
from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import (
    LEGALIZING,
    PERSISTING,
    RUNNING,
    Job,
    JobCancelled,
)
from repro.serve.registry import ModelRegistry
from repro.serve.store import LibraryStore
from repro.squish.pattern import PatternLibrary


@pytest.fixture
def pipeline(small_model):
    cfg = PipelineConfig(
        train=TrainConfig(window=64, train_count=24, tile_nm=1024, seed=7),
        sample=SampleConfig(style="Layer-10001", count=2, seed=0),
    )
    return PatternPipeline(cfg, model=small_model)


class TestStages:
    def test_sample_legalize_score_persist_chain(self, pipeline, tmp_path):
        out = tmp_path / "lib.npz"
        result = (
            pipeline.sample().legalize().score().persist(output=out)
        )
        assert len(result.topologies) == 2
        assert result.legality is not None
        assert result.legality.total == 2
        assert len(result.library) == len(result.legality.legal)
        assert result.scores["count"] == len(result.library)
        assert "legality" in result.scores
        stages = [t.stage for t in result.timings]
        assert stages == ["sample", "legalize", "score", "persist"]
        assert all(t.seconds >= 0 for t in result.timings)
        if len(result.library):
            assert result.output_path == out
            assert out.exists()

    def test_chaining_equals_explicit_calls(self, pipeline):
        chained = pipeline.sample(seed=5).legalize()
        explicit = pipeline.legalize(pipeline.sample(seed=5))
        assert len(chained.topologies) == len(explicit.topologies)
        for a, b in zip(chained.topologies, explicit.topologies):
            assert np.array_equal(a, b)

    def test_sample_respects_overrides(self, pipeline):
        result = pipeline.sample(count=3, style="Layer-10003", size=32)
        assert len(result.topologies) == 3
        assert result.topologies[0].shape == (32, 32)
        assert result.style == "Layer-10003"

    def test_extend_stage(self, pipeline):
        result = pipeline.extend(size=96, count=1).legalize()
        assert result.topologies[0].shape == (96, 96)
        timing = result.timings[0]
        assert timing.stage == "extend"
        assert timing.detail["samplings"] >= 1

    def test_full_chain_reports_unit_speedup(self, pipeline):
        detail = pipeline.sample().timings[0].detail
        assert detail["sampler_steps"] == "full"
        assert detail["full_steps"] == detail["denoise_evals"] == (
            pipeline.model.denoise_evals("full")
        )
        assert detail["step_speedup"] == 1.0

    def test_run_uses_config_defaults(self, pipeline, tmp_path):
        out = tmp_path / "run.npz"
        pipeline.config = pipeline.config.replace(
            store=StoreConfig(output_path=str(out))
        )
        result = pipeline.run()
        assert [t.stage for t in result.timings] == [
            "sample", "legalize", "score", "persist",
        ]
        assert result.legality.total == 2

    def test_with_library_score_needs_no_model(self, pipeline):
        legal = pipeline.sample().legalize().library
        scoring = PatternPipeline(PipelineConfig())  # no model attached
        result = scoring.with_library(legal).score()
        assert result.scores["count"] == len(legal)
        assert scoring._model is None  # scoring never resolved a back-end

    def test_persist_into_indexed_store(self, pipeline, tmp_path):
        store = LibraryStore(tmp_path / "store")
        pipeline._store = store
        pipeline._store_resolved = True
        result = pipeline.sample().legalize().persist()
        assert result.store_added == len(result.library)
        # same patterns again: all deduplicated
        again = pipeline.sample().legalize().persist()
        assert again.store_added == 0
        assert again.store_deduplicated == len(again.library)

    def test_export_stage(self, pipeline, tmp_path):
        result = pipeline.sample().legalize()
        if not len(result.library):
            pytest.skip("no legal pattern on this seed")
        result = result.export(tmp_path / "lib.gds")
        assert result.gds_path.exists()


class TestStageRecorder:
    """Every primitive records its stage through ``PatternPipeline.stage``."""

    def _bound(self, small_model, **kwargs):
        job = Job("job-recorder")
        job.transition(RUNNING, stage="chat")
        metrics = MetricsRegistry()
        pipeline = PatternPipeline(
            model=small_model, job=job, metrics=metrics, **kwargs
        )
        return pipeline, job, metrics

    def test_every_primitive_records_one_stage(self, small_model, tmp_path):
        pipeline, job, metrics = self._bound(
            small_model, store=LibraryStore(tmp_path / "store")
        )
        style = "Layer-10001"
        topology = pipeline.sample_topologies(1, style, size=64)[0]
        extended = pipeline.extend_one(96, style).topology
        modified = pipeline.modify_one(
            topology, GridRegion(0, 0, 7, 7), style
        )
        legal = pipeline.legalize_topologies([topology, modified], style)
        one = pipeline.legalize_one(extended, style)
        pipeline.persist_library(legal.legal, tmp_path / "lib.npz")
        stages = [e.stage for e in job.stage_events]
        assert stages == [
            "sample", "extend", "modify", "legalize", "legalize", "persist",
        ]
        assert pipeline.last_stage is job.stage_events[-1]
        events = job.stage_events
        assert events[0].detail["count"] == 1
        assert events[1].detail["samplings"] >= 1
        assert events[2].detail["region"] == (0, 0, 7, 7)
        assert events[3].detail == {"total": 2, "legal": len(legal.legal)}
        assert events[4].detail == {"total": 1, "legal": int(one.ok)}
        assert events[5].detail["store_added"] == len(legal.legal)
        # Each entry moved the job into the stage it records.
        entered = [
            (t.state, t.stage) for t in job.transitions[2:]
        ]
        assert entered == [
            (RUNNING, "sample"), (RUNNING, "extend"), (RUNNING, "modify"),
            (LEGALIZING, "legalize"), (LEGALIZING, "legalize"),
            (PERSISTING, "persist"),
        ]
        latency = metrics.get("repro_stage_latency_seconds")
        assert latency.count(stage="legalize") == 2
        assert latency.count(stage="persist") == 1

    def test_entering_a_stage_is_the_cancel_checkpoint(self, small_model):
        pipeline, job, _ = self._bound(small_model, store=None)
        assert job.request_cancel()
        with pytest.raises(JobCancelled):
            pipeline.sample_topologies(1, "Layer-10001", size=64)
        with pytest.raises(JobCancelled):
            pipeline.persist_library(PatternLibrary())
        assert job.stage_events == []

    def test_a_stage_that_raises_records_nothing(self, small_model):
        pipeline, job, metrics = self._bound(small_model, store=None)
        with pytest.raises(KeyError):
            pipeline.sample_topologies(1, "no-such-style", size=64)
        assert job.stage == "sample" and job.stage_events == []
        assert metrics.get("repro_stage_latency_seconds").count(
            stage="sample"
        ) == 0

    def test_persist_records_a_stage_with_nothing_to_write(self, pipeline):
        result = pipeline.with_library(PatternLibrary()).persist()
        (timing,) = result.timings
        assert timing.stage == "persist"
        assert timing.detail == {"output": None, "store_added": 0}

    def test_extend_chain_records_one_event_per_extension(self, pipeline):
        result = pipeline.extend(size=96, count=2)
        assert [t.stage for t in result.timings] == ["extend", "extend"]
        assert result.stage_seconds("extend") == pytest.approx(
            sum(t.seconds for t in result.timings)
        )


class TestPrimitives:
    def test_legalize_one_keeps_log_contract(self, pipeline):
        topo = pipeline.sample_topologies(1, "Layer-10001")[0]
        outcome = pipeline.legalize_one(topo, "Layer-10001", (1024, 1024))
        assert hasattr(outcome, "ok") and hasattr(outcome, "log")

    def test_seed_falls_back_to_train_seed(self, small_model):
        cfg = PipelineConfig(
            train=TrainConfig(window=64, seed=13),
            sample=SampleConfig(style="Layer-10001", count=1, seed=None),
        )
        a = PatternPipeline(cfg, model=small_model).sample()
        b = PatternPipeline(cfg, model=small_model).sample()
        assert np.array_equal(a.topologies[0], b.topologies[0])


class TestFacades:
    def test_chat_routes_through_pipeline(self, pipeline):
        result = pipeline.chat(
            "Generate 2 layout patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style Layer-10001."
        )
        assert result.produced + result.dropped == 2

    def test_service_from_config(self, pipeline):
        service = pipeline.service()
        assert service.config is pipeline.config
        with service:
            assert (
                service._pool._max_workers
                == pipeline.config.serve.max_workers
            )
            response = service.handle(
                "Generate 1 layout patterns, 64*64 topology, physical size "
                "1024nm * 1024nm, style Layer-10001."
            )
        assert response.ok


class TestStartupLog:
    """A cold start reports its training-set build and fit apart."""

    def test_training_line_names_both_phases(self, capsys):
        cfg = PipelineConfig(
            train=TrainConfig(window=64, train_count=3, seed=5)
        )
        pipeline = PatternPipeline(cfg, registry=ModelRegistry(), verbose=True)
        model = pipeline.model
        err = capsys.readouterr().err
        assert "[repro] training back-end (3 tiles/style, window 64)" in err
        (line,) = [l for l in err.splitlines() if "training done" in l]
        assert re.fullmatch(
            r"\[repro\] training done in \d+\.\ds "
            r"\(training set \d+\.\ds, fit \d+\.\ds\)",
            line,
        ), line
        assert list(model.fit_phases) == ["training set", "fit"]
        assert all(took > 0 for took in model.fit_phases.values())

    def test_builder_without_phases_keeps_the_plain_line(self, capsys):
        stub = SimpleNamespace(fitted=True)
        registry = ModelRegistry(builder=lambda key: stub)
        pipeline = PatternPipeline(registry=registry, verbose=True)
        pipeline.model
        (line,) = [
            l for l in capsys.readouterr().err.splitlines()
            if "training done" in l
        ]
        assert re.fullmatch(r"\[repro\] training done in \d+\.\ds", line)
