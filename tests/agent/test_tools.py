"""Unit tests for the agent tool suite and workspace."""

import numpy as np
import pytest

from repro.agent import AgentTools, Workspace
from repro.api import PatternPipeline
from repro.metrics import physical_size_for
from repro.obs import NULL_METRICS
from repro.serve.jobs import RUNNING, Job, JobCancelled


@pytest.fixture()
def tools(small_model):
    return AgentTools(
        PatternPipeline(model=small_model), Workspace(), base_seed=1
    )


class TestWorkspace:
    def test_put_get(self):
        ws = Workspace()
        t = np.zeros((4, 4), dtype=np.uint8)
        handle = ws.put(t, "Layer-10001")
        assert handle.endswith(".npy")
        assert np.array_equal(ws.get(handle), t)
        assert ws.style_of(handle) == "Layer-10001"

    def test_unknown_handle(self):
        with pytest.raises(KeyError):
            Workspace().get("nope")

    def test_drop_frees(self):
        ws = Workspace()
        handle = ws.put(np.zeros((2, 2), dtype=np.uint8), "Layer-10001")
        ws.drop(handle)
        assert len(ws) == 0

    def test_handles_unique(self):
        ws = Workspace()
        a = ws.put(np.zeros((2, 2), dtype=np.uint8), "Layer-10001")
        b = ws.put(np.zeros((2, 2), dtype=np.uint8), "Layer-10001")
        assert a != b


class TestToolDispatch:
    def test_unknown_tool(self, tools):
        result = tools.call("Teleport")
        assert not result.ok
        assert "unknown tool" in result.message

    def test_call_log_records(self, tools):
        tools.call("Analyze_Library")
        assert tools.call_log[-1][0] == "Analyze_Library"

    def test_documentation_covers_all_tools(self, tools):
        doc = tools.documentation()
        for name in tools.names():
            assert name in doc

    def test_tool_error_returned_not_raised(self, tools):
        result = tools.call("Topology_Modification", topology_path="missing",
                            upper=0, left=0, bottom=1, right=1)
        assert not result.ok
        assert "tool error" in result.message


class TestTopologyGeneration:
    def test_generates_and_stores(self, tools):
        result = tools.call("Topology_Generation", seed=1, style="Layer-10001")
        assert result.ok
        handle = result.data["topology_path"]
        topo = tools.workspace.get(handle)
        assert topo.shape == (64, 64)
        assert "complexity" in result.data

    def test_oversized_request_refused(self, tools):
        result = tools.call(
            "Topology_Generation", seed=1, style="Layer-10001", size=999
        )
        assert not result.ok
        assert "Topology_Extension" in result.message

    def test_seed_determinism(self, small_model):
        a = AgentTools(
            PatternPipeline(model=small_model), Workspace(), base_seed=5
        )
        b = AgentTools(
            PatternPipeline(model=small_model), Workspace(), base_seed=5
        )
        ra = a.call("Topology_Generation", seed=3, style="Layer-10003")
        rb = b.call("Topology_Generation", seed=3, style="Layer-10003")
        assert np.array_equal(
            a.workspace.get(ra.data["topology_path"]),
            b.workspace.get(rb.data["topology_path"]),
        )


class TestExtensionTool:
    def test_extends(self, tools):
        gen = tools.call("Topology_Generation", seed=2, style="Layer-10001")
        result = tools.call(
            "Topology_Extension",
            topology_path=gen.data["topology_path"],
            target_size=128,
            method="Out",
            seed=2,
        )
        assert result.ok
        assert tools.workspace.get(result.data["topology_path"]).shape == (128, 128)
        assert result.data["samplings"] >= 1

    def test_bad_method(self, tools):
        gen = tools.call("Topology_Generation", seed=2, style="Layer-10001")
        result = tools.call(
            "Topology_Extension",
            topology_path=gen.data["topology_path"],
            target_size=128,
            method="Diagonal",
        )
        assert not result.ok


class TestLegalizationTool:
    def test_success_adds_to_library(self, tools):
        gen = tools.call("Topology_Generation", seed=3, style="Layer-10001")
        result = tools.call(
            "Legalization",
            topology_path=gen.data["topology_path"],
            physical_size=physical_size_for((64, 64)),
        )
        if result.ok:
            assert len(tools.workspace.library) == 1
        else:
            assert "FAILED" in result.message

    def test_failure_reports_region(self, tools):
        bad = np.zeros((16, 16), dtype=np.uint8)
        bad[2:6, 2:6] = 1
        bad[6:10, 6:10] = 1
        handle = tools.workspace.put(bad, "Layer-10001")
        result = tools.call(
            "Legalization", topology_path=handle, physical_size=(2048, 2048)
        )
        assert not result.ok
        assert "FAILED REGION" in result.message
        assert result.data["failed_region"] is not None


class TestModificationTool:
    def test_modifies_region(self, tools):
        gen = tools.call("Topology_Generation", seed=4, style="Layer-10001")
        handle = gen.data["topology_path"]
        original = tools.workspace.get(handle).copy()
        result = tools.call(
            "Topology_Modification",
            topology_path=handle,
            upper=10, left=10, bottom=30, right=30,
            seed=9,
        )
        assert result.ok
        modified = tools.workspace.get(result.data["topology_path"])
        # Far field preserved.
        assert np.array_equal(modified[40:, 40:], original[40:, 40:])

    def test_region_clamped(self, tools):
        gen = tools.call("Topology_Generation", seed=5, style="Layer-10003")
        result = tools.call(
            "Topology_Modification",
            topology_path=gen.data["topology_path"],
            upper=0, left=0, bottom=9999, right=9999,
            seed=1,
        )
        assert result.ok


class TestAnalyzeTool:
    def test_reports_stats(self, tools):
        result = tools.call("Analyze_Library")
        assert result.ok
        assert result.data["count"] == 0


class TestSaveLibraryTool:
    def _tools_with_store(self, small_model, tmp_path):
        from repro.serve import LibraryStore

        store = LibraryStore(tmp_path)
        pipeline = PatternPipeline(model=small_model, store=store)
        return AgentTools(pipeline, Workspace(), base_seed=1), store

    def test_without_store_fails_cleanly(self, tools):
        result = tools.call("Save_Library")
        assert not result.ok
        assert "no pattern store" in result.message

    def test_empty_library_refused(self, small_model, tmp_path):
        tools, _ = self._tools_with_store(small_model, tmp_path)
        result = tools.call("Save_Library")
        assert not result.ok
        assert "empty" in result.message

    def test_persists_and_dedupes(self, small_model, tmp_path):
        tools, store = self._tools_with_store(small_model, tmp_path)
        generated = tools.call("Topology_Generation", seed=5, style="Layer-10001")
        legalized = tools.call(
            "Legalization",
            topology_path=generated.data["topology_path"],
            physical_size=physical_size_for((64, 64)),
        )
        if not legalized.ok:  # guaranteed-legal fallback for a small model
            tools.call(
                "Topology_Selection",
                seed=6,
                style="Layer-10001",
                count=1,
            )
        assert len(tools.workspace.library) >= 1

        first = tools.call("Save_Library")
        assert first.ok
        assert first.data["added"] == len(tools.workspace.library)
        assert store.stats()["legal"] == first.data["added"]

        second = tools.call("Save_Library")
        assert second.ok
        assert second.data["added"] == 0
        assert second.data["deduplicated"] == len(tools.workspace.library)

    def test_analyze_reports_store_stats(self, small_model, tmp_path):
        tools, _ = self._tools_with_store(small_model, tmp_path)
        result = tools.call("Analyze_Library")
        assert result.ok
        assert result.data["store"]["unique"] == 0
        assert "persistent store" in result.message


class TestToolsRecordThroughThePipeline:
    def _tools(self, small_model):
        job = Job("job-tools")
        job.transition(RUNNING, stage="chat")
        pipeline = PatternPipeline(
            model=small_model, metrics=NULL_METRICS, job=job
        )
        return AgentTools(pipeline, Workspace(), base_seed=1), job

    def test_working_tools_record_their_primitive_stage(self, small_model):
        tools, job = self._tools(small_model)
        assert tools.model is small_model and tools.store is None
        handle = tools.call(
            "Topology_Generation", seed=1, style="Layer-10001"
        ).data["topology_path"]
        tools.call(
            "Topology_Extension", topology_path=handle, target_size=96
        )
        tools.call(
            "Topology_Modification", topology_path=handle,
            upper=0, left=0, bottom=7, right=7,
        )
        tools.call(
            "Legalization", topology_path=handle,
            physical_size=physical_size_for((64, 64)),
        )
        tools.call("Analyze_Library")  # no primitive, no stage
        assert [e.stage for e in job.stage_events] == [
            "sample", "extend", "modify", "legalize",
        ]

    def test_cancel_propagates_from_the_next_primitive(self, small_model):
        tools, job = self._tools(small_model)
        assert job.request_cancel()
        assert tools.call("Analyze_Library").ok
        with pytest.raises(JobCancelled):
            tools.call("Topology_Generation", seed=1, style="Layer-10001")
        assert job.stage_events == []
