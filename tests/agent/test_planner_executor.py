"""Unit tests for task planning, ReAct parsing and the executor loop."""

import numpy as np
import pytest

from repro.agent import (
    AgentTools,
    ExperienceDocuments,
    ExtensionRecord,
    RequirementList,
    ScriptedLLM,
    SimulatedLLM,
    TaskExecutor,
    TaskPlanner,
    Workspace,
    parse_react,
)
from repro.api import PatternPipeline
from repro.metrics import physical_size_for


class TestParseReact:
    def test_json_input(self):
        step = parse_react(
            "Thought: fix it\nAction: Topology_Modification\n"
            'Action Input: {"upper": 1, "left": 2, "bottom": 3, "right": 4}'
        )
        assert step.action == "Topology_Modification"
        assert step.action_input == {"upper": 1, "left": 2, "bottom": 3, "right": 4}
        assert step.thought == "fix it"

    def test_loose_paper_syntax(self):
        # The exact Action Input syntax printed in the paper (Sec. 4.2).
        step = parse_react(
            "Thought: retry\nAction: Topology_Modification\n"
            'Action Input: "topology_path":${path}, "upper": 12, "left": 56, '
            '"bottom": 33, "right": 73, "style": "Layer-10001", "seed": 42'
        )
        assert step.action_input["upper"] == 12
        assert step.action_input["style"] == "Layer-10001"
        assert step.action_input["seed"] == 42

    def test_empty_input(self):
        step = parse_react("Thought: done\nAction: Drop\nAction Input: {}")
        assert step.action == "Drop"
        assert step.action_input == {}

    def test_missing_action_raises(self):
        with pytest.raises(ValueError):
            parse_react("Thought: hmm, not sure")


class TestPlanner:
    def test_auto_format_produces_plan(self):
        planner = TaskPlanner(SimulatedLLM(), window=128)
        plan = planner.auto_format(
            "Generate 20 patterns at 128*128 in style Layer-10001, "
            "physical size 2048nm * 2048nm."
        )
        assert plan.total_count == 20
        assert plan.requirements[0].style == "Layer-10001"
        assert plan.requirements[0].seed != 0

    def test_extension_defaults_from_documents(self):
        docs = ExperienceDocuments()
        docs.record_extension(
            ExtensionRecord("Layer-10001", "In", 256, legality=0.9, diversity=11.0)
        )
        docs.record_extension(
            ExtensionRecord("Layer-10001", "Out", 256, legality=0.7, diversity=10.0)
        )
        planner = TaskPlanner(SimulatedLLM(), documents=docs, window=128)
        plan = planner.auto_format(
            "Generate 10 patterns at 256*256 in style Layer-10001 with "
            "physical size 4096nm * 4096nm."
        )
        # The simulated LLM already fills a method from the prompt
        # recommendation; documents decide that recommendation.
        assert plan.requirements[0].extension_method in ("In", "Out")

    def test_scripted_backend_round_trip(self):
        reply = RequirementList(
            topology_size=(64, 64),
            physical_size=(1024, 1024),
            style="Layer-10003",
            count=3,
        ).to_text()
        planner = TaskPlanner(ScriptedLLM([reply]), window=64)
        plan = planner.auto_format("whatever")
        assert plan.requirements[0].style == "Layer-10003"
        assert plan.requirements[0].count == 3


class TestDocuments:
    def test_recommendation_defaults(self):
        docs = ExperienceDocuments()
        assert docs.recommend_extension("Layer-10001", objective="legality") == "Out"
        assert docs.recommend_extension("Layer-10001", objective="diversity") == "In"

    def test_recommendation_from_records(self):
        docs = ExperienceDocuments()
        docs.record_extension(ExtensionRecord("L", "In", 256, 0.95, 12.0))
        docs.record_extension(ExtensionRecord("L", "Out", 256, 0.80, 10.0))
        assert docs.recommend_extension("L", objective="legality") == "In"

    def test_size_filter(self):
        docs = ExperienceDocuments()
        docs.record_extension(ExtensionRecord("L", "In", 256, 0.9, 12.0))
        docs.record_extension(ExtensionRecord("L", "Out", 512, 0.95, 10.0))
        assert docs.recommend_extension("L", size=512, objective="legality") == "Out"

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            ExperienceDocuments().recommend_extension("L", objective="speed")

    def test_save_load_round_trip(self, tmp_path):
        docs = ExperienceDocuments()
        docs.record_extension(ExtensionRecord("L", "In", 256, 0.9, 12.0))
        docs.add_note("out-painting is faster")
        path = docs.save(tmp_path / "docs.json")
        loaded = ExperienceDocuments.load(path)
        assert loaded.records[0].style == "L"
        assert loaded.notes == ["out-painting is faster"]

    def test_summary_text(self):
        docs = ExperienceDocuments()
        assert "out-painting" in docs.summary_text().lower()
        docs.record_extension(ExtensionRecord("L", "In", 256, 0.9, 12.0))
        assert "measured" in docs.summary_text()


class TestExecutor:
    def _executor(self, model, backend=None, max_retries=2):
        tools = AgentTools(
            PatternPipeline(model=model), Workspace(), base_seed=3
        )
        return TaskExecutor(tools, backend or SimulatedLLM(), max_retries=max_retries)

    def test_produces_requested_count(self, small_model):
        executor = self._executor(small_model)
        req = RequirementList(
            topology_size=(64, 64),
            physical_size=physical_size_for((64, 64)),
            style="Layer-10001",
            count=3,
            seed=11,
        )
        report = executor.execute(req)
        assert report.produced + report.dropped == 3
        assert report.produced == len(executor.tools.workspace.library)
        assert report.elapsed_seconds > 0
        assert "subtask" in report.summary()

    def test_history_recorded(self, small_model):
        executor = self._executor(small_model)
        req = RequirementList(
            topology_size=(64, 64),
            physical_size=physical_size_for((64, 64)),
            style="Layer-10003",
            count=2,
            seed=5,
        )
        executor.execute(req)
        kinds = {e.kind for e in executor.history.events}
        assert "generated" in kinds

    def test_impossible_budget_drops_all(self, small_model):
        """With a physical budget below 1 nm/cell everything must fail and,
        with drop allowed, be dropped after the retry budget."""
        executor = self._executor(small_model, max_retries=1)
        req = RequirementList(
            topology_size=(64, 64),
            physical_size=(32, 32),
            style="Layer-10001",
            count=2,
            seed=1,
        )
        report = executor.execute(req)
        assert report.produced == 0
        assert report.dropped == 2
        assert report.decisions  # the LLM was consulted

    def test_scripted_decision_path(self, small_model):
        """Force a Drop decision from a scripted LLM on first failure."""
        backend = ScriptedLLM(
            ["Thought: give up\nAction: Drop\nAction Input: {}"] * 2
        )
        executor = self._executor(small_model, backend=backend)
        req = RequirementList(
            topology_size=(64, 64),
            physical_size=(32, 32),
            style="Layer-10001",
            count=2,
            seed=1,
        )
        report = executor.execute(req)
        assert report.dropped == 2
        assert report.modifications == 0
