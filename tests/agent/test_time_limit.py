"""Unit tests for the Time Limitation advanced requirement."""

from repro.agent import (
    AgentTools,
    RequirementList,
    SimulatedLLM,
    TaskExecutor,
    Workspace,
)
from repro.api import PatternPipeline
from repro.metrics import physical_size_for


class TestTimeLimit:
    def test_zero_budget_stops_immediately(self, small_model):
        tools = AgentTools(
            PatternPipeline(model=small_model), Workspace(), base_seed=4
        )
        executor = TaskExecutor(tools, SimulatedLLM())
        req = RequirementList(
            topology_size=(64, 64),
            physical_size=physical_size_for((64, 64)),
            style="Layer-10001",
            count=5,
            time_limit=0.0,
            seed=1,
        )
        report = executor.execute(req)
        assert report.timed_out
        assert report.produced == 0
        assert any(e.kind == "timed_out" for e in executor.history.events)

    def test_generous_budget_completes(self, small_model):
        tools = AgentTools(
            PatternPipeline(model=small_model), Workspace(), base_seed=4
        )
        executor = TaskExecutor(tools, SimulatedLLM())
        req = RequirementList(
            topology_size=(64, 64),
            physical_size=physical_size_for((64, 64)),
            style="Layer-10001",
            count=2,
            time_limit=300.0,
            seed=1,
        )
        report = executor.execute(req)
        assert not report.timed_out
        assert report.produced + report.dropped == 2
