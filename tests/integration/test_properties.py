"""Cross-module property tests: the contracts the system is built on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drc import DesignRules, check_pattern
from repro.geometry import diagonal_touch_pairs
from repro.legalize import legalize
from repro.metrics import legalize_sequential, physical_size_for
from repro.ops import extend, modify, region_mask
from repro.drc.violations import GridRegion

RULES = DesignRules(min_space=30, min_width=40, min_area=2000, name="prop")


def random_topology(rng, shape=(24, 24), fill=0.3, blocks=4):
    """Blocky random topology (not necessarily legal)."""
    t = np.zeros(shape, dtype=np.uint8)
    for _ in range(blocks):
        r = int(rng.integers(0, shape[0] - 4))
        c = int(rng.integers(0, shape[1] - 4))
        h = int(rng.integers(2, 6))
        w = int(rng.integers(2, 6))
        t[r : r + h, c : c + w] = 1
    return t


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_legalizer_output_is_always_drc_clean(seed):
    """f_R(F, T) either fails or returns a DRC-clean pattern — never a
    'successful' pattern with violations."""
    rng = np.random.default_rng(seed)
    topology = random_topology(rng)
    result = legalize(topology, (3000, 3000), RULES)
    if result.ok:
        assert check_pattern(result.pattern, RULES).is_clean
        assert np.array_equal(result.pattern.topology, topology)
    else:
        assert result.failed_region is not None
        assert any(line.startswith("FAIL") for line in result.log)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_corner_touch_always_unfixable(seed):
    """Topologies with corner touches must always fail legalization."""
    rng = np.random.default_rng(seed)
    topology = random_topology(rng)
    r = int(rng.integers(1, topology.shape[0] - 3))
    c = int(rng.integers(1, topology.shape[1] - 3))
    topology[r : r + 2, c : c + 2] = 0
    topology[r, c] = 1
    topology[r + 1, c + 1] = 1
    # Only a genuine corner touch (no orthogonal connection) must fail.
    if diagonal_touch_pairs(topology):
        result = legalize(topology, (10**6, 10**6), RULES)
        assert not result.ok


class TestSamplePipelineInvariants:
    def test_generated_patterns_keep_topology(self, small_model):
        """Legalization assigns geometry but never edits the topology."""
        rng = np.random.default_rng(0)
        samples = small_model.sample(3, 0, rng)
        result = legalize_sequential(list(samples), "Layer-10001")
        for pattern in result.legal:
            matches = [
                np.array_equal(pattern.topology, s) for s in samples
            ]
            assert any(matches)

    def test_extension_contains_seed_exactly(self, small_model):
        rng = np.random.default_rng(1)
        seed = small_model.sample(1, 0, rng)[0]
        result = extend(
            small_model, (128, 128), 0, rng, method="out", seed_topology=seed
        )
        assert np.array_equal(result.topology[:64, :64], seed)

    def test_modification_idempotent_outside_mask(self, small_model):
        rng = np.random.default_rng(2)
        topo = small_model.sample(1, 1, rng)[0]
        mask = region_mask(topo.shape, GridRegion(20, 20, 40, 40))
        out1 = modify(small_model, topo, mask, 1, np.random.default_rng(3))
        out2 = modify(small_model, out1, mask, 1, np.random.default_rng(4))
        # Cells outside the regenerated region never drift.
        assert np.array_equal(out1[mask == 1], topo[mask == 1])
        assert np.array_equal(out2[mask == 1], topo[mask == 1])

    def test_physical_scaling_consistency(self):
        """Larger topologies get proportionally larger physical budgets."""
        w128, h128 = physical_size_for((128, 128))
        w256, h256 = physical_size_for((256, 256))
        assert (w256, h256) == (2 * w128, 2 * h128)


class TestSelectionTool:
    def test_selection_guarantees_legality(self, small_model):
        from repro.agent import AgentTools, Workspace
        from repro.api import PatternPipeline
        from repro.drc import rules_for_style

        tools = AgentTools(
            PatternPipeline(model=small_model), Workspace(), base_seed=2
        )
        result = tools.call(
            "Topology_Selection",
            seed=1,
            style="Layer-10001",
            count=2,
        )
        assert result.ok
        assert result.data["kept"] == 2
        rules = rules_for_style("Layer-10001")
        for pattern in tools.workspace.library:
            assert check_pattern(pattern, rules).is_clean

    def test_selection_budget_exhaustion(self, small_model):
        from repro.agent import AgentTools, Workspace
        from repro.api import PatternPipeline

        tools = AgentTools(
            PatternPipeline(model=small_model), Workspace(), base_seed=2
        )
        # An absurd physical budget makes every attempt fail.
        result = tools.call(
            "Topology_Selection",
            seed=1,
            style="Layer-10001",
            count=1,
            physical_size=(32, 32),
            max_attempts=3,
        )
        assert not result.ok
        assert result.data["attempts"] == 3
