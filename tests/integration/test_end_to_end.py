"""Integration tests: the full ChatPattern stack on small settings."""

import numpy as np
import pytest

from repro import ChatPattern
from repro.agent import ScriptedLLM, SimulatedLLM
from repro.api import PatternPipeline
from repro.core import ChatResult
from repro.data import DatasetConfig
from repro.drc import check_pattern, rules_for_style
from repro.diffusion import ConditionalDiffusionModel


@pytest.fixture(scope="module")
def chat():
    return ChatPattern.pretrained(
        train_count=24,
        window=64,
        dataset_config=DatasetConfig(tile_nm=1024, topology_size=64, seed=3),
        max_retries=1,
    )


class TestPretrained:
    def test_model_is_fitted(self, chat):
        assert chat.model.fitted
        assert chat.model.window == 64

    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError):
            ChatPattern(
                PatternPipeline(model=ConditionalDiffusionModel(window=64))
            )

    def test_window_follows_dataset_config(self):
        """A dataset_config with a topology_size different from ``window``
        must win: the model generates the tiles it was trained on."""
        chat = ChatPattern.pretrained(
            train_count=4,
            dataset_config=DatasetConfig(tile_nm=1024, topology_size=64, seed=5),
        )
        assert chat.model.window == 64

    def test_pretrained_reuses_fitted_model(self):
        kwargs = dict(
            train_count=4,
            dataset_config=DatasetConfig(tile_nm=1024, topology_size=64, seed=5),
        )
        first = ChatPattern.pretrained(**kwargs)
        second = ChatPattern.pretrained(**kwargs)
        # same recipe -> the shared registry serves one fitted back-end
        assert second.model is first.model


class TestHandleRequest:
    def test_fixed_size_request(self, chat):
        result = chat.handle_request(
            "Generate 4 layout patterns with 64*64 topology, physical size "
            "1024nm * 1024nm, in style of 'Layer-10001'."
        )
        assert isinstance(result, ChatResult)
        assert result.plan.total_count == 4
        assert result.produced + result.dropped == 4
        assert result.produced > 0
        assert len(result.library) == result.produced
        rules = rules_for_style("Layer-10001")
        for pattern in result.library:
            assert check_pattern(pattern, rules).is_clean
            assert pattern.physical_size == (1024, 1024)
        assert "sub-task" in result.summary()

    def test_multi_style_request(self, chat):
        result = chat.handle_request(
            "Generate 4 patterns, 64*64 topology, physical size 1024nm * "
            "1024nm, split between Layer-10001 and Layer-10003."
        )
        assert len(result.plan.requirements) == 2
        styles = {r.style for r in result.plan.requirements}
        assert styles == {"Layer-10001", "Layer-10003"}

    def test_free_size_request(self, chat):
        result = chat.handle_request(
            "Generate 2 patterns with 128*128 topology, physical size "
            "2048nm * 2048nm, in style of 'Layer-10003'."
        )
        req = result.plan.requirements[0]
        assert req.extension_method in ("Out", "In")
        for pattern in result.library:
            assert pattern.shape == (128, 128)

    def test_history_travels_with_result(self, chat):
        result = chat.handle_request(
            "Generate 2 patterns, 64*64, 1024nm * 1024nm, Layer-10001."
        )
        assert result.history.counts().get("generated", 0) >= 2


class TestBackendSwappability:
    def test_scripted_backend_drives_planning(self, chat):
        reply = (
            "# Requirement - subtask 1\n"
            "## Basic Part: Topology Size: [64, 64], Physical Size: "
            "[1024, 1024] nm, Style: Layer-10001, Count: 2,\n"
            "## Advanced Part: Extension Method: None (Default: Out), "
            "Drop Allowed: True (Default: True), Time Limitation: None "
            "(Default: None)."
        )
        scripted = ChatPattern(
            chat.pipeline,
            backend=ScriptedLLM([reply]),
            max_retries=0,
        )
        result = scripted.handle_request("anything at all")
        assert result.plan.total_count == 2
