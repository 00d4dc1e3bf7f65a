"""Unit tests for multi-turn chat sessions."""

import pytest

from repro.agent import ChatSession
from repro.api import PatternPipeline
from repro.core import ChatPattern


@pytest.fixture(scope="module")
def session(small_model):
    return ChatSession(
        chat=ChatPattern(PatternPipeline(model=small_model), max_retries=0)
    )


class TestFollowUpDetection:
    @pytest.mark.parametrize(
        "text",
        [
            "give me 3 more",
            "another batch please",
            "same as before but in Layer-10003",
            "2 additional patterns",
        ],
    )
    def test_detects_follow_up(self, text):
        assert ChatSession.is_follow_up(text)

    @pytest.mark.parametrize(
        "text",
        [
            "Generate 5 patterns at 64*64 in Layer-10001",
            "hello",
        ],
    )
    def test_standalone_not_follow_up(self, text):
        assert not ChatSession.is_follow_up(text)


class TestSessionFlow:
    def test_accumulates_library(self, session):
        first = session.request(
            "Generate 2 layout patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style Layer-10001."
        )
        total_after_first = len(session.library)
        assert total_after_first == first.produced

        second = session.request("2 more patterns please")
        assert len(session.turns) == 2
        assert len(session.library) == total_after_first + second.produced
        # Follow-up inherited topology size and style from turn 1.
        req = second.plan.requirements[0]
        assert req.topology_size == (64, 64)
        assert req.style == "Layer-10001"

    def test_follow_up_style_override(self, session):
        session.request(
            "Generate 1 layout patterns, 64*64 topology, physical size "
            "1024nm * 1024nm, style Layer-10001."
        )
        result = session.request("same as before but in Layer-10003")
        assert result.plan.requirements[0].style == "Layer-10003"

    def test_summary(self, session):
        text = session.summary()
        assert "turn" in text
        assert "accumulated" in text
