"""Unit tests for the legality pipeline (Eq. 7)."""

import numpy as np
import pytest

from repro.metrics import (
    LegalityResult,
    legalize_many,
    legalize_sequential,
    physical_size_for,
)
from repro.metrics.stats import library_stats
from repro.squish import PatternLibrary


class TestPhysicalScaling:
    def test_base_resolution(self):
        assert physical_size_for((128, 128)) == (2048, 2048)

    def test_linear_scaling(self):
        assert physical_size_for((256, 256)) == (4096, 4096)
        assert physical_size_for((1024, 1024)) == (16384, 16384)

    def test_rectangular(self):
        assert physical_size_for((128, 256)) == (4096, 2048)


class TestSequentialContract:
    def test_clean_topologies_all_legal(self, tiny_library):
        topologies = [p.topology for p in tiny_library]
        result = legalize_sequential(
            topologies, "Layer-10001", physical_size=(1024, 1024)
        )
        assert result.legality == 1.0
        assert len(result.legal) == len(topologies)
        assert result.failure_causes == {}

    def test_illegal_topology_counted(self):
        # Corner touch: unfixable.
        t = np.zeros((16, 16), dtype=np.uint8)
        t[2:6, 2:6] = 1
        t[6:10, 6:10] = 1
        result = legalize_sequential([t], "Layer-10001")
        assert result.legality == 0.0
        assert "corner" in result.failure_causes

    def test_mixed_batch_ratio(self, tiny_library):
        bad = np.zeros((16, 16), dtype=np.uint8)
        bad[2:6, 2:6] = 1
        bad[6:10, 6:10] = 1
        topologies = [tiny_library[0].topology, bad]
        result = legalize_sequential(
            topologies, "Layer-10001", physical_size=None
        )
        assert result.legality == pytest.approx(0.5)
        assert result.total == 2

    def test_keep_failures(self):
        bad = np.zeros((16, 16), dtype=np.uint8)
        bad[2:6, 2:6] = 1
        bad[6:10, 6:10] = 1
        result = legalize_sequential([bad], "Layer-10001", keep_failures=True)
        assert len(result.failures) == 1
        assert result.failures[0].failed_region is not None

    def test_empty_batch(self):
        result = legalize_sequential([], "Layer-10001")
        assert result.legality == 0.0
        assert result.total == 0

    def test_malformed_topology_propagates(self):
        # fault_isolation=False keeps the original contract: a malformed
        # topology is a programming error, not a legality statistic.
        with pytest.raises(ValueError):
            legalize_sequential(
                [np.zeros(16, dtype=np.uint8)],
                "Layer-10001",
                physical_size=(1024, 1024),
            )

    def test_delegates_identically(self, tiny_library):
        # The single-thread, non-isolated spelling of legalize_many.
        bad = np.zeros((16, 16), dtype=np.uint8)
        bad[2:6, 2:6] = 1
        bad[6:10, 6:10] = 1
        topologies = [p.topology for p in tiny_library] + [bad]
        sequential = legalize_sequential(
            topologies, "Layer-10001", physical_size=(1024, 1024)
        )
        direct = legalize_many(
            topologies, "Layer-10001", physical_size=(1024, 1024),
            fault_isolation=False,
        )
        assert sequential.total == direct.total
        assert sequential.legality == direct.legality
        assert sequential.failure_causes == direct.failure_causes
        for a, b in zip(sequential.legal.patterns, direct.legal.patterns):
            assert (a.topology == b.topology).all()


class TestLegalizeMany:
    def test_default_matches_sequential(self, tiny_library):
        bad = np.zeros((16, 16), dtype=np.uint8)
        bad[2:6, 2:6] = 1
        bad[6:10, 6:10] = 1
        topologies = [p.topology for p in tiny_library] + [bad]
        sequential = legalize_sequential(
            topologies, "Layer-10001", physical_size=(1024, 1024)
        )
        isolated = legalize_many(
            topologies, "Layer-10001", physical_size=(1024, 1024)
        )
        assert isolated.total == sequential.total
        assert isolated.legality == sequential.legality
        assert isolated.failure_causes == sequential.failure_causes
        for a, b in zip(isolated.legal.patterns, sequential.legal.patterns):
            assert (a.topology == b.topology).all()
            assert (a.dx == b.dx).all() and (a.dy == b.dy).all()

    def test_wall_seconds_recorded(self, tiny_library):
        result = legalize_many(
            [p.topology for p in tiny_library],
            "Layer-10001",
            physical_size=(1024, 1024),
        )
        assert result.wall_seconds > 0
        assert result.patterns_per_sec > 0

    def test_raising_item_is_fault_isolated(self, tiny_library):
        # A 1-D array raises inside as_topology; the batch must survive it.
        topologies = [
            tiny_library[0].topology,
            np.zeros(16, dtype=np.uint8),
            tiny_library[1].topology,
        ]
        result = legalize_many(
            topologies,
            "Layer-10001",
            physical_size=(1024, 1024),
            keep_failures=True,
        )
        assert result.total == 3
        assert len(result.legal) == 2
        assert result.failure_causes == {"ValueError": 1}
        assert len(result.failures) == 1
        assert not result.failures[0].ok

    def test_empty_batch(self):
        result = legalize_many([], "Layer-10001")
        assert result.total == 0
        assert result.legality == 0.0


class TestLibraryStats:
    def test_empty(self):
        stats = library_stats(PatternLibrary())
        assert stats.count == 0
        assert stats.diversity == 0.0

    def test_populated(self, tiny_library):
        stats = library_stats(tiny_library, legality=0.9)
        assert stats.count == len(tiny_library)
        assert stats.legality == 0.9
        assert stats.diversity > 0
        assert 0 < stats.mean_fill < 1
        d = stats.as_dict()
        assert set(d) == {
            "count", "diversity", "legality", "mean_fill", "mean_complexity",
        }
