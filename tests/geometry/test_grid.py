"""Unit tests for binary-grid utilities (runs, labelling, corner touches)."""

import numpy as np
import pytest

from repro.geometry import (
    as_topology,
    all_column_runs,
    all_row_runs,
    column_run_set,
    column_runs,
    component_count,
    diagonal_touch_pairs,
    label_components,
    row_run_set,
    row_runs,
)
from repro.geometry.grid import label_runs


class TestAsTopology:
    def test_validates_values(self):
        with pytest.raises(ValueError):
            as_topology(np.array([[0, 2]]))

    def test_validates_dims(self):
        with pytest.raises(ValueError):
            as_topology(np.zeros(4))
        with pytest.raises(ValueError):
            as_topology(np.zeros((0, 4)))

    def test_dtype_canonicalised(self):
        t = as_topology(np.array([[0.0, 1.0]]))
        assert t.dtype == np.uint8

    @pytest.mark.parametrize("bad", [
        np.array([[1, 255]], dtype=np.uint8),
        np.array([[0, -1]], dtype=np.int64),
    ])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            as_topology(bad)

    @pytest.mark.parametrize("good", [
        np.array([[True, False], [False, True]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0, 1], [1, 1]], dtype=np.int64),
    ])
    def test_accepts_binary_input(self, good):
        t = as_topology(good)
        assert t.dtype == np.uint8
        assert np.array_equal(t, np.asarray(good).astype(np.uint8))


class TestRuns:
    def test_row_runs(self):
        t = np.array([[1, 1, 0, 0, 1]], dtype=np.uint8)
        runs = row_runs(t, 0)
        assert [(r.start, r.stop, r.value) for r in runs] == [
            (0, 2, 1), (2, 4, 0), (4, 5, 1),
        ]
        assert runs[0].length == 2

    def test_column_runs(self):
        t = np.array([[1], [1], [0]], dtype=np.uint8)
        runs = column_runs(t, 0)
        assert [(r.start, r.stop, r.value) for r in runs] == [(0, 2, 1), (2, 3, 0)]

    def test_uniform_line_single_run(self):
        t = np.ones((1, 7), dtype=np.uint8)
        assert len(row_runs(t, 0)) == 1


class TestRunSet:
    def test_matches_per_line_extraction(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            rows = int(rng.integers(1, 14))
            cols = int(rng.integers(1, 14))
            t = (rng.random((rows, cols)) < rng.choice([0.2, 0.5, 0.8]))
            t = t.astype(np.uint8)
            assert all_row_runs(t) == [
                run for i in range(rows) for run in row_runs(t, i)
            ]
            assert all_column_runs(t) == [
                run for i in range(cols) for run in column_runs(t, i)
            ]

    def test_struct_of_arrays_fields(self):
        t = np.array([[1, 1, 0, 0, 1], [0, 0, 0, 0, 0]], dtype=np.uint8)
        rs = row_run_set(t)
        assert len(rs) == 4
        assert rs.n_lines == 2 and rs.n_cells == 5
        assert list(rs.index) == [0, 0, 0, 1]
        assert list(rs.start) == [0, 2, 4, 0]
        assert list(rs.stop) == [2, 4, 5, 5]
        assert list(rs.value) == [1, 0, 1, 0]
        assert list(rs.lengths) == [2, 2, 1, 5]
        # Only the middle 0-run of row 0 is interior.
        assert list(rs.interior) == [False, True, False, False]

    def test_single_cell_lines(self):
        t = np.array([[1], [0], [1]], dtype=np.uint8)
        rs = row_run_set(t)
        assert len(rs) == 3
        assert list(rs.start) == [0, 0, 0]
        assert list(rs.stop) == [1, 1, 1]
        cs = column_run_set(t)
        assert len(cs) == 3
        assert list(cs.value) == [1, 0, 1]

    def test_uniform_topology(self):
        t = np.ones((4, 6), dtype=np.uint8)
        rs = row_run_set(t)
        assert len(rs) == 4
        assert (rs.lengths == 6).all()
        assert not rs.interior.any()


class TestComponents:
    def test_four_connectivity_separates_diagonal(self):
        t = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert component_count(t, connectivity=4) == 2
        assert component_count(t, connectivity=8) == 1

    def test_labels_shape_and_zero_background(self):
        t = np.array([[1, 0, 1]], dtype=np.uint8)
        labels = label_components(t)
        assert labels.shape == t.shape
        assert labels[0, 1] == 0
        assert labels.max() == 2

    def test_bad_connectivity(self):
        with pytest.raises(ValueError):
            label_components(np.ones((2, 2)), connectivity=6)

    def test_empty_grid(self):
        labels, count = label_runs(row_run_set(np.zeros((3, 4))))
        assert count == 0
        assert not labels.any()
        assert not label_components(np.zeros((3, 4))).any()


class TestLabelOracle:
    """The run labeller numbers components exactly as ``ndimage.label``."""

    STRUCTURES = {
        4: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]),
        8: np.ones((3, 3), dtype=int),
    }

    @staticmethod
    def _grids(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            rows = int(rng.integers(1, 24))
            cols = int(rng.integers(1, 24))
            density = rng.choice([0.1, 0.3, 0.5, 0.6, 0.8, 0.95])
            yield (rng.random((rows, cols)) < density).astype(np.uint8)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_identical_to_ndimage(self, connectivity):
        ndimage = pytest.importorskip("scipy.ndimage")
        for t in self._grids(connectivity, 600):
            structure = self.STRUCTURES[connectivity]
            expected, n = ndimage.label(t, structure=structure)
            got = label_components(t, connectivity)
            assert got.dtype == np.int32
            assert np.array_equal(got, expected)
            assert label_runs(row_run_set(t), connectivity)[1] == n

    def test_diagonal_touches_match_label_formula(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        for t in self._grids(48, 300):
            labels, _ = ndimage.label(t, structure=self.STRUCTURES[4])
            a, b = labels[:-1, :-1], labels[1:, 1:]
            c, d = labels[:-1, 1:], labels[1:, :-1]
            diag1 = (a > 0) & (b > 0) & (a != b) & (c == 0) & (d == 0)
            diag2 = (c > 0) & (d > 0) & (c != d) & (a == 0) & (b == 0)
            rows, cols = np.nonzero(diag1 | diag2)
            expected = [(int(r), int(cc)) for r, cc in zip(rows, cols)]
            assert diagonal_touch_pairs(t) == expected
            assert diagonal_touch_pairs(t, labels=labels) == expected


class TestDiagonalTouch:
    def test_detects_anti_diagonal(self):
        t = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert diagonal_touch_pairs(t) == [(0, 0)]

    def test_detects_main_diagonal(self):
        t = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert diagonal_touch_pairs(t) == [(0, 0)]

    def test_same_polygon_diagonal_not_flagged(self):
        # An L-shape: the diagonal cells belong to one 4-connected polygon.
        t = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        assert diagonal_touch_pairs(t) == []

    def test_clean_grid(self):
        t = np.array([[1, 1, 0, 1, 1]], dtype=np.uint8)
        assert diagonal_touch_pairs(t) == []
