"""Unit tests for the DRC checker on squish patterns."""

import numpy as np
import pytest

from repro.drc import DesignRules, check_pattern, is_legal
from repro.drc.reference import reference_check_areas
from repro.squish import SquishPattern

RULES = DesignRules(min_space=30, min_width=40, min_area=2000, name="test")


def pattern(topology, cell=50):
    t = np.asarray(topology, dtype=np.uint8)
    return SquishPattern(
        topology=t,
        dx=np.full(t.shape[1], cell, dtype=np.int64),
        dy=np.full(t.shape[0], cell, dtype=np.int64),
    )


def _area_violations(p, rules):
    return [v for v in check_pattern(p, rules).violations if v.rule == "area"]


class TestCleanPatterns:
    def test_empty_is_clean(self):
        assert is_legal(pattern(np.zeros((6, 6))), RULES)

    def test_full_is_clean(self):
        assert is_legal(pattern(np.ones((6, 6))), RULES)

    def test_wide_block_clean(self):
        t = np.zeros((8, 8))
        t[2:5, 2:6] = 1  # 150x200 nm block, area 30000
        assert is_legal(pattern(t), RULES)


class TestWidthRule:
    def test_thin_interior_wire_flagged(self):
        t = np.zeros((8, 8))
        t[3, 2:6] = 1  # 50 nm tall wire is fine (>=40), 1-cell runs in y ok
        p = pattern(t, cell=30)  # now 30 nm tall -> width violation in y
        report = check_pattern(p, RULES)
        assert any(v.rule == "width" and v.axis == "y" for v in report.violations)

    def test_border_touching_wire_exempt(self):
        t = np.zeros((8, 8))
        t[0, 2:6] = 1  # touches the bottom border
        p = pattern(t, cell=30)
        report = check_pattern(p, RULES)
        assert not any(
            v.rule == "width" and v.axis == "y" for v in report.violations
        )


class TestSpaceRule:
    def test_narrow_gap_flagged(self):
        t = np.zeros((8, 8))
        t[2:6, 2] = 1
        t[2:6, 4] = 1  # one 50nm gap between, but with cell=20 -> 20nm gap
        p = pattern(t, cell=20)
        report = check_pattern(p, RULES)
        assert any(v.rule == "space" for v in report.violations)

    def test_wide_gap_clean(self):
        t = np.zeros((8, 8))
        t[2:6, 1:3] = 1
        t[2:6, 5:7] = 1  # 100nm gap at cell=50
        report = check_pattern(pattern(t), RULES)
        assert not any(v.rule == "space" for v in report.violations)

    def test_border_gap_exempt(self):
        t = np.zeros((4, 4))
        t[1:3, 3] = 1  # gap from border to shape is a border 0-run
        report = check_pattern(pattern(t, cell=10), RULES)
        assert not any(v.rule == "space" for v in report.violations)


class TestCornerRule:
    def test_corner_touch_flagged(self):
        t = np.zeros((6, 6))
        t[1:3, 1:3] = 1
        t[3:5, 3:5] = 1  # diagonal touch at (2,2)/(3,3)
        report = check_pattern(pattern(t), RULES)
        assert any(v.rule == "corner" for v in report.violations)

    def test_corner_violation_has_region(self):
        t = np.zeros((4, 4))
        t[0:2, 0:2] = 1
        t[2:4, 2:4] = 1
        report = check_pattern(pattern(t), RULES)
        corner = next(v for v in report.violations if v.rule == "corner")
        assert corner.region.rows == 2 and corner.region.cols == 2


class TestAreaRule:
    def test_small_interior_polygon_flagged(self):
        t = np.zeros((8, 8))
        t[3, 3] = 1  # 50x50 = 2500 >= 2000: clean
        assert is_legal(pattern(t), RULES)
        p = pattern(t, cell=40)  # 40x40 = 1600 < 2000 but width fails too
        report = check_pattern(p, RULES)
        assert any(v.rule == "area" for v in report.violations)

    def test_border_polygon_exempt_from_area(self):
        t = np.zeros((8, 8))
        t[0, 0] = 1
        p = pattern(t, cell=40)
        report = check_pattern(p, RULES)
        assert not any(v.rule == "area" for v in report.violations)

    @pytest.mark.parametrize("border_cell", [(0, 3), (7, 3), (3, 0), (3, 7)])
    def test_each_border_exempts_only_its_polygon(self, border_cell):
        t = np.zeros((8, 8))
        t[border_cell] = 1  # 40x40 = 1600 < 2000, but on the border
        t[4, 4] = 1  # the same size inside: flagged
        p = pattern(t, cell=40)
        areas = _area_violations(p, RULES)
        assert areas == reference_check_areas(p, RULES)
        assert len(areas) == 1
        assert (areas[0].region.upper, areas[0].region.left) == (4, 4)

    def test_uneven_deltas_area_and_box(self):
        # An interior L-shape over cells of different physical size.
        t = np.zeros((6, 7), dtype=np.uint8)
        t[2, 2:5] = 1
        t[3, 2] = 1
        p = SquishPattern(
            topology=t,
            dx=np.array([5, 7, 11, 13, 17, 19, 23], dtype=np.int64),
            dy=np.array([3, 5, 7, 9, 11, 13], dtype=np.int64),
        )
        rules = DesignRules(min_space=1, min_width=1, min_area=10_000, name="t")
        areas = _area_violations(p, rules)
        assert areas == reference_check_areas(p, rules)
        assert areas[0].measured == 7 * (11 + 13 + 17) + 9 * 11
        region = areas[0].region
        box = (region.upper, region.left, region.bottom, region.right)
        assert box == (2, 2, 3, 4)


class TestReport:
    def test_summary_clean(self):
        assert check_pattern(pattern(np.zeros((3, 3))), RULES).summary() == "DRC clean"

    def test_summary_lists_counts(self):
        t = np.zeros((6, 6))
        t[1:3, 1:3] = 1
        t[3:5, 3:5] = 1
        report = check_pattern(pattern(t), RULES)
        assert "corner" in report.summary()

    def test_worst_region_none_when_clean(self):
        assert check_pattern(pattern(np.ones((3, 3))), RULES).worst_region() is None

    def test_count_by_rule(self):
        t = np.zeros((6, 6))
        t[1:3, 1:3] = 1
        t[3:5, 3:5] = 1
        counts = check_pattern(pattern(t), RULES).count_by_rule()
        assert counts.get("corner", 0) >= 1
