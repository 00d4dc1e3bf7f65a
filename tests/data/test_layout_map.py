"""Unit tests for synthetic layout-map generation."""

import numpy as np
import pytest

from repro.data import LAYER_10001, LAYER_10003, generate_layout_map
from repro.data.layout_map import LayoutMap
from repro.drc import check_pattern, rules_for_style
from repro.geometry import Rect, clip_rects
from repro.squish import encode_rects


@pytest.fixture(scope="module")
def maps():
    rng = np.random.default_rng(0)
    return {
        spec.name: generate_layout_map(spec, 4096, 4096, rng)
        for spec in (LAYER_10001, LAYER_10003)
    }


class TestMapGeneration:
    def test_nonempty(self, maps):
        for name, layout_map in maps.items():
            assert len(layout_map.rects) > 20, name

    def test_rects_inside_map(self, maps):
        for layout_map in maps.values():
            bounds = Rect(0, 0, layout_map.width, layout_map.height)
            assert all(bounds.contains_rect(r) for r in layout_map.rects)

    def test_grid_snapped(self, maps):
        for name, layout_map in maps.items():
            grid = 16
            for r in layout_map.rects[:200]:
                assert r.x0 % grid == 0 and r.x1 % grid == 0, name
                assert r.y0 % grid == 0 and r.y1 % grid == 0, name

    def test_rules_hold_by_construction(self, maps):
        """Every full-map window must be DRC-clean."""
        rng = np.random.default_rng(1)
        for name, layout_map in maps.items():
            rules = rules_for_style(name)
            for _ in range(4):
                x0 = int(rng.integers(0, 2048))
                y0 = int(rng.integers(0, 2048))
                rects = layout_map.window(x0, y0, 2048)
                pattern = encode_rects(rects, Rect(0, 0, 2048, 2048))
                report = check_pattern(pattern, rules)
                assert report.is_clean, f"{name}: {report.summary()}"

    def test_window_matches_clipping_every_rect(self, maps):
        rng = np.random.default_rng(2)
        for layout_map in maps.values():
            for _ in range(40):
                x0 = int(rng.integers(-64, 4096))
                y0 = int(rng.integers(-64, 4096))
                size = int(rng.choice([16, 100, 512, 2048]))
                win = Rect(x0, y0, x0 + size, y0 + size)
                expected = [
                    r.translated(-x0, -y0)
                    for r in clip_rects(layout_map.rects, win)
                ]
                assert layout_map.window(x0, y0, size) == expected

    def test_window_drops_edge_touching_rects(self):
        layout_map = LayoutMap(
            rects=[
                Rect(0, 0, 10, 10), Rect(10, 0, 20, 10), Rect(5, 5, 15, 15),
            ],
            width=20, height=20, style="Layer-10001",
        )
        # The first rect only touches the window's left edge.
        assert layout_map.window(10, 0, 10) == [
            Rect(0, 0, 10, 10), Rect(0, 5, 5, 10),
        ]

    def test_window_translates_to_origin(self, maps):
        layout_map = maps["Layer-10001"]
        rects = layout_map.window(1024, 1024, 512)
        window = Rect(0, 0, 512, 512)
        assert all(window.contains_rect(r) for r in rects)

    def test_styles_differ_in_density(self, maps):
        def fill(layout_map):
            area = sum(r.area for r in layout_map.rects)
            return area / (layout_map.width * layout_map.height)

        # The routing layer is denser than the block layer.
        assert fill(maps["Layer-10001"]) > fill(maps["Layer-10003"])

    def test_unknown_kind_rejected(self):
        from dataclasses import replace

        bad = replace(LAYER_10001, kind="hexagons")
        with pytest.raises(ValueError):
            generate_layout_map(bad, 1024, 1024, np.random.default_rng(0))
