"""Unit tests for squish encoding and canonicalisation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.geometry.rect import clip_rects
from repro.squish import SquishPattern, encode_rects, resquish, scan_lines
from repro.squish.encode import _distinct_mask


class TestScanLines:
    def test_includes_window_edges(self):
        xs, ys = scan_lines([], Rect(0, 0, 100, 100))
        assert list(xs) == [0, 100]
        assert list(ys) == [0, 100]

    def test_includes_rect_edges(self):
        xs, ys = scan_lines([Rect(10, 20, 30, 40)], Rect(0, 0, 100, 100))
        assert list(xs) == [0, 10, 30, 100]
        assert list(ys) == [0, 20, 40, 100]


class TestEncodeRects:
    def test_empty_window(self):
        p = encode_rects([], Rect(0, 0, 50, 50))
        assert p.shape == (1, 1)
        assert p.topology[0, 0] == 0
        assert p.physical_size == (50, 50)

    def test_single_rect(self):
        p = encode_rects([Rect(10, 10, 40, 30)], Rect(0, 0, 100, 100))
        assert p.physical_size == (100, 100)
        assert p.topology.sum() == 1
        # The filled cell is at grid position (row 1, col 1).
        assert p.topology[1, 1] == 1
        assert p.dx[1] == 30 and p.dy[1] == 20

    def test_round_trip_rect_coverage(self):
        rects = [Rect(0, 0, 50, 20), Rect(60, 40, 100, 100)]
        p = encode_rects(rects, Rect(0, 0, 100, 100))
        decoded = p.to_rects()
        assert sum(r.area for r in decoded) == sum(r.area for r in rects)

    def test_clip_outside_window(self):
        p = encode_rects([Rect(-50, -50, 20, 20)], Rect(0, 0, 100, 100))
        decoded = p.to_rects()
        assert decoded == [Rect(0, 0, 20, 20)]

    def test_overlapping_rects_single_coverage(self):
        rects = [Rect(0, 0, 60, 60), Rect(40, 0, 100, 60)]
        p = encode_rects(rects, Rect(0, 0, 100, 100))
        assert sum(r.area for r in p.to_rects()) == 100 * 60

    def test_style_tag_propagates(self):
        p = encode_rects([], Rect(0, 0, 10, 10), style="Layer-10003")
        assert p.style == "Layer-10003"


class TestResquish:
    def test_merges_duplicate_columns(self):
        p = SquishPattern(
            topology=np.array([[1, 1, 0]], dtype=np.uint8),
            dx=np.array([10, 20, 30]),
            dy=np.array([5]),
        )
        c = resquish(p)
        assert c.shape == (1, 2)
        assert list(c.dx) == [30, 30]

    def test_merges_duplicate_rows(self):
        p = SquishPattern(
            topology=np.array([[1], [1], [0]], dtype=np.uint8),
            dx=np.array([10]),
            dy=np.array([1, 2, 3]),
        )
        c = resquish(p)
        assert c.shape == (2, 1)
        assert list(c.dy) == [3, 3]

    def test_idempotent(self):
        p = SquishPattern(
            topology=np.array([[1, 0], [0, 1]], dtype=np.uint8),
            dx=np.array([10, 20]),
            dy=np.array([5, 5]),
        )
        once = resquish(p)
        twice = resquish(once)
        assert once == twice

    def test_preserves_physical_layout(self):
        p = SquishPattern(
            topology=np.array([[1, 1, 0, 0]], dtype=np.uint8),
            dx=np.array([10, 10, 10, 10]),
            dy=np.array([7]),
        )
        c = resquish(p)
        assert sorted(r.area for r in c.to_rects()) == sorted(
            r.area for r in p.to_rects()
        )
        assert c.physical_size == p.physical_size


# -- plain-loop oracles of the vectorized encoder ----------------------------


def _loop_encode_rects(rects, window, style=None):
    """Paint each clipped rect, found by a per-rect ``searchsorted``."""
    clipped = clip_rects(rects, window)
    xs, ys = scan_lines(clipped, window)
    topology = np.zeros((len(ys) - 1, len(xs) - 1), dtype=np.uint8)
    for r in clipped:
        c0 = int(np.searchsorted(xs, r.x0))
        c1 = int(np.searchsorted(xs, r.x1))
        r0 = int(np.searchsorted(ys, r.y0))
        r1 = int(np.searchsorted(ys, r.y1))
        topology[r0:r1, c0:c1] = 1
    return SquishPattern(
        topology=topology, dx=np.diff(xs), dy=np.diff(ys), style=style
    )


def _loop_distinct_mask(t):
    """Rows that differ from the next row, compared one pair at a time."""
    keep = np.ones(t.shape[0], dtype=bool)
    for r in range(t.shape[0] - 1):
        if np.array_equal(t[r], t[r + 1]):
            keep[r] = False
    return keep


def _loop_merge(t, deltas):
    """Drop each stripe equal to the next, carrying its delta forward."""
    keep = _loop_distinct_mask(t)
    kept, merged, acc = [], [], 0
    for i, delta in enumerate(deltas):
        acc += int(delta)
        if keep[i]:
            kept.append(i)
            merged.append(acc)
            acc = 0
    return t[kept], np.array(merged, dtype=np.int64)


def _loop_resquish(pattern):
    cols, dx = _loop_merge(pattern.topology.T, pattern.dx)
    topology, dy = _loop_merge(cols.T, pattern.dy)
    return SquishPattern(
        topology=topology.copy(), dx=dx, dy=dy, style=pattern.style
    )


@st.composite
def topologies(draw):
    """Small {0, 1} matrices, with 1xN and Nx1 tiles and all-duplicate
    rows drawn as often as free ones."""
    kind = draw(st.sampled_from(["free", "one_row", "one_col", "dup_rows"]))
    rows = 1 if kind == "one_row" else draw(st.integers(1, 7))
    cols = 1 if kind == "one_col" else draw(st.integers(1, 7))
    bits = draw(st.lists(
        st.integers(0, 1), min_size=rows * cols, max_size=rows * cols
    ))
    t = np.array(bits, dtype=np.uint8).reshape(rows, cols)
    if kind == "dup_rows":
        t = np.repeat(t[:1], rows, axis=0)
    return t


def _same(a, b):
    assert a.topology.dtype == b.topology.dtype
    assert np.array_equal(a.topology, b.topology)
    assert a.dx.dtype == b.dx.dtype and np.array_equal(a.dx, b.dx)
    assert a.dy.dtype == b.dy.dtype and np.array_equal(a.dy, b.dy)
    assert a.style == b.style


class TestVectorizedMatchesLoops:
    @settings(max_examples=150, deadline=None)
    @given(t=topologies())
    def test_distinct_mask(self, t):
        for m in (t, t.T):
            assert np.array_equal(_distinct_mask(m), _loop_distinct_mask(m))

    @settings(max_examples=150, deadline=None)
    @given(t=topologies(), data=st.data())
    def test_resquish(self, t, data):
        deltas = st.integers(1, 50)
        dx = data.draw(st.lists(
            deltas, min_size=t.shape[1], max_size=t.shape[1]
        ))
        dy = data.draw(st.lists(
            deltas, min_size=t.shape[0], max_size=t.shape[0]
        ))
        p = SquishPattern(topology=t, dx=dx, dy=dy, style="Layer-10001")
        _same(resquish(p), _loop_resquish(p))

    @settings(max_examples=150, deadline=None)
    @given(
        corners=st.lists(
            st.tuples(*[st.integers(-4, 24)] * 4), min_size=0, max_size=8
        )
    )
    def test_encode_rects(self, corners):
        # Rects may overlap, touch, leave the window or be dropped by the
        # clip; no rects at all is the empty window.
        window = Rect(0, 0, 20, 16)
        rects = [
            Rect(min(a, c), min(b, d), max(a, c), max(b, d))
            for a, b, c, d in corners
        ]
        _same(
            encode_rects(rects, window, style="Layer-10003"),
            _loop_encode_rects(rects, window, style="Layer-10003"),
        )

    def test_empty_window_and_dropped_rects(self):
        window = Rect(5, 5, 9, 12)
        for rects in ([], [Rect(20, 20, 30, 30)], [Rect(0, 5, 5, 9)]):
            _same(
                encode_rects(rects, window),
                _loop_encode_rects(rects, window),
            )
