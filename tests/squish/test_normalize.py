"""Unit + property tests for topology normalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.squish import (
    NormalizationError,
    SquishPattern,
    encode_rects,
    normalize_pattern,
    resquish,
    split_axis,
    uniform_deltas,
)


def _split_axis_by_insert(topology, deltas, target, axis):
    """The original ``np.insert``-per-split loop, kept as the oracle."""
    t = topology.copy()
    d = list(int(v) for v in deltas)
    size = t.shape[axis]
    if size > target:
        raise NormalizationError(
            f"axis {axis} has {size} scan stripes, cannot split down to {target}"
        )
    while len(d) < target:
        idx = int(np.argmax(d))
        if d[idx] < 2:
            raise NormalizationError(
                "cannot split further: all deltas are 1 nm wide"
            )
        left = d[idx] // 2
        right = d[idx] - left
        d[idx : idx + 1] = [left, right]
        if axis == 1:
            t = np.insert(t, idx, t[:, idx], axis=1)
        else:
            t = np.insert(t, idx, t[idx, :], axis=0)
    return t, np.array(d, dtype=np.int64)


class TestSplitAxisOracle:
    """``split_axis`` equals the original per-split ``np.insert`` loop."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_random_deltas_with_ties(self, axis):
        rng = np.random.default_rng(axis)
        for _ in range(200):
            size = int(rng.integers(1, 12))
            target = size + int(rng.integers(0, 20))
            # A few distinct values, so maxima tie often.
            deltas = rng.choice([2, 3, 8, 8, 16, 40], size=size)
            shape = (size, 3) if axis == 0 else (3, size)
            t = (rng.random(shape) < 0.5).astype(np.uint8)
            try:
                want_t, want_d = _split_axis_by_insert(t, deltas, target, axis)
            except NormalizationError as exc:
                with pytest.raises(NormalizationError, match=str(exc)):
                    split_axis(t, deltas, target, axis=axis)
                continue
            got_t, got_d = split_axis(t, deltas, target, axis=axis)
            assert np.array_equal(got_t, want_t)
            assert got_t.dtype == want_t.dtype
            assert np.array_equal(got_d, want_d)
            assert got_d.dtype == want_d.dtype

    def test_target_equals_size_returns_copy(self):
        t = np.array([[1, 0, 1]], dtype=np.uint8)
        got_t, got_d = split_axis(t, np.array([5, 6, 7]), 3, axis=1)
        assert np.array_equal(got_t, t)
        assert got_t is not t
        assert list(got_d) == [5, 6, 7]

    @pytest.mark.parametrize("args", [
        (np.ones((1, 4), dtype=np.uint8), np.full(4, 10), 2, 1),
        (np.ones((2, 1), dtype=np.uint8), np.array([1, 1]), 4, 0),
        (np.ones((1, 2), dtype=np.uint8), np.array([3, 1]), 5, 1),
    ])
    def test_error_messages_unchanged(self, args):
        with pytest.raises(NormalizationError) as want:
            _split_axis_by_insert(*args)
        with pytest.raises(NormalizationError) as got:
            split_axis(*args[:3], axis=args[3])
        assert str(got.value) == str(want.value)


class TestSplitAxis:
    def test_splits_largest_delta(self):
        t = np.array([[1, 0]], dtype=np.uint8)
        t2, d2 = split_axis(t, np.array([10, 90]), 3, axis=1)
        assert t2.shape == (1, 3)
        assert list(d2) == [10, 45, 45]
        # Duplicated column carries the same topology value.
        assert t2[0, 1] == t2[0, 2] == 0

    def test_rows(self):
        t = np.array([[1], [0]], dtype=np.uint8)
        t2, d2 = split_axis(t, np.array([100, 10]), 3, axis=0)
        assert t2.shape == (3, 1)
        assert sum(d2) == 110

    def test_cannot_shrink(self):
        with pytest.raises(NormalizationError):
            split_axis(np.ones((1, 4), dtype=np.uint8), np.full(4, 10), 2, axis=1)

    def test_indivisible_deltas(self):
        with pytest.raises(NormalizationError):
            split_axis(np.ones((1, 2), dtype=np.uint8), np.array([1, 1]), 4, axis=1)


class TestNormalizePattern:
    def test_target_shape_and_size_preserved(self):
        p = encode_rects([Rect(100, 100, 400, 300)], Rect(0, 0, 1000, 1000))
        n = normalize_pattern(p, 16)
        assert n.shape == (16, 16)
        assert n.physical_size == (1000, 1000)

    def test_layout_unchanged(self):
        p = encode_rects([Rect(100, 100, 400, 300)], Rect(0, 0, 1000, 1000))
        n = normalize_pattern(p, 16)
        assert sum(r.area for r in n.to_rects()) == 300 * 200

    def test_canonical_form_unchanged_by_normalisation(self):
        p = encode_rects(
            [Rect(0, 0, 200, 100), Rect(400, 400, 600, 600)],
            Rect(0, 0, 1000, 1000),
        )
        n = normalize_pattern(p, 32)
        assert resquish(n) == resquish(p)

    def test_rejects_oversized(self):
        rects = [Rect(i * 20, 0, i * 20 + 10, 10) for i in range(10)]
        p = encode_rects(rects, Rect(0, 0, 200, 200))
        with pytest.raises(NormalizationError):
            normalize_pattern(p, 4)


class TestUniformDeltas:
    def test_exact_division(self):
        assert list(uniform_deltas(100, 4)) == [25, 25, 25, 25]

    def test_remainder_spread(self):
        d = uniform_deltas(103, 4)
        assert sum(d) == 103
        assert max(d) - min(d) <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            uniform_deltas(3, 4)
        with pytest.raises(ValueError):
            uniform_deltas(10, 0)


@settings(max_examples=30, deadline=None)
@given(
    size_nm=st.integers(min_value=64, max_value=2000),
    cells=st.integers(min_value=1, max_value=64),
)
def test_uniform_deltas_properties(size_nm, cells):
    if size_nm < cells:
        return
    d = uniform_deltas(size_nm, cells)
    assert d.sum() == size_nm
    assert (d > 0).all()
    assert max(d) - min(d) <= 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_normalize_preserves_decoded_area(data):
    n_rects = data.draw(st.integers(1, 4))
    rects = []
    for _ in range(n_rects):
        x0 = data.draw(st.integers(0, 80)) * 10
        y0 = data.draw(st.integers(0, 80)) * 10
        w = data.draw(st.integers(1, 15)) * 10
        h = data.draw(st.integers(1, 15)) * 10
        rects.append(Rect(x0, y0, x0 + w, y0 + h))
    p = encode_rects(rects, Rect(0, 0, 1000, 1000))
    if max(p.shape) > 32:
        return
    n = normalize_pattern(p, 32)
    assert n.shape == (32, 32)
    assert sum(r.area for r in n.to_rects()) == sum(
        r.area for r in p.to_rects()
    )
