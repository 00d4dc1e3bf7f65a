"""Unit tests for free-size extension (Fig. 7) and the sampling formulas."""

import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.geometry import diagonal_touch_pairs
from repro.ops import (
    concat_samplings,
    extend,
    in_paint,
    n_in_samplings,
    n_out_samplings,
    naive_concat,
    out_paint,
)
from repro.ops.extend import out_paint_plan, wavefront_levels

# ``repro.ops`` re-exports the ``extend`` function under the module's name.
EXTEND = importlib.import_module("repro.ops.extend")


class TestSamplingFormulas:
    def test_n_in_matches_paper(self):
        # N_in = (2*ceil(W/L)-1)(2*ceil(H/L)-1)
        assert n_in_samplings(256, 256, 128) == 9
        assert n_in_samplings(512, 512, 128) == 49
        assert n_in_samplings(128, 128, 128) == 1
        assert n_in_samplings(200, 300, 128) == 3 * 5

    def test_n_out_matches_paper(self):
        # N_out = (ceil((W-L)/S)+1)(ceil((H-L)/S)+1)
        assert n_out_samplings(256, 256, 128, 64) == 9
        assert n_out_samplings(128, 128, 128, 64) == 1
        assert n_out_samplings(512, 256, 128, 128) == 4 * 2

    def test_concat_samplings(self):
        assert concat_samplings(256, 256, 128) == 4
        assert concat_samplings(300, 300, 128) == 9


class TestOutPaint:
    def test_shape_and_seed_preserved(self, small_model):
        rng = np.random.default_rng(0)
        seed = small_model.sample(1, 0, rng)[0]
        result = out_paint(small_model, seed, (128, 128), 0, rng)
        assert result.topology.shape == (128, 128)
        assert result.method == "out"
        assert np.array_equal(result.topology[:64, :64], seed)

    def test_sampling_count_positive(self, small_model):
        rng = np.random.default_rng(1)
        seed = small_model.sample(1, 0, rng)[0]
        result = out_paint(small_model, seed, (128, 128), 0, rng)
        assert result.samplings == len(result.windows)
        assert result.samplings >= 3

    def test_seed_larger_than_target_rejected(self, small_model):
        with pytest.raises(ValueError):
            out_paint(
                small_model,
                np.zeros((256, 256), dtype=np.uint8),
                (128, 128),
                0,
                np.random.default_rng(0),
            )

    def test_bad_stride_rejected(self, small_model):
        seed = np.zeros((64, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            out_paint(small_model, seed, (128, 128), 0, np.random.default_rng(0), stride=0)


class TestInPaint:
    def test_shape(self, small_model):
        rng = np.random.default_rng(2)
        result = in_paint(small_model, (128, 128), 0, rng)
        assert result.topology.shape == (128, 128)
        assert result.method == "in"

    def test_sampling_count_matches_formula(self, small_model):
        rng = np.random.default_rng(3)
        result = in_paint(small_model, (128, 128), 0, rng)
        # 2x2 tiles -> (2*2-1)^2 = 9 samplings total
        assert result.samplings == n_in_samplings(128, 128, 64)

    def test_seed_used_as_first_tile(self, small_model):
        rng = np.random.default_rng(4)
        seed = small_model.sample(1, 0, rng)[0]
        result = in_paint(small_model, (128, 128), 0, rng, seed_topology=seed)
        # Top-left quadrant interior (outside seam bands) must match seed.
        assert np.array_equal(result.topology[:32, :32], seed[:32, :32])

    def test_bad_seed_shape(self, small_model):
        with pytest.raises(ValueError):
            in_paint(
                small_model, (128, 128), 0, np.random.default_rng(0),
                seed_topology=np.zeros((8, 8), dtype=np.uint8),
            )

    def test_crop_to_non_multiple(self, small_model):
        rng = np.random.default_rng(5)
        result = in_paint(small_model, (100, 90), 0, rng)
        assert result.topology.shape == (100, 90)


class TestExtendDispatch:
    def test_out_method(self, small_model):
        result = extend(small_model, (128, 128), 0, np.random.default_rng(6), method="out")
        assert result.method == "out"
        assert result.topology.shape == (128, 128)

    def test_in_method(self, small_model):
        result = extend(small_model, (128, 128), 1, np.random.default_rng(7), method="in")
        assert result.method == "in"

    def test_unknown_method(self, small_model):
        with pytest.raises(ValueError):
            extend(small_model, (128, 128), 0, np.random.default_rng(8), method="diagonal")

    def test_auto_seed_counted(self, small_model):
        result = extend(small_model, (128, 128), 0, np.random.default_rng(9), method="out")
        # One extra sampling for the automatically drawn seed.
        assert result.samplings >= 4


class TestNaiveConcat:
    def test_shape(self, small_model):
        out = naive_concat(small_model, (128, 128), 0, np.random.default_rng(10))
        assert out.shape == (128, 128)

    def test_tiles_are_independent_samples(self, small_model):
        out = naive_concat(small_model, (128, 128), 0, np.random.default_rng(11))
        w = small_model.window
        assert not np.array_equal(out[:w, :w], out[:w, w:])

    def test_crop(self, small_model):
        out = naive_concat(small_model, (100, 70), 0, np.random.default_rng(12))
        assert out.shape == (100, 70)


def _level_sizes(levels):
    return [levels.count(level) for level in sorted(set(levels))]


WAVEFRONT_CASES = [
    # (target_shape, window, stride)
    ((256, 256), 128, 64),
    ((320, 200), 128, 64),
    ((512, 256), 128, 128),
    ((256, 256), 128, 128),  # stride equal to the window
    ((256, 256), 128, 32),  # stride of a quarter window
]


class TestWavefrontSchedule:
    def test_benchmark_request_levels(self):
        windows, keeps = out_paint_plan((128, 128), (256, 256), 128, 64)
        levels = wavefront_levels((256, 256), windows, keeps)
        assert _level_sizes(levels) == [2, 3, 2, 1]

    @pytest.mark.parametrize("shape,window,stride", WAVEFRONT_CASES)
    def test_windows_see_their_raster_keep_mask(self, shape, window, stride):
        windows, keeps = out_paint_plan((window, window), shape, window, stride)
        levels = wavefront_levels(shape, windows, keeps)
        known = np.zeros(shape, dtype=np.uint8)
        known[:window, :window] = 1
        for level in sorted(set(levels)):
            batch = [i for i, value in enumerate(levels) if value == level]
            for i in batch:
                r0, c0 = windows[i]
                h, w = keeps[i].shape
                assert np.array_equal(known[r0 : r0 + h, c0 : c0 + w], keeps[i])
            for i in batch:
                r0, c0 = windows[i]
                h, w = keeps[i].shape
                known[r0 : r0 + h, c0 : c0 + w] = 1
        assert known.all()

    @pytest.mark.parametrize("shape,window,stride", WAVEFRONT_CASES)
    def test_level_mates_read_no_painted_cell(self, shape, window, stride):
        windows, keeps = out_paint_plan((window, window), shape, window, stride)
        levels = wavefront_levels(shape, windows, keeps)
        for i, (ri, ci) in enumerate(windows):
            painted = np.zeros(shape, dtype=bool)
            h, w = keeps[i].shape
            painted[ri : ri + h, ci : ci + w] = keeps[i] == 0
            for j, (rj, cj) in enumerate(windows):
                if j != i and levels[j] == levels[i]:
                    assert not painted[rj : rj + h, cj : cj + w].any()

    @pytest.mark.parametrize("shape,window,stride", WAVEFRONT_CASES)
    def test_out_paint_runs_levels_in_row_sized_batches(
        self, shape, window, stride, monkeypatch
    ):
        calls = []

        def recording_modify_batch(model, topologies, masks, conds, rng, **kw):
            calls.append(np.array(masks))
            return np.where(masks == 1, topologies, 1).astype(np.uint8)

        monkeypatch.setattr(EXTEND, "modify_batch", recording_modify_batch)
        model = SimpleNamespace(window=window)
        seed = np.zeros((window, window), dtype=np.uint8)
        result = out_paint(
            model, seed, shape, 0, np.random.default_rng(0), stride=stride
        )
        windows, keeps = out_paint_plan(seed.shape, shape, window, stride)
        levels = wavefront_levels(shape, windows, keeps)
        row_size = math.ceil(max(0, shape[1] - window) / stride) + 1
        assert all(len(masks) <= row_size for masks in calls)
        order = sorted(range(len(windows)), key=lambda i: (levels[i], i))
        assert np.array_equal(
            np.concatenate(calls), np.stack([keeps[i] for i in order])
        )
        assert result.windows == windows
        assert result.samplings == len(windows)
        assert result.topology[window:, :].all() and result.topology[:, window:].all()

    @pytest.mark.parametrize("shape,window,stride", WAVEFRONT_CASES)
    def test_extend_samplings_match_formulas(
        self, shape, window, stride, monkeypatch
    ):
        def fake_modify_batch(model, topologies, masks, conds, rng, **kw):
            return np.asarray(topologies).copy()

        def fake_sample_batch(conditions, rng, sampler_steps=None):
            return np.zeros((len(conditions), window, window), dtype=np.uint8)

        monkeypatch.setattr(EXTEND, "modify_batch", fake_modify_batch)
        model = SimpleNamespace(
            window=window,
            sample=lambda count, c, rng, **kw: fake_sample_batch([c] * count, rng),
            sample_batch=fake_sample_batch,
        )
        height, width = shape
        out = extend(
            model, shape, 0, np.random.default_rng(0), method="out",
            stride=stride,
        )
        assert out.samplings == n_out_samplings(width, height, window, stride)
        inp = extend(model, shape, 0, np.random.default_rng(0), method="in")
        assert inp.samplings == n_in_samplings(width, height, window)
        assert len(inp.windows) == inp.samplings

    def test_out_paint_keeps_seed_and_has_no_corner_touches(self, small_model):
        rng = np.random.default_rng(21)
        seed = small_model.sample(1, 0, rng)[0]
        result = out_paint(small_model, seed, (256, 256), 0, rng)
        assert np.array_equal(result.topology[:64, :64], seed)
        assert diagonal_touch_pairs(result.topology) == []

    def test_in_paint_keeps_seed_and_has_no_corner_touches(self, small_model):
        rng = np.random.default_rng(22)
        seed = small_model.sample(1, 0, rng)[0]
        result = in_paint(small_model, (256, 256), 0, rng, seed_topology=seed)
        # Seed cells outside the seam bands (window // 4 either side of a
        # tile boundary) are never re-painted.
        assert np.array_equal(result.topology[:48, :48], seed[:48, :48])
        assert diagonal_touch_pairs(result.topology) == []
