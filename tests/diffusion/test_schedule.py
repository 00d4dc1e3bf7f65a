"""Unit tests for the discrete diffusion schedule (Eqs. 1-4)."""

import numpy as np
import pytest

from repro.diffusion import DiffusionSchedule, linear_beta_schedule


class TestLinearBetas:
    def test_paper_endpoints(self):
        betas = linear_beta_schedule(1000, 0.01, 0.5)
        assert betas[0] == pytest.approx(0.01)
        assert betas[-1] == pytest.approx(0.5)
        assert (np.diff(betas) > 0).all()

    def test_single_step(self):
        assert list(linear_beta_schedule(1, 0.02, 0.5)) == [0.02]

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_beta_schedule(0)
        with pytest.raises(ValueError):
            linear_beta_schedule(10, 0.5, 0.01)
        with pytest.raises(ValueError):
            linear_beta_schedule(10, 0.0, 0.5)


class TestCumulative:
    def test_beta_bar_monotone_bounded(self):
        sch = DiffusionSchedule.linear(100)
        assert (np.diff(sch.beta_bars) >= 0).all()
        assert sch.beta_bars[-1] <= 0.5 + 1e-12
        assert sch.beta_bar(1) == pytest.approx(sch.betas[0])

    def test_two_step_composition(self):
        sch = DiffusionSchedule(betas=np.array([0.1, 0.2]))
        # bar2 = b1(1-b2) + (1-b1)b2
        expected = 0.1 * 0.8 + 0.9 * 0.2
        assert sch.beta_bar(2) == pytest.approx(expected)

    def test_step_bounds_checked(self):
        sch = DiffusionSchedule.linear(10)
        with pytest.raises(ValueError):
            sch.beta_bar(0)
        with pytest.raises(ValueError):
            sch.beta_bar(11)
