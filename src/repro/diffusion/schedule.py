"""Noise schedule and transition algebra of the 2-state discrete diffusion.

Implements Eqs. (1)-(4) of the paper for the binary topology alphabet
{0, 1}.  The per-step transition matrix is symmetric,

    Q_k = [[1 - beta_k, beta_k], [beta_k, 1 - beta_k]],

so the cumulative product stays in the same family with an effective flip
probability ``beta_bar_k`` obeying ``1 - 2*beta_bar_k = prod(1 - 2*beta_i)``:
the denoiser's noise level at step ``k`` and the flip probability with
which the reverse step re-noises its x0 draw to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np


SamplerSteps = Union[str, int, None]

#: Survival ``1 - 2*beta_bar`` below which a step's state is pure noise;
#: reverse chains start at the first step under it (``start_step``).
SIGNAL_FLOOR = 0.01


def validate_sampler_steps(value: SamplerSteps) -> SamplerSteps:
    """Check a ``sampler_steps`` spec: ``"full"`` | ``"bucketed"`` | int.

    The single validation every path funnels through — config, CLI and
    per-call overrides alike (``reverse_steps`` applies it itself).
    """
    if value is None or value in ("full", "bucketed"):
        return value
    if isinstance(value, bool):
        raise ValueError("sampler_steps must be 'full', 'bucketed' or an int")
    if isinstance(value, (int, np.integer)):
        if value < 1:
            raise ValueError(f"sampler_steps must be >= 1, got {value}")
        return int(value)
    raise ValueError(
        f"sampler_steps must be 'full', 'bucketed' or an int, got {value!r}"
    )


def linear_beta_schedule(steps: int, beta_1: float = 0.01, beta_k: float = 0.5) -> np.ndarray:
    """Eq. (4): linearly increasing flip probabilities ``beta_1 .. beta_K``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (0.0 < beta_1 <= beta_k <= 0.5):
        raise ValueError("need 0 < beta_1 <= beta_K <= 0.5")
    if steps == 1:
        return np.array([beta_1])
    k = np.arange(1, steps + 1, dtype=np.float64)
    return (k - 1.0) * (beta_k - beta_1) / (steps - 1.0) + beta_1


@dataclass
class DiffusionSchedule:
    """Precomputed schedule over ``K`` forward steps.

    ``betas[i]`` is the flip probability of step ``k = i + 1`` and
    ``beta_bars[i]`` the cumulative flip probability of ``q(x_k | x_0)``.
    """

    betas: np.ndarray
    beta_bars: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if self.betas.ndim != 1 or self.betas.size == 0:
            raise ValueError("betas must be a non-empty 1-D array")
        if ((self.betas <= 0) | (self.betas > 0.5)).any():
            raise ValueError("betas must lie in (0, 0.5]")
        self.beta_bars = 0.5 * (1.0 - np.cumprod(1.0 - 2.0 * self.betas))

    @classmethod
    def linear(cls, steps: int, beta_1: float = 0.01, beta_k: float = 0.5) -> "DiffusionSchedule":
        """Schedule with the paper's linear beta ramp (default 0.01 -> 0.5)."""
        return cls(betas=linear_beta_schedule(steps, beta_1, beta_k))

    @property
    def steps(self) -> int:
        """K, the diffusion length."""
        return int(self.betas.shape[0])

    @property
    def start_step(self) -> int:
        """The step every reverse chain starts at.

        The smallest ``k`` with ``1 - 2*beta_bar(k) < SIGNAL_FLOOR``, or
        ``K`` if the schedule never gets there.  ``q(x_k | x_0)`` at that
        step is within ``SIGNAL_FLOOR / 2`` of a fair coin per cell, so a
        prior draw stands in for the steps above it.
        """
        below = np.flatnonzero(1.0 - 2.0 * self.beta_bars < SIGNAL_FLOOR)
        return int(below[0]) + 1 if below.size else self.steps

    def reverse_steps(
        self,
        sampler_steps: Union[str, int, None] = "full",
        n_buckets: Optional[int] = None,
    ) -> List[int]:
        """The descending step indices a reverse chain visits.

        The step-schedule abstraction behind the fast samplers: the reverse
        chain walks the returned ``k`` values in order (always ending at 1,
        the deterministic final step) and re-noises each prediction to the
        *next visited* step instead of ``k - 1``, a DDIM-style stride.
        Every mode starts at or below :attr:`start_step`; the steps above
        it would only re-noise to a fair coin.

        Modes:

        - ``"full"`` (or ``None``) — every step ``start_step .. 1``.
        - ``"bucketed"`` — one representative step per *noise bucket* of a
          bucketed denoiser (``n_buckets`` required): consecutive steps
          whose ``beta_bar`` falls in the same bucket read identical tables,
          so only the lowest-noise step of each occupied bucket is kept —
          cutting denoiser evaluations to at most ``n_buckets``.  A
          representative above ``start_step`` is dropped.  Falls back to
          ``"full"`` when ``n_buckets`` is ``None`` (the denoiser is not
          bucketed, so there is nothing to collapse).
        - an ``int`` ``n`` — ``n`` steps evenly spaced over
          ``start_step .. 1`` (endpoints included); ``n >= start_step``
          clamps to the full chain, so one configured count works across
          schedules of any length.
        """
        sampler_steps = validate_sampler_steps(sampler_steps)
        start = self.start_step
        if (
            sampler_steps is None
            or sampler_steps == "full"
            or (sampler_steps == "bucketed" and n_buckets is None)
        ):
            return list(range(start, 0, -1))
        if sampler_steps == "bucketed":
            # beta_bar is strictly increasing in k, so walking k upward
            # visits buckets in order; keep the first (lowest-noise) k of
            # each occupied bucket.  k=1 is always kept: it is the first k
            # of the lowest occupied bucket.
            buckets = np.minimum(
                n_buckets - 1, (self.beta_bars / 0.5 * n_buckets).astype(int)
            )
            _, first_of_bucket = np.unique(buckets, return_index=True)
            return sorted(
                (int(i) + 1 for i in first_of_bucket if i < start),
                reverse=True,
            )
        ks = np.linspace(start, 1, min(sampler_steps, start))
        return sorted({int(round(k)) for k in ks}, reverse=True)

    def beta_bar(self, k: int) -> float:
        """Cumulative flip probability of ``q(x_k | x_0)`` (1-based)."""
        self._check_k(k)
        return float(self.beta_bars[k - 1])

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= self.steps:
            raise ValueError(f"step k={k} outside [1, {self.steps}]")
