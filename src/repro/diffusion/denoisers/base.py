"""Denoiser interface: the learnable ``p_theta(x_0 | x_k, c)``.

Everything the paper contributes (conditioning, modification, extension, the
agent) sits on top of this posterior estimate, so the denoiser is pluggable.
Denoisers are keyed by *noise level* (the cumulative flip probability
``beta_bar_k``) rather than the raw step index, which makes a trained
denoiser usable under any diffusion length K at sampling time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.diffusion.schedule import DiffusionSchedule

#: Logit bound of the sampling kernel: probabilities stay in [1e-9, 1-1e-9].
LOGIT_CLIP = float(np.log((1.0 - 1e-9) / 1e-9))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, as a new array of ``z``'s dtype."""
    out = np.negative(z)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


class Denoiser(ABC):
    """Estimates ``P(x_0 = 1 | x_k, c)`` pixelwise."""

    #: number of class conditions the denoiser was built for (0 = unconditional)
    n_classes: int = 0

    def target_fill(self, condition: Optional[int] = None) -> float:
        """Clean-data fill rate of the class (used for density guidance).

        Subclasses record this during :meth:`fit`; the fallback 0.5 applies
        before fitting.
        """
        fills = getattr(self, "_target_fills", None)
        if fills is None:
            return 0.5
        return float(fills[self._validate_condition(condition)])

    def _record_target_fills(
        self, topologies: np.ndarray, conditions: Optional[np.ndarray]
    ) -> None:
        slots = max(1, self.n_classes)
        fills = np.full(slots, float(topologies.mean()))
        if self.n_classes > 0 and conditions is not None:
            for c in range(self.n_classes):
                mask = conditions == c
                if mask.any():
                    fills[c] = float(topologies[mask].mean())
        self._target_fills = fills

    @abstractmethod
    def predict_x0(
        self, xk: np.ndarray, noise_level: float, condition: Optional[int] = None
    ) -> np.ndarray:
        """Posterior probability map for ``x_0 = 1``.

        Args:
            xk: noised topology, shape ``(H, W)`` or ``(B, H, W)``, values {0,1}.
            noise_level: cumulative flip probability ``beta_bar_k`` in (0, 0.5].
            condition: class index, or ``None`` for unconditional prediction.

        Returns:
            float64 array of the same shape with values in [0, 1].
        """

    def predict_x0_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """Posterior maps for a ``(B, H, W)`` stack with per-item conditions.

        The batched-serving entry point: one call covers a mixed-condition
        micro-batch.  The default groups the stack by condition and calls
        :meth:`predict_x0` per distinct class; denoisers whose per-item work
        can be shared across conditions override it.
        """
        stack = np.asarray(xk, dtype=np.uint8)
        if stack.ndim != 3:
            raise ValueError("predict_x0_many expects a (B, H, W) stack")
        if len(conditions) != stack.shape[0]:
            raise ValueError(
                f"{len(conditions)} condition(s) for batch of {stack.shape[0]}"
            )
        out = np.empty(stack.shape, dtype=np.float64)
        by_condition: dict = {}
        for i, condition in enumerate(conditions):
            by_condition.setdefault(condition, []).append(i)
        for condition, index in by_condition.items():
            index = np.asarray(index, dtype=np.intp)
            out[index] = self.predict_x0(stack[index], noise_level, condition)
        return out

    def predict_logits_many(
        self,
        xk: np.ndarray,
        noise_level: float,
        conditions: Sequence[Optional[int]],
    ) -> np.ndarray:
        """float32 logits of :meth:`predict_x0_many`, within ``±LOGIT_CLIP``:
        what the sampling kernel works on.  Denoisers that compute logits
        natively override this default."""
        p = self.predict_x0_many(xk, noise_level, conditions)
        p = np.clip(p, 1e-9, 1.0 - 1e-9)
        return np.log(p / (1.0 - p)).astype(np.float32)

    @abstractmethod
    def fit(
        self,
        topologies: np.ndarray,
        conditions: Optional[np.ndarray],
        schedule: DiffusionSchedule,
        rng: np.random.Generator,
    ) -> dict:
        """Train on clean topologies; returns a metrics/history dict."""

    def _validate_condition(self, condition: Optional[int]) -> int:
        if self.n_classes == 0:
            return 0
        if condition is None:
            raise ValueError(
                "this denoiser is class-conditional; pass condition explicitly"
            )
        if not 0 <= condition < self.n_classes:
            raise ValueError(
                f"condition {condition} outside [0, {self.n_classes})"
            )
        return int(condition)


class MarginalDenoiser(Denoiser):
    """Degenerate denoiser predicting the per-class fill marginal.

    Exists as the simplest correct baseline and as a test fixture: with no
    spatial information the reverse process produces i.i.d. pixels at the
    class density.
    """

    def __init__(self, n_classes: int = 0):
        self.n_classes = n_classes
        self._marginals = np.full(max(1, n_classes), 0.5)

    def predict_x0(
        self, xk: np.ndarray, noise_level: float, condition: Optional[int] = None
    ) -> np.ndarray:
        c = self._validate_condition(condition)
        return np.full(xk.shape, self._marginals[c], dtype=np.float64)

    def fit(
        self,
        topologies: np.ndarray,
        conditions: Optional[np.ndarray],
        schedule: DiffusionSchedule,
        rng: np.random.Generator,
    ) -> dict:
        if self.n_classes == 0:
            self._marginals = np.array([float(topologies.mean())])
        else:
            if conditions is None:
                raise ValueError("conditions required for class-conditional fit")
            for c in range(self.n_classes):
                mask = conditions == c
                if mask.any():
                    self._marginals[c] = float(topologies[mask].mean())
        return {"marginals": self._marginals.tolist()}
