"""Conditional discrete diffusion: schedule, denoisers, model."""

from repro.diffusion.denoisers.base import Denoiser, MarginalDenoiser
from repro.diffusion.denoisers.neighborhood import (
    NeighborhoodDenoiser,
    ReferenceDenoiser,
    neighborhood_codes,
)
from repro.diffusion.model import ConditionalDiffusionModel
from repro.diffusion.schedule import DiffusionSchedule, linear_beta_schedule

__all__ = [
    "ConditionalDiffusionModel",
    "Denoiser",
    "DiffusionSchedule",
    "MarginalDenoiser",
    "NeighborhoodDenoiser",
    "ReferenceDenoiser",
    "linear_beta_schedule",
    "neighborhood_codes",
]
