"""Pluggable denoiser backends for the discrete diffusion model."""

from repro.diffusion.denoisers.base import Denoiser, MarginalDenoiser
from repro.diffusion.denoisers.neighborhood import (
    NeighborhoodDenoiser,
    neighborhood_codes,
)

__all__ = [
    "Denoiser",
    "MarginalDenoiser",
    "NeighborhoodDenoiser",
    "neighborhood_codes",
]
