"""Evaluation metrics: Legality (Eq. 7) and Diversity (Eq. 8)."""

from repro.metrics.diversity import (
    complexity_distribution,
    complexity_of,
    diversity,
    shannon_entropy,
)
from repro.metrics.legality import (
    LegalityResult,
    legalize_many,
    legalize_sequential,
    physical_size_for,
)
from repro.metrics.stats import LibraryStats, library_stats

__all__ = [
    "LegalityResult",
    "LibraryStats",
    "complexity_distribution",
    "complexity_of",
    "diversity",
    "legalize_many",
    "legalize_sequential",
    "library_stats",
    "physical_size_for",
    "shannon_entropy",
]
