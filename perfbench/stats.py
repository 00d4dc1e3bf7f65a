"""The tail-percentile helper shared by the benchmark and its self-tests."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy

#: Percentiles the tail helper may pick from, lowest first.
TAIL_LADDER = (50.0, 60.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie strictly beyond a percentile for it to be reported.
MIN_BEYOND = 10


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest ``q`` in ``TAIL_LADDER`` with at least
    ``MIN_BEYOND`` samples strictly above its value; ``None`` when even the
    lowest rung has too few."""
    best = None
    for q in TAIL_LADDER:
        if not values:
            break
        value = float(numpy.percentile(values, q))
        if sum(1 for v in values if v > value) >= MIN_BEYOND:
            best = (q, value)
    return best
