"""Order statistics used by the benchmark.

Percentiles follow the nearest-rank rule and refuse to report a
percentile that fewer than ten samples lie beyond: p50 needs 20
samples, p90 needs 100. A tail figure read off fewer samples is noise,
so it is an error here rather than a number.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def min_samples(pct: int) -> int:
    """Smallest sample count that supports percentile ``pct`` (0-99)."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100): {pct}")
    return math.ceil(MIN_BEYOND * 100 / (100 - pct))


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile ``pct`` of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples
    would lie beyond it (fewer than 100 samples for p90).
    """
    need = min_samples(pct)
    if len(values) < need:
        raise ValueError(
            f"p{pct} needs >= {need} samples, got {len(values)}"
        )
    ordered = sorted(values)
    rank = math.ceil(pct * len(ordered) / 100)
    return ordered[max(0, rank - 1)]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)

