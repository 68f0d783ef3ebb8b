"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100)."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])
