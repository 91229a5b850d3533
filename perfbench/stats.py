"""Order statistics used by the benchmark's metrics."""

from __future__ import annotations

import statistics

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; otherwise a single slow sample would decide it.
MIN_BEYOND = 10


def percentile(values, pct: int) -> float | None:
    """Nearest-rank ``pct``-th percentile of ``values``, or None when fewer
    than ``MIN_BEYOND`` samples lie beyond it (p90 needs 100 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100) in integers
    if n - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


def median(values) -> float | None:
    values = list(values)
    return float(statistics.median(values)) if values else None

