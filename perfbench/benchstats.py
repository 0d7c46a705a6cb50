"""Order statistics for the benchmark's timings.

The percentile rule: a percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it, so a p90 needs 100 samples and a
p50 needs 20.  Medians of repeated passes are summaries of repeats, not
latency percentiles, and use :func:`statistics.median` directly.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Number of the ``n`` sorted samples that lie above the ``q`` quantile."""
    return n - math.ceil(q * n)


def percentile(samples, q: float) -> float | None:
    """Linear-interpolated ``q`` quantile, or None if the rule forbids it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie strictly between 0 and 1, got {q}")
    data = sorted(samples)
    n = len(data)
    if samples_beyond(n, q) < MIN_BEYOND:
        return None
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def highest_percentile(samples, candidates=(0.999, 0.99, 0.9, 0.5)):
    """The highest candidate quantile the rule allows, as ``(q, value)``."""
    for q in candidates:
        value = percentile(samples, q)
        if value is not None:
            return q, value
    return None


def median_or_zero(values) -> float:
    """Median, or 0.0 for a layer the workload did not exercise."""
    values = list(values)
    return statistics.median(values) if values else 0.0
