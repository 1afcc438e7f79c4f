"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that one slow query cannot be the whole tail.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def tail(values, min_beyond: int = TAIL_MIN_BEYOND):
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(value, percentile, n)``: with the ``n`` samples sorted, the
    value is the sample at position ``n - min_beyond`` (1-based), and the
    percentile is the share of samples at or below that position.  Returns
    ``None`` when there are ``min_beyond`` samples or fewer, since then no
    sample has that many beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - min_beyond
    if k < 1:
        return None
    return xs[k - 1], 100.0 * k / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
