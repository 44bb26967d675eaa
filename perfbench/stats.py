"""Arithmetic shared by the run and repeat scripts: medians, tails, spreads, failures."""

import math
import statistics

# Tail percentiles considered, highest first.  One is reported only when
# at least MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first, so that float error (99.9% of 10000 is 9990.000000000002) adds no rank.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail(samples):
    """(p, value) for the highest percentile with MIN_BEYOND samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(samples), p) >= MIN_BEYOND:
            return p, percentile(samples, p)
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def failure_summary(ops):
    """(attempted, failed, failed_frac) over op records that carry a ``problems`` list."""
    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    return attempted, failed, (failed / attempted if attempted else 0.0)
