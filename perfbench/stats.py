"""The benchmark's own statistics, tested by test_perfbench.py."""

import math
import statistics
from fractions import Fraction

# Percentiles the tail rule chooses from, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    One sample is its own quartiles.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(n, p):
    # Exact decimal arithmetic: 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n, min_beyond=10):
    """The highest of TAIL_PERCENTILES with at least `min_beyond` of n
    samples beyond it, or None when not even the median has that many."""
    chosen = None
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= min_beyond:
            chosen = p
    return chosen


def failed_frac(failed, attempted):
    """Failed operations over attempted ones. The base is grid points for
    the sim workloads and protocol requests for serve_mix."""
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
