"""Order statistics used by the end-to-end metrics."""

import math

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolation percentile, p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n, p):
    """Number of the n samples ranked strictly above the p-th percentile."""
    return n - math.floor((n - 1) * p / 100.0) - 1


def tail(values):
    """(percentile, value, samples beyond it) for the tail metric.

    The tail is the highest percentile of the ladder with at least ten
    samples beyond it.  With fewer than 20 samples no percentile qualifies;
    the median is reported and the short count is returned so the caller
    can print it.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p), beyond(n, p)
    return 50.0, percentile(values, 50.0), beyond(n, 50.0)

