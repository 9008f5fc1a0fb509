"""Summaries of timing samples: the extremes, the mean, the median and the
highest percentile that still has at least ten samples beyond it."""

from __future__ import annotations

import statistics

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated inclusive percentile of ``values``, for p in
    (0, 100) to one decimal; at least two samples."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def tail_percentile(n):
    """Highest listed percentile with at least ``MIN_BEYOND`` of ``n``
    samples above it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) >= 100.0 * MIN_BEYOND - 1e-6:  # tolerate 99.9's rounding
            best = p
    return best


def summarize(values) -> dict:
    values = list(values)
    out = {"n": len(values), "min": min(values), "max": max(values),
           "mean": statistics.fmean(values), "median": statistics.median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out
