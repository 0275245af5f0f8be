"""Order statistics shared by the end-to-end and per-layer metrics."""
from __future__ import annotations

# The ladder stops at p75. On a shared 2-vCPU VM whose steal time varied
# from 0.6% to 11.6% across ten runs, p90 of the mmse-sweep trial time moved
# by 34% (IQR/median) and p75 by 9%; a gate cannot hold the former.
PERCENTILE_LADDER = (50.0, 75.0)
MIN_BEYOND = 10  # samples that must lie above a reported tail percentile


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n`` samples
    beyond it; None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile ``p`` (0..100) of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
