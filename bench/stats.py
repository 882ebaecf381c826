"""Order statistics used by the benchmark report."""

from __future__ import annotations

from typing import Sequence

#: Candidate tail percentiles, in tenths of a percent.  Their tail shares
#: are a decade apart, so each choice covers a tenfold range of sample
#: counts and small run-to-run drift in the count rarely changes it.
TAIL_LADDER = (500, 900, 990, 999)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of ``values`` (``0 <= pct <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    Below 20 samples no percentile qualifies and the median is used.
    """
    best = TAIL_LADDER[0]
    for tenths in TAIL_LADDER:
        if count * (1000 - tenths) >= TAIL_MIN_BEYOND * 1000:
            best = tenths
    return best / 10.0
