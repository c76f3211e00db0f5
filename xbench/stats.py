"""The benchmark's own metric arithmetic, kept free of the system under test.

Every rule the report applies lives here so the tests in
``test_stats.py`` can pin it down without running a workload:

* :func:`tail_percentile` — the highest standard percentile that still
  has at least ten samples beyond it, reported with its sample count;
* :func:`self_times` — a span's duration minus the part of it that its
  child spans cover;
* :func:`fail_ratio` — failed or wrong operations over attempted ones;
* :func:`max_rho_meeting_slo` — the serving ladder search.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

#: Percentiles the tail rule may choose from, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values`` (0 <= p <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass(frozen=True)
class Tail:
    """A tail latency: which percentile the rule chose, its value, and n."""

    p: float
    value: float
    n: int

    @property
    def label(self) -> str:
        """``p99``, ``p99.9`` — the percentile as it appears in a name."""
        return f"p{self.p:g}"


def tail_percentile(values: Sequence[float], floor: int | None = None) -> Tail:
    """The highest percentile with at least :data:`MIN_BEYOND` samples beyond it.

    ``n * (1 - p/100)`` samples lie beyond the ``p``-th percentile.  A
    workload passes ``floor``, the sample count every run is guaranteed
    to reach, so that the percentile is chosen from it and stays the
    same from run to run however many samples a run collects above it.
    With fewer than ``2 * MIN_BEYOND`` samples not even the median
    qualifies; the median is then reported and ``n`` shows how thin it is.
    """
    n = len(values)
    rule_n = n if floor is None else min(n, floor)
    chosen = PERCENTILES[0]
    for p in PERCENTILES:
        if rule_n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            chosen = p
    return Tail(chosen, percentile(values, chosen), n)


def self_times(
    spans: Sequence[tuple[str, float, float, int | None]],
) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` holds ``(name, start, end, parent index)`` tuples, where the
    parent index points into the same sequence (``None`` for a root).
    A span's self time is its duration minus the union of its direct
    children's intervals, each clipped to the parent, so overlapping or
    overhanging children are never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed or wrong operations over attempted operations."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return failed / attempted if attempted else 0.0


def max_rho_meeting_slo(
    miss_share: Mapping[float, float], limit: float = 0.05
) -> float:
    """Highest ladder rung whose SLO-miss share is within ``limit``.

    The search walks the ladder upward and stops at the first rung that
    misses: a rung above a failing one does not count, because a service
    that already misses its SLO at a lower load has a growing backlog.
    Returns 0.0 when even the lowest rung misses.
    """
    best = 0.0
    for rho in sorted(miss_share):
        if miss_share[rho] > limit:
            break
        best = rho
    return best

