"""The benchmark's own arithmetic: medians, tail percentiles, spreads, failures.

Stdlib only and free of ``repro`` imports, so it is tested on its own
(``test_benchstats.py``) and the steadiness tool can use it without the
program under test on the path.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "median",
    "tail_percentile",
    "quartile_spread",
    "sum_of_group_medians",
    "geometric_mean",
    "FailureCount",
]


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def tail_percentile(values, q: float) -> "tuple[float, int]":
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    The nearest rank is ``ceil(q / 100 * n)`` (1-based) over the sorted
    values; the count beyond is how many samples are strictly greater
    than the returned value.  A tail percentile is only worth reporting
    when that count is at least ten.
    """
    values = sorted(values)
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    value = values[rank - 1]
    beyond = sum(1 for v in values if v > value)
    return float(value), beyond


def quartile_spread(values) -> "tuple[float, float, float, float]":
    """``(q1, median, q3, (q3 - q1) / median)`` of at least two values.

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
    exclusive method), the same rule the acceptance check applies to ten
    runs of one workload.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartile spread needs at least two values")
    q1, mid, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / mid if mid else math.inf
    return float(q1), float(mid), float(q3), float(spread)


def sum_of_group_medians(pairs) -> float:
    """Sum over groups of each group's median, from ``(group, value)`` pairs.

    Workloads that rotate over input shapes report a figure "over the
    shape set": per-shape medians, summed, so the mix of shapes a run
    happened to cover cannot move the result.
    """
    groups: "dict[object, list[float]]" = {}
    for group, value in pairs:
        groups.setdefault(group, []).append(value)
    if not groups:
        raise ValueError("no samples")
    return float(sum(median(vals) for vals in groups.values()))


def geometric_mean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


class FailureCount:
    """Attempted/failed tally over checked operations.

    :meth:`record` takes the outcome of one operation: ``None`` or an
    empty list when every check passed, otherwise the failed checks'
    descriptions (kept, capped, for the report).
    """

    MAX_KEPT = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []

    def record(self, problems=None) -> bool:
        """Count one operation; returns whether it passed."""
        self.attempted += 1
        problems = [p for p in (problems or []) if p]
        if problems:
            self.failed += 1
            room = self.MAX_KEPT - len(self.reasons)
            self.reasons.extend(problems[: max(0, room)])
            return False
        return True

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
