"""Tests for the benchmark's arithmetic (stdlib only, no ``repro`` needed).

Run alone with ``python -m pytest perfbench/test_benchstats.py -q``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchstats import (  # noqa: E402
    FailureCount,
    geometric_mean,
    median,
    quartile_spread,
    sum_of_group_medians,
    tail_percentile,
)


def test_median_odd_even_and_empty():
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_nearest_rank_and_count_beyond():
    values = list(range(1, 101))  # 1..100
    assert tail_percentile(values, 90) == (90.0, 10)
    assert tail_percentile(values, 50) == (50.0, 50)
    assert tail_percentile(values, 100) == (100.0, 0)
    # nearest rank rounds the rank up: ceil(0.9 * 15) = 14
    assert tail_percentile(list(range(15)), 90) == (13.0, 1)


def test_tail_percentile_ties_are_not_beyond():
    value, beyond = tail_percentile([1, 5, 5, 5, 5, 5, 5, 5, 5, 9], 90)
    assert value == 5.0
    assert beyond == 1


def test_tail_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        tail_percentile([], 90)
    with pytest.raises(ValueError):
        tail_percentile([1.0], 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, mid, q3, spread = quartile_spread(values)
    ref = statistics.quantiles(values, n=4)
    assert (q1, mid, q3) == tuple(ref)
    assert spread == pytest.approx((ref[2] - ref[0]) / ref[1])


def test_quartile_spread_constant_values_is_zero():
    assert quartile_spread([2.0] * 5)[3] == 0.0
    with pytest.raises(ValueError):
        quartile_spread([1.0])


def test_sum_of_group_medians():
    pairs = [("a", 1.0), ("b", 10.0), ("a", 3.0), ("b", 30.0), ("a", 2.0)]
    assert sum_of_group_medians(pairs) == 2.0 + 20.0
    with pytest.raises(ValueError):
        sum_of_group_medians([])


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_failure_count():
    count = FailureCount()
    assert not count.correct  # nothing attempted is not a pass
    assert count.record(None)
    assert count.record([])
    assert not count.record(["bad length", ""])
    assert not count.record(["out of range"])
    assert (count.attempted, count.failed) == (4, 2)
    assert count.reasons == ["bad length", "out of range"]
    assert not count.correct


def test_failure_count_caps_kept_reasons():
    count = FailureCount()
    for i in range(FailureCount.MAX_KEPT + 5):
        count.record([f"problem {i}"])
    assert count.failed == FailureCount.MAX_KEPT + 5
    assert len(count.reasons) == FailureCount.MAX_KEPT
