"""Tests of the benchmark's own arithmetic (no program under test needed).

Run: ``python3 -m pytest perfbench/tests -q``
"""

import math
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import (Span, StepOutcome, Tally, backlog_grows,  # noqa: E402
                   busy_seconds,
                   latency_ms_with_failures, max_sustained_rate, percentile,
                   relative_spread, self_time_by_name, self_times,
                   valid_metric_name, valid_unit)


# ------------------------------------------------------ metric names
@pytest.mark.parametrize("name", [
    "setup_s", "p50_ms", "serve.queue_p50_ms.r300", "backend.im2col.calls",
    "parallel.ddp.bytes_moved", "a", "9lives", "x-y_z.w", "a" * 64,
])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", [
    "", ".leading_dot", "_leading_underscore", "-dash", "has space",
    "slash/name", "p99@300", "é", "a" * 65, None, 3,
])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "bytes_computed", "MB"):
        assert valid_unit(unit)
    for unit in ("", "req per s", "x" * 17):
        assert not valid_unit(unit)


# ------------------------------------------------------ percentiles
def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failed_requests_count_as_missing_the_limit():
    latencies = latency_ms_with_failures([10.0] * 8, failed=2)
    assert len(latencies) == 10
    assert percentile(latencies, 50) == 10.0
    assert math.isinf(percentile(latencies, 90))


def test_relative_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert relative_spread([2.0] * 10) == 0.0


# ------------------------------------------------------ self times
def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent=parent, run="r")


def test_self_time_subtracts_children():
    spans = [_span(1, "root", 0.0, 10.0),
             _span(2, "a", 1.0, 3.0, parent=1),
             _span(3, "b", 4.0, 8.0, parent=1),
             _span(4, "c", 5.0, 6.0, parent=3)]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(4.0), 2: pytest.approx(2.0),
                     3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    # the self times tile the root exactly
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [_span(1, "root", 0.0, 10.0),
             _span(2, "a", 1.0, 5.0, parent=1),
             _span(3, "b", 3.0, 7.0, parent=1),   # overlaps a (other thread)
             _span(4, "c", 9.0, 12.0, parent=1)]  # runs past its parent
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_keep_reparents_to_nearest_kept_ancestor():
    spans = [_span(1, "stage", 0.0, 10.0),
             _span(2, "step", 1.0, 9.0, parent=1),
             _span(3, "stage", 2.0, 4.0, parent=2),   # nested stage
             _span(4, "kernel", 5.0, 6.0, parent=2)]
    selfs = self_times(spans, keep={"stage"})
    assert set(selfs) == {1, 3}
    assert selfs[1] == pytest.approx(8.0)   # only the nested stage is removed
    assert self_time_by_name(spans, keep={"stage"}) == {
        "stage": pytest.approx(10.0)}


def test_self_time_by_name_sums_same_name_spans():
    spans = [_span(1, "x", 0.0, 1.0), _span(2, "x", 2.0, 4.0),
             _span(3, "y", 2.5, 3.0, parent=2)]
    assert self_time_by_name(spans) == {"x": pytest.approx(2.5),
                                        "y": pytest.approx(0.5)}


# ------------------------------------------------------ max rate rule
def _steady(rate, seconds=2.0, latency=0.01):
    sends = [i / rate for i in range(int(rate * seconds))]
    return sends, [t + latency for t in sends]


def _overloaded(rate, capacity, seconds=2.0):
    sends = [i / rate for i in range(int(rate * seconds))]
    completions, free = [], 0.0
    for t in sends:   # one FIFO server completing `capacity` per second
        free = max(free, t) + 1.0 / capacity
        completions.append(free)
    return sends, completions


def test_backlog_steady_below_capacity():
    sends, completions = _steady(500)
    assert not backlog_grows(sends, completions, 2.0, 500)


def test_backlog_grows_above_capacity():
    sends, completions = _overloaded(1000, capacity=700)
    assert backlog_grows(sends, completions, 2.0, 1000)


def test_backlog_tolerates_a_small_deficit():
    sends, completions = _overloaded(1000, capacity=980)   # 2% short
    assert not backlog_grows(sends, completions, 2.0, 1000)


def test_busy_seconds_is_the_union_of_in_flight_intervals():
    sends = [0.0, 0.5, 3.0, 3.2]
    completions = [1.0, 2.0, 3.5, math.inf]   # the lost request is skipped
    assert busy_seconds(sends, completions) == pytest.approx(2.5)
    assert busy_seconds([1.0], [math.inf]) == 0.0


def test_lost_requests_count_as_backlog():
    sends, completions = _steady(500)
    completions = completions[:500] + [math.inf] * (len(sends) - 500)
    assert backlog_grows(sends, completions, 2.0, 500)


def test_max_sustained_rate_takes_highest_passing_prefix():
    steps = [StepOutcome(300, 12.0, False), StepOutcome(600, 20.0, False),
             StepOutcome(900, 260.0, False),                  # p90 limit
             StepOutcome(1200, 100.0, False)]                 # no rescue
    assert max_sustained_rate(steps, 250.0) == 600
    steps[2] = StepOutcome(900, 40.0, True)                   # backlog
    assert max_sustained_rate(steps, 250.0) == 600
    steps[2] = StepOutcome(900, 40.0, False, failed=1)        # a failure
    assert max_sustained_rate(steps, 250.0) == 600
    steps[2] = StepOutcome(900, 40.0, False)
    assert max_sustained_rate(steps, 250.0) == 1200
    assert max_sustained_rate(list(reversed(steps)), 250.0) == 1200


def test_max_sustained_rate_zero_when_lowest_step_fails():
    assert max_sustained_rate([StepOutcome(300, 900.0, False)], 250.0) == 0.0


# ------------------------------------------------------ failure accounting
def test_tally_buckets_every_attempt_once():
    tally = Tally()
    tally.succeed(7)
    tally.fail("refused", 2)
    tally.fail("lost")
    assert tally.attempted == 10
    assert tally.failed == 3
    assert tally.fail_frac == pytest.approx(0.3)
    assert tally.attempted == tally.ok + sum(tally.failures.values())


def test_tally_merge_and_empty():
    assert Tally().fail_frac == 0.0
    a, b = Tally(), Tally()
    a.succeed(2)
    a.fail("timeout")
    b.fail("timeout", 2)
    b.fail("exit")
    a.merge(b)
    assert a.failures == {"timeout": 3, "exit": 1}
    assert (a.ok, a.failed, a.attempted) == (2, 4, 6)
