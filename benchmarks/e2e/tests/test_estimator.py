"""The estimator, the span arithmetic and the comparison verdicts."""

import statistics

import pytest

import compare
import harness
import metricdefs


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 100) == 4.0
    assert harness.percentile(values, 50) == 2.5
    assert harness.percentile(values, 25) == 1.75
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_quiet_rate_ignores_slow_rounds():
    """Interference only slows rounds: stretching the slowest half of the
    rounds must not move the quiet-quartile rate, while it does move the
    total-wall rate."""
    quiet = [1.0] * 10 + [1.02] * 10
    noisy = [1.0] * 10 + [1.6] * 10
    assert harness.quiet_rate(17, quiet) == harness.quiet_rate(17, noisy)
    assert 17 * 20 / sum(noisy) < 0.9 * 17 * 20 / sum(quiet)


def test_quartiles_follow_the_drivers_rule():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.quartiles(values) == (q1, q2, q3)
    assert harness.spread(values) == (q3 - q1) / q2


def test_timed_rounds_runs_equal_rounds_in_order():
    seen = []
    rounds, host_clock_ms = harness.timed_rounds(
        lambda inputs: inputs * 2, lambda i: seen.append(i) or i,
        seconds=0.0, first_index=2, min_rounds=5)
    assert seen == [2, 3, 4, 5, 6] and host_clock_ms > 0
    assert [(i, o) for _w, i, o in rounds] == [(i, 2 * i) for i in seen]


def test_self_time_subtracts_children():
    rec = harness.SpanRecorder()
    rec.round_id = 0
    rec.add("outer", 0.0, 10.0)          # index 0
    rec.add("inner", 1.0, 4.0, parent=0)
    rec.add("inner", 5.0, 7.0, parent=0)
    rec.round_id = 1
    rec.add("outer", 20.0, 21.0)
    assert rec.self_times(0) == {"outer": 5.0, "inner": 5.0}
    assert rec.self_times(1) == {"outer": 1.0}
    assert rec.self_times()["outer"] == 6.0
    assert rec.durations("inner") == [3.0, 2.0]


def test_span_context_nests():
    rec = harness.SpanRecorder()
    with rec.span("a"):
        with rec.span("b"):
            pass
    assert [s[0] for s in rec.spans] == ["a", "b"]
    assert rec.spans[1][3] == 0 and rec.spans[0][3] == -1
    assert rec.spans[0][1] <= rec.spans[1][1] <= rec.spans[1][2] \
        <= rec.spans[0][2]


# Verdicts depend on the bound, so the cases fix their own.
THROUGHPUT = metricdefs.EndToEnd("ops_per_s", "1/s", "higher", 0.10, "")
LATENCY = metricdefs.EndToEnd("latency_ms", "ms", "lower", 0.10, "")


def _runs(center, rel=0.005):
    return [center * (1 + rel * k) for k in (-2, -1, 0, 0, 1, 2, -1, 1, 0, 0)]


@pytest.mark.parametrize("metric,base,cand,want", [
    (THROUGHPUT, _runs(100), _runs(100.5), "unchanged"),
    (THROUGHPUT, _runs(100), _runs(85), "regressed"),
    (THROUGHPUT, _runs(100), _runs(108), "improved"),
    (LATENCY, _runs(50), _runs(58), "regressed"),
    (LATENCY, _runs(50), _runs(45), "improved"),
    # spread wider than the bound: a move inside it cannot be resolved ...
    (THROUGHPUT, _runs(100, 0.08), _runs(104, 0.08), "unresolved"),
    # ... unless every run of the change beats every run of the parent
    (THROUGHPUT, _runs(100, 0.08), _runs(160, 0.08), "improved"),
])
def test_compare_verdicts(metric, base, cand, want):
    assert compare.verdict(metric, base, cand) == want
