"""Summary statistics and percentile math."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import SummaryStats, percentile


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_percentile_single_value():
    assert percentile([7.0], 0) == 7.0
    assert percentile([7.0], 100) == 7.0


def test_percentile_interpolates():
    values = [0.0, 10.0]
    assert percentile(values, 50) == pytest.approx(5.0)
    assert percentile(values, 25) == pytest.approx(2.5)


def test_percentile_matches_numpy():
    numpy = pytest.importorskip("numpy")
    values = sorted([3.1, 0.4, 9.9, 2.2, 5.5, 7.3, 1.0])
    for q in [0, 10, 33, 50, 77, 95, 100]:
        assert percentile(values, q) == pytest.approx(numpy.percentile(values, q))


def test_summary_basic_moments():
    stats = SummaryStats([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.minimum == 1.0
    assert stats.maximum == 4.0
    assert stats.total == pytest.approx(10.0)
    assert stats.stddev == pytest.approx(1.118033988749895)


def test_summary_empty_raises():
    stats = SummaryStats()
    with pytest.raises(ValueError):
        stats.mean
    with pytest.raises(ValueError):
        stats.minimum


def test_summary_percentiles_update_after_add():
    stats = SummaryStats([1.0, 2.0, 3.0])
    assert stats.p50 == 2.0
    stats.add(100.0)
    assert stats.p50 == pytest.approx(2.5)


def test_len_matches_count():
    stats = SummaryStats([1, 2, 3])
    assert len(stats) == 3


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_percentile_bounds_and_monotonicity(values):
    stats = SummaryStats(values)
    quantiles = [stats.percentile(q) for q in (10, 50, 90)]
    eps = 1e-9 + 1e-9 * max(abs(v) for v in values)
    assert stats.minimum - eps <= quantiles[0]
    assert quantiles[2] <= stats.maximum + eps
    assert all(a <= b + eps for a, b in zip(quantiles, quantiles[1:]))


@given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
@settings(max_examples=40, deadline=None)
def test_mean_within_min_max(values):
    stats = SummaryStats(values)
    assert stats.minimum - 1e-9 <= stats.mean <= stats.maximum + 1e-9


# ----------------------------------------------------------------------
# Incremental sorted-cache (interleaved add/percentile)
# ----------------------------------------------------------------------
def test_interleaved_add_and_percentile_stays_exact():
    """The sorted-prefix cache must merge new tails, not drop them."""
    import random

    rng = random.Random(42)
    stats = SummaryStats()
    reference = []
    for i in range(500):
        v = rng.uniform(0, 100)
        stats.add(v)
        reference.append(v)
        if i % 7 == 0:
            expected = percentile(sorted(reference), 95)
            assert stats.percentile(95) == pytest.approx(expected)
    expected = percentile(sorted(reference), 50)
    assert stats.percentile(50) == pytest.approx(expected)


def test_large_batch_after_query_resorts():
    stats = SummaryStats([5.0, 1.0])
    assert stats.p50 == 3.0
    for v in range(1000, 0, -1):  # big descending tail forces the sort path
        stats.add(float(v))
    assert stats.minimum == 1.0
    assert stats.percentile(100) == 1000.0
    assert stats.percentile(0) == 1.0


# ----------------------------------------------------------------------
# Streaming (P2) mode
# ----------------------------------------------------------------------
def test_p2_exact_below_five_samples():
    from repro.metrics.stats import P2Quantile

    est = P2Quantile(0.5)
    with pytest.raises(ValueError):
        est.value()
    for v in [9.0, 1.0, 5.0]:
        est.add(v)
    assert est.value() == 5.0


def test_p2_tracks_uniform_quantiles():
    import random

    from repro.metrics.stats import P2Quantile

    rng = random.Random(1234)
    values = [rng.uniform(0, 1) for _ in range(20_000)]
    for p in (0.5, 0.95, 0.99):
        est = P2Quantile(p)
        for v in values:
            est.add(v)
        exact = percentile(sorted(values), p * 100)
        # P2 on 20k uniform samples lands well within a percent or two.
        assert est.value() == pytest.approx(exact, abs=0.02)


def test_streaming_stats_moments_are_exact():
    import random

    from repro.metrics.stats import StreamingStats

    rng = random.Random(7)
    values = [rng.gauss(10, 3) for _ in range(5000)]
    exact = SummaryStats(values)
    streaming = StreamingStats(values)
    assert streaming.count == exact.count
    assert streaming.total == pytest.approx(exact.total)
    assert streaming.mean == pytest.approx(exact.mean)
    assert streaming.minimum == exact.minimum
    assert streaming.maximum == exact.maximum
    assert streaming.stddev == pytest.approx(exact.stddev, rel=1e-9)
    # Percentiles are estimates: close, not exact.
    assert streaming.p50 == pytest.approx(exact.p50, rel=0.05)
    assert streaming.p99 == pytest.approx(exact.p99, rel=0.10)


def test_streaming_stats_fixed_memory():
    from repro.metrics.stats import StreamingStats

    streaming = StreamingStats()
    for i in range(10_000):
        streaming.add(float(i % 97))
    # No raw-sample storage anywhere on the instance.
    assert not any(
        isinstance(v, list) and len(v) > 5 for v in vars(streaming).values()
    )
    assert len(streaming) == 10_000


def test_streaming_stats_untracked_quantile_raises():
    from repro.metrics.stats import StreamingStats

    streaming = StreamingStats([1.0, 2.0])
    with pytest.raises(ValueError, match="not tracked"):
        streaming.percentile(42.0)
    custom = StreamingStats([1.0, 2.0, 3.0], quantiles=(42.0,))
    assert custom.percentile(42.0) >= 1.0


def test_make_stats_factory():
    from repro.metrics.stats import StreamingStats, make_stats

    assert isinstance(make_stats(False), SummaryStats)
    assert isinstance(make_stats(True), StreamingStats)


def test_streaming_recorder_end_to_end(monkeypatch):
    """RunRecorder(streaming=True) produces a close-to-exact report.

    A lazy cohort at ``STREAMING_THRESHOLD`` members switches the recorder
    to streaming; the threshold changes nothing else about the run.  Only
    the response times feed a percentile, so the write counters and the
    per-kind stats (read for counts and means) keep no P² estimators.
    """
    from repro.cohort import CohortConfig
    from repro.experiments.micro import MicroConfig, run_micro
    from repro.metrics.stats import StreamingStats
    from repro.workload import harness

    recorders = []

    class Recorder(harness.RunRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorders.append(self)

    monkeypatch.setattr(harness, "RunRecorder", Recorder)
    config = MicroConfig(
        "SingleT-Async", 8, duration=0.3, warmup=0.1, cohort=CohortConfig(),
    )
    monkeypatch.setattr(harness, "STREAMING_THRESHOLD", 9)
    exact = run_micro(config).report
    monkeypatch.setattr(harness, "STREAMING_THRESHOLD", 8)
    streaming = run_micro(config).report
    assert streaming.completed == exact.completed
    assert streaming.throughput == pytest.approx(exact.throughput)
    assert streaming.response_time_mean == pytest.approx(exact.response_time_mean)
    assert streaming.response_time_p50 == pytest.approx(
        exact.response_time_p50, rel=0.15
    )
    recorder = recorders[-1]
    assert recorder.streaming
    assert sorted(recorder.response_times._quantiles) == [50.0, 95.0, 99.0]
    mean_only = [recorder.write_calls, recorder.zero_writes, *recorder._per_kind.values()]
    assert len(mean_only) > 2
    for stats in mean_only:
        assert isinstance(stats, StreamingStats)
        assert not stats._quantiles
    assert recorder.write_calls.count
    assert "p99" not in repr(recorder.write_calls)
    assert "p99~=" in repr(recorder.response_times)
