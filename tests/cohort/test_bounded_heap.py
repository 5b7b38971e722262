"""Heap stays bounded at populations the classic builder cannot hold."""

import tracemalloc

import pytest

from repro.cohort import CohortConfig
from repro.experiments.micro import MicroConfig, run_micro

pytestmark = pytest.mark.cohort


def test_hundred_thousand_clients_bounded_heap():
    """100k closed-loop clients under a flat traced-heap budget.

    The classic builder allocates ~100k clients + connections (hundreds
    of MB and an hours-long run at this think ratio); the cohort engine
    holds counting state plus a bounded bundle.  The 32 MB budget is
    generous headroom over the ~0.2 MB measured peak — the assertion is
    that heap does not scale with N, not a tight byte count.
    """
    config = MicroConfig(
        "SingleT-Async",
        100_000,
        duration=3.0,
        warmup=1.0,
        think_mean=200.0,
        cohort=CohortConfig(first_think=True, max_inflight=1024),
    )
    tracemalloc.start()
    result = run_micro(config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert result.cohort_stats["entered"] == 100_000.0
    assert result.report.completed > 0
    assert peak < 32 * 1024 * 1024, f"peak traced heap {peak / 1e6:.1f} MB"
