"""Cohort wiring through the 3-tier topology runner."""

import pytest

from repro.cohort import CohortConfig
from repro.ntier.topology import NTierConfig, run_ntier

pytestmark = pytest.mark.cohort


def _config(cohort):
    return NTierConfig(
        tomcat_variant="async",
        users=1500,
        think_mean=1.0,
        duration=1.2,
        warmup=0.3,
        timeline_bucket=0.25,
        seed=9,
        cohort=cohort,
    )


def test_ntier_lazy_cohort_engages_and_reproduces():
    first = run_ntier(_config(CohortConfig(first_think=True, max_inflight=128)))
    second = run_ntier(_config(CohortConfig(first_think=True, max_inflight=128)))
    assert first.cohort_stats
    assert first.cohort_stats["entered"] == 1500.0
    assert first.report.completed > 0
    assert first.report == second.report
    assert first.cohort_stats == second.cohort_stats
    assert first.kernel_events == second.kernel_events


def test_ntier_always_mode_is_bit_identical_to_no_cohort():
    plain = run_ntier(_config(None))
    always = run_ntier(_config(CohortConfig(materialize="always")))
    assert plain.report == always.report
    assert plain.kernel_events == always.kernel_events
    assert always.cohort_stats == {}