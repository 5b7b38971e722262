"""The zero-impact contract of the cohort layer.

``materialize="always"`` must route through the classic eager builder
and be bit-identical to passing no cohort config at all.
"""

import pytest

from repro.cohort import CohortConfig
from repro.experiments.micro import MicroConfig, run_micro

pytestmark = pytest.mark.cohort


def _config(cohort):
    return MicroConfig(
        "SingleT-Async",
        64,
        duration=0.5,
        warmup=0.1,
        think_mean=0.05,
        cohort=cohort,
    )


def _identical(a, b):
    return (
        a.report == b.report
        and a.kernel_events == b.kernel_events
        and a.server_stats == b.server_stats
    )


def test_materialize_always_is_bit_identical_to_no_cohort():
    plain = run_micro(_config(None))
    always = run_micro(_config(CohortConfig(materialize="always")))
    assert _identical(plain, always)
    assert always.cohort_stats == {}


def test_lazy_engine_actually_engages():
    lazy = run_micro(_config(CohortConfig(materialize="lazy")))
    assert lazy.cohort_stats
    assert lazy.cohort_stats["entered"] == 64.0
    assert lazy.report.completed > 0
