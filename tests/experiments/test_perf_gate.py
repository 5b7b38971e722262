"""The perf-suite gate: loose rate checks plus exact work counters."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.artifacts_perf import (
    EXACT_METRICS,
    RATE_METRICS,
    SUITE_VERSION,
    compare_to_baseline,
)


def _payload(**overrides):
    results = {metric: 100.0 for metric in RATE_METRICS}
    results.update({metric: 12.5 for metric in EXACT_METRICS})
    results.update(overrides)
    return {"suite_version": SUITE_VERSION, "results": results}


def test_identical_payloads_pass():
    assert compare_to_baseline(_payload(), _payload()) == []


def test_rate_gate_is_loose():
    metric = RATE_METRICS[0]
    assert compare_to_baseline(_payload(**{metric: 75.0}), _payload()) == []
    failures = compare_to_baseline(_payload(**{metric: 65.0}), _payload())
    assert len(failures) == 1 and failures[0].startswith(metric)


@pytest.mark.parametrize("value", [12.4999, 12.5001])
def test_work_counters_must_match_exactly(value):
    """Fewer events per request fails the gate just like more: the
    baseline has to be regenerated on purpose."""
    metric = EXACT_METRICS[0]
    failures = compare_to_baseline(_payload(**{metric: value}), _payload())
    assert len(failures) == 1 and failures[0].startswith(metric)


def test_missing_work_counter_rejects_the_baseline():
    baseline = _payload()
    del baseline["results"][EXACT_METRICS[-1]]
    with pytest.raises(ExperimentError):
        compare_to_baseline(_payload(), baseline)
