"""Replicated runs are deterministic, crash-restart and hedging included."""

import dataclasses

import pytest

from repro.faults import CrashWindow, FaultPlan
from repro.ntier.topology import NTierConfig, run_ntier
from repro.replica import ReplicaConfig
from repro.resilience import (
    BreakerConfig,
    HedgeConfig,
    ResiliencePolicy,
    RetryBudgetConfig,
)
from repro.workload.client import RetryPolicy

pytestmark = pytest.mark.failover


def _config(seed=5):
    return NTierConfig(
        tomcat_variant="async",
        users=20,
        think_mean=0.5,
        duration=1.5,
        warmup=0.4,
        timeline_bucket=0.25,
        seed=seed,
        retry=RetryPolicy(timeout=0.4, max_retries=2, backoff_base=0.02),
        resilience=ResiliencePolicy(
            retry_budget=RetryBudgetConfig(ratio=0.2),
            breaker=BreakerConfig(open_duration=0.2),
            hedge=HedgeConfig(quantile=0.9, min_delay=0.005,
                              initial_delay=0.02, min_samples=10),
        ),
        fault_plan=FaultPlan(
            crash_windows=(CrashWindow(start=0.6, end=0.9, warmup=0.1),)
        ),
        replica=ReplicaConfig(
            replicas=3, policy="least_outstanding",
            ejection_threshold=3, ejection_duration=0.1,
        ),
    )


def _fingerprint(result):
    return (
        dataclasses.asdict(result.report),
        sorted(result.server_stats.items()),
        sorted(result.client_stats.items()),
        sorted(result.resilience.items()),
        sorted(result.replica_stats.items()),
        result.kernel_events,
    )


def test_identical_seeds_are_bit_identical():
    first = run_ntier(_config())
    second = run_ntier(_config())
    assert _fingerprint(first) == _fingerprint(second)
    assert first.replica_stats["replica_crashes"] == 1.0


def test_different_seeds_diverge():
    assert _fingerprint(run_ntier(_config(seed=5))) != _fingerprint(
        run_ntier(_config(seed=6))
    )
