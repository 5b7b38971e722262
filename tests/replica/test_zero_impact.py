"""The replica layer's zero-impact contract.

A run with no replica config and one with ``ReplicaConfig(replicas=1)``
must be *bit-identical*: same report floats, same counters, same kernel
event count — the replicated build path never executes, forks no RNG
streams, creates no objects.
"""

import dataclasses

import pytest

from repro.replica import ReplicaConfig
from repro.ntier.topology import NTierConfig, run_ntier

pytestmark = pytest.mark.failover

_BASE = dict(
    tomcat_variant="async",
    users=15,
    think_mean=0.5,
    duration=1.0,
    warmup=0.4,
    timeline_bucket=0.25,
    seed=9,
)

#: A config that visibly changes behaviour when the layer is live.
_REPLICA = ReplicaConfig(replicas=3, policy="least_outstanding", probe_interval=0.2)


def _fingerprint(result):
    return (
        dataclasses.asdict(result.report),
        sorted(result.server_stats.items()),
        sorted(result.client_stats.items()),
        sorted(result.resilience.items()),
        sorted(result.replica_stats.items()),
        result.kernel_events,
    )


@pytest.fixture
def baseline():
    return _fingerprint(run_ntier(NTierConfig(**_BASE)))


def test_single_replica_is_bit_identical(baseline):
    result = run_ntier(NTierConfig(replica=ReplicaConfig(replicas=1), **_BASE))
    assert _fingerprint(result) == baseline
    assert result.replica_stats == {}


def test_enabled_layer_actually_engages(baseline):
    """Sanity for the contract above: a multi-replica config must
    diverge from the baseline and report counters."""
    result = run_ntier(NTierConfig(replica=_REPLICA, **_BASE))
    assert result.replica_stats
    assert result.replica_stats["lb_picks"] > 0
    assert result.replica_stats["probe_successes"] > 0
    assert _fingerprint(result) != baseline
