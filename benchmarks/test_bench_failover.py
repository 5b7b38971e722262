"""Replica failover: crash-restart vs ejection and hedging.

Regenerates artifact ``failover`` from the experiment registry and
asserts its shape checks (zero-impact of a single-replica
ReplicaConfig, full-downtime collapse and degraded post-restart p99
without failover, detection-window-bounded dip with passive ejection,
budget-bounded hedging, and the cold-cache restart stampede with and
without single-flight coalescing).
"""

import pytest


@pytest.mark.failover
def test_bench_replica_failover(regenerate):
    regenerate("failover")
