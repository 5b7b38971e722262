"""Golden-digest determinism gate for the DES kernel fast path.

The kernel optimisations (``__slots__``, pooled timeouts, lazy timeout
cancellation, the coalesced blocked-writer path) are required to keep
simulation results **bit-identical**: same event ordering, same RNG draws,
same report floats.  This test pins that guarantee to golden digests
computed *before* the fast path landed: one short configuration per server
architecture (plus a chaos-plan configuration exercising faults and
retries), each hashed over the full :class:`RunReport` and the server
counters.

The digests must match at ``jobs=1`` and ``jobs=4`` — the parallel sweep
executor fans points across worker processes and must still reproduce the
serial rows exactly.

If a *deliberate* behaviour change ever invalidates these digests,
regenerate them with::

    PYTHONPATH=src python tests/test_kernel_determinism_golden.py

and paste the printed dict over ``GOLDEN`` — in a commit that explains why
results were allowed to move.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.micro import MicroConfig

#: The digest matrix doubles as the flow-level TCP fast path's equivalence
#: contract: `REPRO_TCP_FASTPATH=0 pytest -m tcpfast` re-runs it on the
#: per-segment path and must produce the same GOLDEN rows bit-for-bit.
pytestmark = pytest.mark.tcpfast
from repro.cache import CacheConfig
from repro.cohort import CohortConfig
from repro.dag import DagConfig, Edge, ServiceNode
from repro.experiments.parallel import SweepExecutor
from repro.faults import CrashWindow, DegradeWindow, FaultPlan, StallWindow
from repro.ntier.topology import NTierConfig
from repro.replica import ReplicaConfig
from repro.resilience import (
    AdmissionConfig,
    BreakerConfig,
    HedgeConfig,
    ResiliencePolicy,
    RetryBudgetConfig,
)
from repro.workload.client import RetryPolicy

#: One short-but-representative config per architecture.  100KB responses
#: for the single-threaded server so the write-spin path is in the hash.
_CONFIGS = {
    "sTomcat-Sync": MicroConfig("sTomcat-Sync", 8, duration=0.4, warmup=0.1),
    "sTomcat-Async": MicroConfig("sTomcat-Async", 8, duration=0.4, warmup=0.1),
    "sTomcat-Async-Fix": MicroConfig("sTomcat-Async-Fix", 8, duration=0.4, warmup=0.1),
    "SingleT-Async": MicroConfig(
        "SingleT-Async", 8, response_size=102_400, duration=0.4, warmup=0.1
    ),
    "NettyServer": MicroConfig(
        "NettyServer", 8, response_size=102_400, duration=0.4, warmup=0.1
    ),
    "HybridNetty": MicroConfig("HybridNetty", 8, duration=0.4, warmup=0.1),
    "TomcatSync": MicroConfig("TomcatSync", 8, duration=0.4, warmup=0.1),
    "TomcatAsync": MicroConfig("TomcatAsync", 8, duration=0.4, warmup=0.1),
    "Staged-SEDA": MicroConfig("Staged-SEDA", 8, duration=0.4, warmup=0.1),
    "N-copy": MicroConfig("N-copy", 8, duration=0.4, warmup=0.1),
    # Chaos: fault injection + client retries + a CPU stall, so the lazy
    # cancellation of abandoned retry deadlines is covered by the digest.
    "chaos": MicroConfig(
        "SingleT-Async",
        8,
        duration=0.4,
        warmup=0.1,
        fault_plan=FaultPlan(
            segment_loss_prob=0.05,
            latency_spike_prob=0.10,
            latency_spike=0.005,
            reset_request_prob=0.01,
            client_abort_prob=0.05,
            client_abort_delay=0.010,
            server_stalls=(StallWindow(start=0.10, duration=0.03),),
            rto=0.050,
        ),
        retry=RetryPolicy(timeout=0.05, max_retries=2, backoff_base=0.005),
    ),
    # Resilience: the same chaos plan with the cross-tier stack switched on
    # (deadline + retry budget + adaptive admission), pinning the budget
    # gate, deadline truncation and AIMD limiter into the digest matrix.
    "resilience": MicroConfig(
        "SingleT-Async",
        8,
        duration=0.4,
        warmup=0.1,
        fault_plan=FaultPlan(
            segment_loss_prob=0.05,
            latency_spike_prob=0.10,
            latency_spike=0.005,
            reset_request_prob=0.01,
            client_abort_prob=0.05,
            client_abort_delay=0.010,
            server_stalls=(StallWindow(start=0.10, duration=0.03),),
            rto=0.050,
        ),
        retry=RetryPolicy(timeout=0.05, max_retries=2, backoff_base=0.005),
        resilience=ResiliencePolicy(
            deadline=0.2,
            retry_budget=RetryBudgetConfig(ratio=0.2),
            admission=AdmissionConfig(target_latency=0.05, min_limit=4),
        ),
    ),
}

#: Golden digests recorded against the pre-fast-path kernel (PR 3).
GOLDEN = {
    "sTomcat-Sync": "7f58acae3b2c0c20",
    "sTomcat-Async": "f54759bc1b0ed4e7",
    "sTomcat-Async-Fix": "580e967d52026e7f",
    "SingleT-Async": "b841cdf370cd8b68",
    "NettyServer": "9797625cd3577d59",
    "HybridNetty": "1f9527037cd0e4ca",
    "TomcatSync": "071dabc866460982",
    "TomcatAsync": "efc96f3efe5fd3fe",
    "Staged-SEDA": "fb4c096321641aa3",
    "N-copy": "7d80b417c5f575a8",
    "chaos": "023a9b66ebebebac",
    "resilience": "426ba4a474da6b7d",
}

#: Golden digests for the cache-enabled n-tier rows (PR 6).  Recorded
#: with the same regeneration helper; all 12 ``GOLDEN`` rows above were
#: verified byte-identical in the same run (zero-impact contract).
GOLDEN_NTIER = {
    "cache": "04873799a633fd53",
    "cache-aside": "d33aee503d422319",
}


#: A 3-tier run with the cache tier switched on (both levels, TTL expiry,
#: LRU eviction, write-through refills, single-flight, prewarm), pinning
#: the cache layer's event sequence and counters into the digest matrix.
#: Kept separate from the micro configs: it runs through ``map_ntier``.
_NTIER_CONFIGS = {
    "cache": NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.5,
        duration=2.0,
        warmup=0.8,
        timeline_bucket=0.25,
        seed=5,
        cache=CacheConfig(
            policy="write_through",
            ttl=0.5,
            capacity=64,
            l2_capacity=256,
            l2_ttl=1.0,
            write_ratio=0.1,
            keys_per_class=4,
            prewarm=True,
        ),
    ),
    # Cache-aside without single-flight (invalidation path + duplicate
    # fetches), so both write policies and both coalescing modes are
    # digest-pinned.  Two rows also force a real process fan-out in the
    # jobs=4 run (a single pending point would fall back to serial).
    "cache-aside": NTierConfig(
        tomcat_variant="sync",
        users=40,
        think_mean=0.5,
        duration=2.0,
        warmup=0.8,
        timeline_bucket=0.25,
        seed=6,
        cache=CacheConfig(
            policy="cache_aside",
            ttl=0.4,
            capacity=32,
            write_ratio=0.15,
            keys_per_class=2,
            single_flight=False,
        ),
    ),
}


#: Golden digests for the replica-enabled n-tier rows (PR 7), recorded
#: with the regeneration helper; all earlier rows were verified
#: byte-identical in the same run (zero-impact contract).
GOLDEN_REPLICA = {
    "failover": "f908a36f52e6965c",
    "hedged": "f272d9d9edf07c96",
}

#: Replicated 3-tier runs: a crash-restart mid-run with round-robin
#: balancing and passive ejection, and a least-outstanding + hedging +
#: per-replica-cache row, pinning the whole failover layer's event
#: sequence (crash connection resets, cold restarts, probes, hedge
#: cancellation) into the digest matrix.
_REPLICA_CONFIGS = {
    "failover": NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.5,
        duration=2.5,
        warmup=0.5,
        timeline_bucket=0.25,
        seed=5,
        retry=RetryPolicy(timeout=0.4, max_retries=2, backoff_base=0.02),
        resilience=ResiliencePolicy(
            retry_budget=RetryBudgetConfig(ratio=0.2),
            breaker=BreakerConfig(open_duration=0.2),
        ),
        fault_plan=FaultPlan(
            crash_windows=(CrashWindow(start=1.0, end=1.5, warmup=0.1),),
        ),
        replica=ReplicaConfig(
            replicas=3,
            policy="round_robin",
            ejection_threshold=3,
            ejection_duration=0.1,
            probe_interval=0.25,
        ),
    ),
    # Least-outstanding balancing + hedging + a per-replica cache, with
    # the crash hitting instance 2 — covers the other balancer policy,
    # the hedge win/cancel path, and a cold cache restart.
    "hedged": NTierConfig(
        tomcat_variant="sync",
        users=40,
        think_mean=0.5,
        duration=2.5,
        warmup=0.5,
        timeline_bucket=0.25,
        seed=6,
        retry=RetryPolicy(timeout=0.4, max_retries=2, backoff_base=0.02),
        resilience=ResiliencePolicy(
            retry_budget=RetryBudgetConfig(ratio=0.2),
            breaker=BreakerConfig(open_duration=0.2),
            hedge=HedgeConfig(
                quantile=0.9, min_delay=0.005, initial_delay=0.02,
                min_samples=10,
            ),
        ),
        cache=CacheConfig(
            policy="cache_aside",
            ttl=0.5,
            capacity=32,
            keys_per_class=2,
            prewarm=True,
        ),
        fault_plan=FaultPlan(
            crash_windows=(CrashWindow(start=1.0, end=1.5, instance=2,
                                       warmup=0.1),),
        ),
        replica=ReplicaConfig(
            replicas=3,
            policy="least_outstanding",
            ejection_threshold=3,
            ejection_duration=0.1,
        ),
    ),
}


#: Golden digests for the cohort aggregation engine (PR 8), recorded with
#: the regeneration helper; all earlier rows were verified byte-identical
#: in the same run (zero-impact contract: a lazy cohort config changes
#: nothing unless it is actually attached to a run).
GOLDEN_COHORT = {
    "cohort-chaos": "63624588654fbe21",
    "cohort-idle": "7fa549fce84f6558",
}

#: Lazy-cohort micro runs: one episode-heavy chaos row (faults + client
#: retries force materialization, watchdog timeouts and fold-back into
#: the hash) and one mostly-idle superposition row (20k members on the
#: aggregate exponential clock — the million-client regime, scaled to a
#: digest-friendly runtime).  The lazy engine is *not* digest-compatible
#: with the classic builder (different event order by design), so these
#: rows pin its own behaviour instead.
_COHORT_CONFIGS = {
    "cohort-chaos": MicroConfig(
        "SingleT-Async",
        2000,
        duration=1.5,
        warmup=0.3,
        think_mean=0.5,
        fault_plan=FaultPlan(
            reset_request_prob=0.005,
            client_abort_prob=0.02,
            rto=0.05,
        ),
        retry=RetryPolicy(timeout=0.1, max_retries=2, backoff_base=0.01),
        cohort=CohortConfig(first_think=True, max_inflight=64),
    ),
    "cohort-idle": MicroConfig(
        "SingleT-Async",
        20_000,
        duration=1.0,
        warmup=0.2,
        think_mean=50.0,
        cohort=CohortConfig(first_think=True, max_inflight=32),
    ),
}


#: Golden digests for the DAG topology rows (PR 9), recorded with the
#: regeneration helper; all earlier rows were verified byte-identical in
#: the same run (zero-impact contract: `dag=None` builds the exact same
#: linear chain as before the DAG layer existed).
GOLDEN_DAG = {
    "dag-fanout": "2794f5ea8e791597",
    "dag-quorum": "9694f0d29a1c1724",
}

#: DAG 3-tier rows: a mixed sync/async fan-out with best-effort fan-in
#: and per-edge breakers, and a quorum row with a replicated leaf under
#: a gray-failure DegradeWindow (CPU slowdown + latency-aware ejection),
#: pinning the whole DAG layer's event sequence — worker-thread fan-out,
#: join bookkeeping, branch cancellation, degraded accounting — into the
#: digest matrix.  Two rows also force a real process fan-out at jobs=4.
_DAG_CONFIGS = {
    "dag-fanout": NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.5,
        duration=2.0,
        warmup=0.5,
        timeline_bucket=0.25,
        seed=5,
        resilience=ResiliencePolicy(
            deadline=0.2,
            breaker=BreakerConfig(open_duration=0.2),
        ),
        dag=DagConfig(
            entry="compose",
            nodes=(
                ServiceNode(
                    name="compose",
                    edges=(
                        Edge("text"),
                        Edge("media"),
                        Edge("store", mode="sync"),
                    ),
                    fan_in="best_effort",
                    best_effort_timeout=0.02,
                    service_cpu=100.0e-6,
                ),
                ServiceNode(name="text", service_cpu=200.0e-6,
                            service_jitter=0.8),
                ServiceNode(name="media", service_cpu=300.0e-6,
                            service_jitter=0.8),
                ServiceNode(name="store", service_cpu=150.0e-6),
            ),
        ),
    ),
    # Quorum fan-in over a replicated leaf with one gray replica: the
    # DegradeWindow CPU slowdown, the latency-EWMA ejection path and the
    # degraded-response accounting all land in the hash.  Fault targets
    # flatten in declaration order (compose=0, text replicas 1..2, ...),
    # so instance=1 is text replica 0.
    "dag-quorum": NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.5,
        duration=2.5,
        warmup=0.5,
        timeline_bucket=0.25,
        seed=6,
        resilience=ResiliencePolicy(deadline=0.1),
        fault_plan=FaultPlan(
            degrade_windows=(
                DegradeWindow(start=1.0, end=1.8, instance=1, share=0.9),
            ),
        ),
        dag=DagConfig(
            entry="compose",
            nodes=(
                ServiceNode(
                    name="compose",
                    edges=(Edge("text"), Edge("media"), Edge("graph")),
                    fan_in="quorum",
                    quorum=2,
                    service_cpu=100.0e-6,
                ),
                ServiceNode(
                    name="text",
                    service_cpu=200.0e-6,
                    replica=ReplicaConfig(
                        replicas=2,
                        policy="round_robin",
                        latency_factor=3.0,
                        latency_min_samples=5,
                        ejection_duration=0.2,
                    ),
                ),
                ServiceNode(name="media", service_cpu=200.0e-6),
                ServiceNode(name="graph", service_cpu=200.0e-6),
            ),
        ),
    ),
}


def _digest_result(result) -> str:
    """Stable hash of everything a run reports."""
    payload = (
        dataclasses.asdict(result.report),
        sorted(result.server_stats.items()),
        sorted(result.client_stats.items()),
    )
    if result.resilience:
        # Appended only when the resilience stack ran, so the digests of
        # the pre-resilience configs stay byte-for-byte stable.
        payload = payload + (sorted(result.resilience.items()),)
    cache_stats = getattr(result, "cache_stats", None)
    if cache_stats:
        # Same population rule for the cache tier (PR 6).
        payload = payload + (sorted(cache_stats.items()),)
    replica_stats = getattr(result, "replica_stats", None)
    if replica_stats:
        # Same population rule for the replica layer (PR 7).
        payload = payload + (sorted(replica_stats.items()),)
    cohort_stats = getattr(result, "cohort_stats", None)
    if cohort_stats:
        # Same population rule for the cohort engine (PR 8).
        payload = payload + (sorted(cohort_stats.items()),)
    dag_stats = getattr(result, "dag_stats", None)
    if dag_stats:
        # Same population rule for the DAG layer (PR 9).
        payload = payload + (sorted(dag_stats.items()),)
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def _run_all(configs: dict, jobs: int) -> dict:
    """Digest one config matrix through the sweep executor."""
    executor = SweepExecutor("golden", scale=1.0, jobs=jobs, cache_dir=None)
    if isinstance(next(iter(configs.values())), NTierConfig):
        results = executor.map_ntier(dict(configs))
    else:
        results = executor.map_micro(dict(configs))
    return {name: _digest_result(result) for name, result in results.items()}


@pytest.fixture(scope="module")
def serial_digests() -> dict:
    return _run_all(_CONFIGS, jobs=1)


def test_golden_digests_serial(serial_digests):
    assert serial_digests == GOLDEN


def test_golden_digests_parallel_fanout(serial_digests):
    """jobs=4 must reproduce the serial (and therefore golden) rows."""
    assert _run_all(_CONFIGS, jobs=4) == GOLDEN == serial_digests


@pytest.fixture(scope="module")
def serial_ntier_digests() -> dict:
    return _run_all(_NTIER_CONFIGS, jobs=1)


@pytest.mark.cache
def test_golden_ntier_cache_digest_serial(serial_ntier_digests):
    assert serial_ntier_digests == GOLDEN_NTIER


@pytest.mark.cache
def test_golden_ntier_cache_digest_parallel(serial_ntier_digests):
    """jobs=4 must reproduce the cache-enabled n-tier row too."""
    assert _run_all(_NTIER_CONFIGS, jobs=4) == GOLDEN_NTIER == serial_ntier_digests


@pytest.fixture(scope="module")
def serial_replica_digests() -> dict:
    return _run_all(_REPLICA_CONFIGS, jobs=1)


@pytest.mark.failover
def test_golden_ntier_replica_digest_serial(serial_replica_digests):
    assert serial_replica_digests == GOLDEN_REPLICA


@pytest.mark.failover
def test_golden_ntier_replica_digest_parallel(serial_replica_digests):
    """jobs=4 must reproduce the replica-enabled n-tier rows too."""
    assert (
        _run_all(_REPLICA_CONFIGS, jobs=4) == GOLDEN_REPLICA == serial_replica_digests
    )


@pytest.fixture(scope="module")
def serial_cohort_digests() -> dict:
    return _run_all(_COHORT_CONFIGS, jobs=1)


@pytest.mark.cohort
def test_golden_cohort_digest_serial(serial_cohort_digests):
    assert serial_cohort_digests == GOLDEN_COHORT


@pytest.mark.cohort
def test_golden_cohort_digest_parallel(serial_cohort_digests):
    """jobs=4 must reproduce the lazy-cohort rows too."""
    assert _run_all(_COHORT_CONFIGS, jobs=4) == GOLDEN_COHORT == serial_cohort_digests


@pytest.fixture(scope="module")
def serial_dag_digests() -> dict:
    return _run_all(_DAG_CONFIGS, jobs=1)


@pytest.mark.dag
def test_golden_dag_digest_serial(serial_dag_digests):
    assert serial_dag_digests == GOLDEN_DAG


@pytest.mark.dag
def test_golden_dag_digest_parallel(serial_dag_digests):
    """jobs=4 must reproduce the DAG rows too."""
    assert _run_all(_DAG_CONFIGS, jobs=4) == GOLDEN_DAG == serial_dag_digests


if __name__ == "__main__":  # pragma: no cover - digest regeneration helper
    for name, configs in (
        ("GOLDEN", _CONFIGS),
        ("GOLDEN_NTIER", _NTIER_CONFIGS),
        ("GOLDEN_REPLICA", _REPLICA_CONFIGS),
        ("GOLDEN_COHORT", _COHORT_CONFIGS),
        ("GOLDEN_DAG", _DAG_CONFIGS),
    ):
        print(f"{name} = {{")
        for row, digest in _run_all(configs, jobs=1).items():
            print(f"    {row!r}: {digest!r},")
        print("}")
