"""Full-field pins for n-tier results.

The golden digest (``tests/test_kernel_determinism_golden.py``) hashes the
report and the counter dicts but skips ``kernel_events``,
``tier_utilization``, ``tier_switch_rate``, ``tomcat_peak_concurrency``
and ``goodput_timeline``.  A topology change that renamed a tier, missed a
replica's pool in the peak-concurrency sum or reordered construction
(which moves the kernel event count) would pass every golden row.  These
pins hash every :class:`~repro.ntier.topology.NTierResult` field that takes
part in equality, except ``config``, for the golden cache and replica rows,
three single-instance rows and two downstream-call rows: the balancing
proxy under a deadline with open breakers and hedges, and a replicated DAG
leaf on a sync edge whose breakers open.

The rows run serial and on the TCP fast path on purpose: a sharded
run's ``kernel_events`` is the islands' sum (cut bookkeeping included)
and the per-segment TCP path processes more events, so these pins carry
neither the ``shard`` nor the ``tcpfast`` marker and clear both
switches.

If a *deliberate* behaviour change ever invalidates these pins,
regenerate them with::

    PYTHONPATH=src python -m tests.ntier.test_result_pins

and paste the printed dict over ``PINNED`` in a commit that explains why
results were allowed to move.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cache import CacheConfig
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

from tests.test_kernel_determinism_golden import _NTIER_CONFIGS, _REPLICA_CONFIGS

#: Single-instance rows: the plain sync chain, the async chain under the
#: whole resilience stack with a crash, a gray failure and client
#: retries, and ``replicas=1`` (which must build the unreplicated chain)
#: with a cache.
_SINGLE_CONFIGS = {
    "single-sync": NTierConfig(
        tomcat_variant="sync",
        users=40,
        think_mean=0.5,
        duration=2.0,
        warmup=0.8,
        timeline_bucket=0.25,
        seed=7,
    ),
    "single-chaos": NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.5,
        duration=2.5,
        warmup=0.5,
        timeline_bucket=0.25,
        seed=8,
        retry=RetryPolicy(timeout=0.4, max_retries=2, backoff_base=0.02),
        resilience=ResiliencePolicy(
            deadline=0.3,
            retry_budget=RetryBudgetConfig(ratio=0.2),
            breaker=BreakerConfig(open_duration=0.2),
            admission=AdmissionConfig(target_latency=0.05, min_limit=4),
        ),
        fault_plan=FaultPlan(
            crash_windows=(CrashWindow(start=1.0, end=1.3, warmup=0.1),),
            degrade_windows=(DegradeWindow(start=1.6, end=2.0, share=0.8),),
        ),
    ),
    "single-replica1-cache": NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.5,
        duration=2.0,
        warmup=0.8,
        timeline_bucket=0.25,
        seed=9,
        replica=ReplicaConfig(replicas=1),
        cache=CacheConfig(
            policy="write_through",
            ttl=0.5,
            capacity=32,
            write_ratio=0.1,
            keys_per_class=4,
            prewarm=True,
        ),
    ),
}

#: Downstream-call rows: the balancing proxy under a deadline with a
#: breaker that opens and hedges that race it, and a replicated DAG leaf
#: on a sync edge whose breakers open and force alternate picks.
_ROUTING_CONFIGS = {
    "replica-deadline": NTierConfig(
        tomcat_variant="async",
        users=80,
        think_mean=0.1,
        duration=2.5,
        warmup=0.5,
        timeline_bucket=0.25,
        seed=10,
        retry=RetryPolicy(timeout=0.4, max_retries=2, backoff_base=0.02),
        resilience=ResiliencePolicy(
            deadline=0.05,
            retry_budget=RetryBudgetConfig(ratio=0.2),
            breaker=BreakerConfig(open_duration=0.2),
            hedge=HedgeConfig(
                quantile=0.9, min_delay=0.005, initial_delay=0.02, min_samples=10
            ),
        ),
        cache=CacheConfig(
            policy="cache_aside", ttl=0.5, capacity=32, keys_per_class=2
        ),
        fault_plan=FaultPlan(
            server_stalls=(StallWindow(start=0.9, duration=0.4),),
            crash_windows=(CrashWindow(start=1.5, end=1.8, instance=1, warmup=0.1),),
            degrade_windows=(
                DegradeWindow(start=1.9, end=2.3, instance=2, share=0.95),
            ),
        ),
        replica=ReplicaConfig(
            replicas=3, policy="least_outstanding", ejection_threshold=0
        ),
    ),
    "dag-sync-replica": NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.1,
        duration=2.0,
        warmup=0.5,
        timeline_bucket=0.25,
        seed=12,
        retry=RetryPolicy(timeout=0.2, max_retries=2, backoff_base=0.005),
        resilience=ResiliencePolicy(
            deadline=0.03,
            retry_budget=RetryBudgetConfig(ratio=0.2),
            breaker=BreakerConfig(open_duration=0.2),
        ),
        fault_plan=FaultPlan(
            crash_windows=(
                CrashWindow(start=0.7, end=1.2, instance=1, warmup=0.05),
                CrashWindow(start=1.3, end=1.6, instance=4, warmup=0.05),
            ),
            degrade_windows=(
                DegradeWindow(start=1.6, end=1.9, instance=2, share=0.97),
            ),
        ),
        dag=DagConfig(
            entry="compose",
            nodes=(
                ServiceNode(
                    name="compose",
                    edges=(Edge("store", mode="sync"), Edge("text"), Edge("media")),
                    fan_in="quorum",
                    quorum=1,
                    service_cpu=100.0e-6,
                ),
                ServiceNode(
                    name="store",
                    service_cpu=150.0e-6,
                    replica=ReplicaConfig(
                        replicas=2,
                        policy="round_robin",
                        ejection_threshold=0,
                        latency_factor=3.0,
                        latency_min_samples=5,
                        ejection_duration=0.2,
                    ),
                ),
                ServiceNode(
                    name="text",
                    service_cpu=200.0e-6,
                    service_jitter=0.5,
                    replica=ReplicaConfig(
                        replicas=2,
                        policy="least_outstanding",
                        ejection_threshold=3,
                        ejection_duration=0.1,
                    ),
                ),
                ServiceNode(name="media", service_cpu=200.0e-6, service_jitter=0.5),
            ),
        ),
    ),
}

_CONFIGS = {
    **_NTIER_CONFIGS, **_REPLICA_CONFIGS, **_SINGLE_CONFIGS, **_ROUTING_CONFIGS
}

#: Recorded before the single and replicated Tomcat builds were folded
#: into one chain builder; the two downstream-call rows were recorded
#: before the inter-tier calls were folded into one routed call.
#: ``replica-deadline`` moved once since: a hedge backup now asks its
#: replica's breaker first, so a backup bound for an open breaker is
#: fast-failed instead of sent.
PINNED = {
    'cache': '4d23c99939be3458',
    'cache-aside': '37cca705531398f4',
    'failover': '07a34d3397825203',
    'hedged': '57872c0126360345',
    'single-sync': '04bc985fdcfdfdd5',
    'single-chaos': '0455e9bae9a7d202',
    'single-replica1-cache': '4545cd69a01e0c48',
    'replica-deadline': '77dd9dac512640f8',
    'dag-sync-replica': '88f466f12f7caabd',
}


#: The hashed fields, in the order the pins were recorded: the order
#: ``NTierResult`` declared them in before it shared its fields with
#: the micro result.
_PINNED_FIELDS = (
    "report",
    "tier_utilization",
    "tier_switch_rate",
    "tomcat_peak_concurrency",
    "kernel_events",
    "client_stats",
    "server_stats",
    "resilience",
    "cache_stats",
    "replica_stats",
    "cohort_stats",
    "dag_stats",
    "faults",
    "goodput_timeline",
)


def _full_digest(result) -> str:
    """Hash every equality-bearing result field except ``config``."""
    compared = {
        spec.name for spec in dataclasses.fields(result)
        if spec.compare and spec.name != "config"
    }
    # A new equality-bearing field must join the hash, not slip past it.
    assert compared == set(_PINNED_FIELDS)
    payload = []
    for name in _PINNED_FIELDS:
        value = getattr(result, name)
        if dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        elif isinstance(value, dict):
            value = sorted(value.items())
        payload.append((name, value))
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def _run_all() -> dict:
    """Digest every row serially through the sweep executor (the golden
    rows therefore run with exactly the golden matrix's seeds)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_SHARDS", raising=False)
        patch.delenv("REPRO_TCP_FASTPATH", raising=False)
        executor = SweepExecutor("golden", scale=1.0, jobs=1, cache_dir=None)
        results = executor.map_ntier(dict(_CONFIGS))
    return {name: _full_digest(result) for name, result in results.items()}


def test_every_result_field_is_pinned():
    assert _run_all() == PINNED


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    print("PINNED = {")
    for row, digest in _run_all().items():
        print(f"    {row!r}: {digest!r},")
    print("}")
