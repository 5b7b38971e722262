"""The benchmark's five workloads and what each run is checked against.

Imported only inside a child process, after ``src`` is on ``sys.path``:
every name here comes from the public ``repro`` API, so the benchmark
measures the program as it is.  All workloads are closed loop (every
simulated user waits for its reply) and draw every random input from the
run's seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cache import CacheConfig
from repro.cohort import CohortConfig
from repro.dag import DagConfig, Edge, ServiceNode
from repro.experiments.micro import MicroConfig, run_micro
from repro.faults import DegradeWindow, FaultPlan
from repro.ntier.topology import NTierConfig, run_ntier
from repro.replica import ReplicaConfig
from repro.resilience import BreakerConfig, ResiliencePolicy, RetryBudgetConfig
from repro.workload.client import RetryPolicy
from repro.workload.mixes import BimodalMix, FixedMix, WeightedMix

#: Quick mode divides every measured window (and warm-up) by this.
QUICK_FACTOR = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed, scale) -> config``; ``scale`` is 1 normally and
    #: ``1 / QUICK_FACTOR`` in quick mode, applied to simulated time.
    config: Callable[[int, float], object]
    run: Callable[[object], object]
    #: Whether the workload injects faults: a faulty run may lose
    #: individual requests, a clean one must not.
    faulty: bool = False


def _reactor_small(seed: int, scale: float) -> MicroConfig:
    # Sub-segment responses (one write each) around the paper's 0.1 KB;
    # the size draw is the only seeded input of this workload.
    mix = WeightedMix([("resp-64B", 64, 1.0), ("resp-102B", 102, 2.0), ("resp-160B", 160, 1.0)])
    return MicroConfig(
        "sTomcat-Async",
        100,
        mix=mix,
        duration=(0.1 + 0.3) * scale,
        warmup=0.1 * scale,
        seed=seed,
    )


def _hybrid_mix(seed: int, scale: float) -> MicroConfig:
    return MicroConfig(
        "HybridNetty",
        100,
        mix=BimodalMix(0.05),
        added_latency=0.002,
        duration=(0.4 + 2.0) * scale,
        warmup=0.4 * scale,
        seed=seed,
    )


def _rubbos_cache(seed: int, scale: float) -> NTierConfig:
    return NTierConfig(
        "async",
        # Short think time so a brief run carries steady RUBBoS load from
        # over a thousand real per-client connections.
        users=1500,
        think_mean=1.5,
        duration=(0.2 + 1.6) * scale,
        warmup=0.2 * scale,
        seed=seed,
        cache=CacheConfig(
            policy="write_through",
            l2_capacity=4096,
            write_ratio=0.1,
            keys_per_class=32,
        ),
    )


def _million_ntier(seed: int, scale: float) -> NTierConfig:
    return NTierConfig(
        "async",
        users=1_000_000,
        think_mean=400.0,
        duration=(0.2 + 1.4) * scale,
        warmup=0.2 * scale,
        # One request type: a lone cohort walks a single RUBBoS session
        # chain, whose per-seed composition would swing events per request.
        mix=FixedMix(4096),
        client_latency=0.02,
        inter_tier_latency=0.01,
        seed=seed,
        cohort=CohortConfig(max_inflight=1024, first_think=True, eager_connections=True),
    )


def _dag_chaos(seed: int, scale: float) -> NTierConfig:
    duration = 1.5 * scale
    warmup = 0.3 * scale
    leaves = tuple(
        ServiceNode(name=name, service_cpu=200.0e-6, service_jitter=0.5)
        for name in ("text", "media", "graph")
    )
    # The replicated leaf sits on a sync edge: quorum fan-in cancels the
    # slowest async branch before it succeeds, so only a sync call feeds a
    # gray replica's latency samples to the ejection logic.
    store = ServiceNode(
        name="store",
        service_cpu=150.0e-6,
        replica=ReplicaConfig(
            replicas=2,
            policy="round_robin",
            latency_factor=3.0,
            latency_min_samples=10,
            ejection_duration=0.2,
        ),
    )
    compose = ServiceNode(
        name="compose",
        edges=tuple(Edge(leaf.name) for leaf in leaves) + (Edge("store", mode="sync"),),
        fan_in="quorum",
        quorum=2,
        service_cpu=100.0e-6,
    )
    # Fault targets flatten per node in declaration order: compose=0,
    # then the store replicas, so instance 1 is store replica 0.
    gray = DegradeWindow(start=0.4 * duration, end=0.7 * duration, instance=1, share=0.9)
    return NTierConfig(
        "async",
        users=100,
        think_mean=0.05,
        duration=duration,
        warmup=warmup,
        seed=seed,
        mix=WeightedMix([("resp-2KB", 2048, 1.0)]),
        dag=DagConfig(entry="compose", nodes=(compose, store) + leaves),
        fault_plan=FaultPlan(
            segment_loss_prob=0.01,
            latency_spike_prob=0.02,
            latency_spike=0.01,
            reset_request_prob=0.002,
            rto=0.05,
            degrade_windows=(gray,),
        ),
        retry=RetryPolicy(timeout=0.1, max_retries=2, backoff_base=0.005),
        resilience=ResiliencePolicy(
            deadline=0.2,
            retry_budget=RetryBudgetConfig(ratio=0.2),
            breaker=BreakerConfig(open_duration=0.2),
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("reactor-small", _reactor_small, run_micro),
        Workload("hybrid-mix", _hybrid_mix, run_micro),
        Workload("rubbos-cache", _rubbos_cache, run_ntier),
        Workload("million-ntier", _million_ntier, run_ntier),
        Workload("dag-chaos", _dag_chaos, run_ntier, faulty=True),
    )
}


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_counters(result) -> Dict[str, Optional[float]]:
    """Exact per-layer work counters read from a result's public fields.

    ``None`` marks a counter whose layer does not run in this workload.
    """
    report = result.report
    done = report.completed
    cpu = report.cpu
    server = getattr(result, "server_stats", {})
    tiers = getattr(result, "tier_utilization", {})
    cache = getattr(result, "cache_stats", {})
    cohort = result.cohort_stats
    dag = getattr(result, "dag_stats", {})
    client = result.client_stats
    light = server.get("light_path_requests")
    heavy = server.get("heavy_path_requests")
    lookups = cache["cache_l1_hits"] + cache["cache_l1_misses"] if cache else 0.0
    ejections = [v for k, v in dag.items() if k.endswith("lb_latency_ejections")]
    fast_failures = [v for k, v in result.resilience.items() if k.endswith("_fast_failures")]
    return {
        "net.write_calls_per_request": report.write_calls_per_request,
        "net.zero_writes_per_request": report.zero_writes_per_request,
        "cpu.switches_per_request": _ratio(cpu.context_switches, done) if cpu else None,
        "cpu.syscalls_per_request": _ratio(cpu.syscalls, done) if cpu else None,
        "cpu.utilization": cpu.utilization if cpu else None,
        "servers.spin_jumpouts_per_request": (
            _ratio(server["spin_jumpouts"], done) if "spin_jumpouts" in server else None
        ),
        "core.light_path_share": _ratio(light, light + heavy) if light is not None else None,
        "ntier.tomcat_utilization": tiers.get("tomcat"),
        "ntier.tomcat_peak_concurrency": (
            float(result.tomcat_peak_concurrency)
            if hasattr(result, "tomcat_peak_concurrency")
            else None
        ),
        "cache.l1_hit_ratio": _ratio(cache["cache_l1_hits"], lookups) if cache else None,
        "cache.fetches_per_request": _ratio(cache["cache_fetches"], done) if cache else None,
        "cache.writes_per_request": _ratio(cache["cache_writes"], done) if cache else None,
        "cohort.episodes": cohort.get("episodes"),
        "cohort.inflight_peak": cohort.get("inflight_peak"),
        "dag.degraded_share": (
            _ratio(dag["dag_requests_degraded"], dag["dag_requests"]) if dag else None
        ),
        "replica.latency_ejections": sum(ejections) if ejections else None,
        "resilience.retry_amplification": (
            _ratio(client["attempts"], client["successes"]) if result.config.retry else None
        ),
        "resilience.breaker_fast_failures": sum(fast_failures) if fast_failures else None,
    }


def invariant_violations(workload: Workload, result) -> List[str]:
    """Conservation checks every run of ``workload`` must pass."""
    report = result.report
    bad = []
    if report.completed <= 0:
        bad.append("no request completed in the measurement window")
    if not workload.faulty and (report.failed or report.rejected):
        bad.append(
            f"clean workload lost requests: failed={report.failed} rejected={report.rejected}"
        )
    if report.cpu is None or not 0.0 < report.cpu.utilization <= 1.0 + 1e-9:
        bad.append("watched CPU utilisation outside (0, 1]")
    if result.kernel_events < report.completed:
        bad.append("fewer kernel events than completed requests")
    cohort = result.cohort_stats
    if cohort and cohort.get("entered") != float(result.config.users):
        bad.append(f"cohort entered {cohort.get('entered')} of {result.config.users} members")
    dag = getattr(result, "dag_stats", {})
    if dag and dag["dag_requests_degraded"] > dag["dag_requests"]:
        bad.append("more degraded DAG responses than DAG requests")
    cache = getattr(result, "cache_stats", {})
    if cache and cache["cache_l1_hits"] + cache["cache_l1_misses"] <= 0:
        bad.append("cache tier configured but never consulted")
    return bad
