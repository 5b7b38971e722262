"""The pin table: one row per pinned run, tier-1's behavioural spec.

Kernel and model optimisations are required to keep results
**bit-identical**: same event ordering, same RNG draws, same report
floats.  Each row is one short run, pinned as ``PINS[row] = (digest,
kernel_events, completed)``:

* ``digest`` is :func:`tests.helpers.result_digest`, a hash of every
  compared result field except ``config`` and ``kernel_events``: the
  report, every counter dict, the fault report, the goodput timeline and
  the per-tier fields;
* ``kernel_events`` is the number of simulation events the kernel
  processed, which moves only when the simulator does different work;
* ``completed`` is the report's completed requests.

The rows are one short config per server architecture, chaos and
resilience micro runs, the 3-tier chain under each feature layer (cache,
replicas and failover, the resilience stack, crashes and gray failures,
DAG fan-outs), lazy cohorts, and four shapes that run directly instead
of through the sweep executor.  The tests of this module check the
executor rows; ``tests/test_work_pins.py`` checks the four direct rows
with :func:`check_pins`.

What is checked:

* ``digest`` and ``completed`` under the run inputs the CI tier sets, so
  the tcpfast tier (``REPRO_TCP_FASTPATH=0 pytest -m tcpfast``) re-checks
  every digest on the per-segment TCP path;
* ``kernel_events`` with ``REPRO_SHARDS`` and ``REPRO_TCP_FASTPATH``
  cleared: both change it, and nothing else (under default inputs this
  is the same run);
* the sweep executor at ``jobs=4`` must reproduce the serial executor
  rows.

Executor rows run through ``SweepExecutor("golden")``, which derives each
row's seed from the artifact name, the runner and the row key, so
renaming either moves the row.

If a *deliberate* behaviour change moves a row, regenerate the table
with::

    PYTHONPATH=src python -m tests.test_kernel_determinism_golden

and paste the printed dict over ``PINS`` in a commit that explains why
results were allowed to move.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import CacheConfig
from repro.calibration import default_calibration
from repro.cohort import CohortConfig
from repro.cpu.scheduler import CPU
from repro.dag import DagConfig, Edge, ServiceNode
from repro.experiments.micro import MicroConfig, run_micro
from repro.experiments.parallel import SweepExecutor
from repro.faults import CrashWindow, DegradeWindow, FaultPlan, StallWindow
from repro.metrics.collector import RunRecorder
from repro.net.link import Link
from repro.ntier.topology import NTierConfig, run_ntier
from repro.replica import ReplicaConfig
from repro.resilience import (
    AdmissionConfig,
    BreakerConfig,
    HedgeConfig,
    ResiliencePolicy,
    RetryBudgetConfig,
)
from repro.servers.reactor import ReactorServer
from repro.sim.core import Environment
from repro.sim.inputs import run_inputs
from repro.sim.rng import SeedStreams
from repro.workload.client import FixedThink, RetryPolicy
from repro.workload.harness import RunResult
from repro.workload.mixes import SIZE_LARGE, BimodalMix, FixedMix
from repro.workload.population import build_population

from tests.helpers import result_digest

pytestmark = pytest.mark.tcpfast

#: The chaos plan of the two micro fault rows: loss, spikes, resets,
#: client aborts and a CPU stall.
_CHAOS_PLAN = FaultPlan(
    segment_loss_prob=0.05,
    latency_spike_prob=0.10,
    latency_spike=0.005,
    reset_request_prob=0.01,
    client_abort_prob=0.05,
    client_abort_delay=0.010,
    server_stalls=(StallWindow(start=0.10, duration=0.03),),
    rto=0.050,
)

#: Rows run through the executor's micro runner.
_MICRO = {
    # One short config per architecture; 100KB responses for
    # SingleT-Async and NettyServer so the write-spin path is in the hash.
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
    # Faults, client retries and a CPU stall, so the lazy cancellation of
    # abandoned retry deadlines is in the hash.
    "chaos": MicroConfig(
        "SingleT-Async",
        8,
        duration=0.4,
        warmup=0.1,
        fault_plan=_CHAOS_PLAN,
        retry=RetryPolicy(timeout=0.05, max_retries=2, backoff_base=0.005),
    ),
    # The same plan under deadline + retry budget + adaptive admission.
    "resilience": MicroConfig(
        "SingleT-Async",
        8,
        duration=0.4,
        warmup=0.1,
        fault_plan=_CHAOS_PLAN,
        retry=RetryPolicy(timeout=0.05, max_retries=2, backoff_base=0.005),
        resilience=ResiliencePolicy(
            deadline=0.2,
            retry_budget=RetryBudgetConfig(ratio=0.2),
            admission=AdmissionConfig(target_latency=0.05, min_limit=4),
        ),
    ),
    # Lazy cohorts: an episode-heavy chaos row (faults and retries force
    # materialization, watchdog timeouts and fold-back) and a mostly idle
    # superposition row (20k members on the aggregate exponential clock).
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

#: Rows run through the executor's n-tier runner.
_NTIER = {
    # The plain sync chain.
    "single-sync": NTierConfig(
        tomcat_variant="sync",
        users=40,
        think_mean=0.5,
        duration=2.0,
        warmup=0.8,
        timeline_bucket=0.25,
        seed=7,
    ),
    # The async chain under the whole resilience stack with a crash, a
    # gray failure and client retries.
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
    # The cache tier: both levels, TTL expiry, LRU eviction,
    # write-through refills, single-flight and prewarm.
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
    # Cache-aside without single-flight: the invalidation path and
    # duplicate fetches.
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
    # ``replicas=1``, which must build the unreplicated chain, with a
    # cache.
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
    # A crash-restart mid-run with round-robin balancing and passive
    # ejection: crash connection resets, cold restarts and probes.
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
    # Least-outstanding balancing, hedging and a per-replica cache, with
    # the crash on instance 2: the hedge win/cancel path and a cold cache
    # restart.
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
    # The balancing proxy under a deadline, with a breaker that opens and
    # hedges that race it.
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
    # A mixed sync/async fan-out with best-effort fan-in and per-edge
    # breakers: worker-thread fan-out, join bookkeeping and branch
    # cancellation.
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
    # DegradeWindow CPU slowdown, latency-EWMA ejection and degraded
    # accounting.  Fault targets flatten in declaration order (compose=0,
    # text replicas 1..2, ...), so instance=1 is text replica 0.
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
    # A replicated DAG leaf on a sync edge whose breakers open and force
    # alternate picks.
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

_LEAVES = ("text", "media", "graph")


def _cohort_fixed_think() -> RunResult:
    """A lazy cohort with a constant think time, built directly with
    ``build_population``: no runner sends ``FixedThink``, so no other row
    pins the sampled-heap arrival engine's work for it."""
    calib = default_calibration()
    env = Environment()
    cpu = CPU(env, calib)
    recorder = RunRecorder(env)
    recorder.watch_cpu(cpu)
    build_population(
        env,
        ReactorServer(env, cpu, workers=8),
        size=500,
        mix=BimodalMix(0.05),
        link=Link.lan(calib, added_latency=0.001),
        calibration=calib,
        seeds=SeedStreams(3),
        recorder=recorder,
        think=FixedThink(0.02),
        ramp_up=0.05,
        cohort=CohortConfig(first_think=True, max_inflight=32),
    )
    env.run(until=1.0)
    return RunResult(None, recorder.report(), kernel_events=env.events_processed)


#: Rows that run directly, with their configs' own seeds.
_DIRECT = {
    # Write-spin: SingleT-Async, 50 users, 100 KB responses.
    "write-spin": lambda: run_micro(MicroConfig(
        server="SingleT-Async",
        concurrency=50,
        response_size=SIZE_LARGE,
        duration=0.54,
        warmup=0.2,
    )),
    # A 200k-member lazy cohort that is mostly idle (think 400 s against
    # a 6 s run).
    "cohort-200k": lambda: run_micro(MicroConfig(
        server="SingleT-Async",
        concurrency=200_000,
        duration=6.0,
        warmup=2.0,
        think_mean=400.0,
        cohort=CohortConfig(materialize="lazy", max_inflight=2048, first_think=True),
    )),
    "cohort-fixed-think": _cohort_fixed_think,
    # A 3-leaf ``wait_all`` DAG compose.
    "dag-wait-all": lambda: run_ntier(NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.05,
        duration=1.0,
        warmup=0.3,
        mix=FixedMix(2048),
        dag=DagConfig(
            entry="compose",
            nodes=(
                ServiceNode(
                    name="compose",
                    edges=tuple(Edge(leaf) for leaf in _LEAVES),
                    fan_in="wait_all",
                    service_cpu=100.0e-6,
                ),
            ) + tuple(
                ServiceNode(name=leaf, service_cpu=200.0e-6) for leaf in _LEAVES
            ),
        ),
        seed=11,
    )),
}

#: The executor rows of each layer marker's pair of tests (``None``:
#: unmarked).
LAYERS = {
    None: (
        "sTomcat-Sync", "sTomcat-Async", "sTomcat-Async-Fix", "SingleT-Async",
        "NettyServer", "HybridNetty", "TomcatSync", "TomcatAsync",
        "Staged-SEDA", "N-copy", "chaos", "resilience", "single-sync",
        "single-chaos",
    ),
    "cache": ("cache", "cache-aside", "single-replica1-cache"),
    "failover": ("failover", "hedged", "replica-deadline"),
    "cohort": ("cohort-chaos", "cohort-idle"),
    "dag": ("dag-fanout", "dag-quorum", "dag-sync-replica"),
}

#: ``row -> (digest, kernel_events, completed)``.
PINS = {
    'sTomcat-Sync': ('52848e137ae52a9f', 116014, 8260),
    'sTomcat-Async': ('f4f335ab15d06eb3', 135157, 6338),
    'sTomcat-Async-Fix': ('be9a711f6e542118', 120141, 7056),
    'SingleT-Async': ('49bf955f100b950f', 22076, 121),
    'NettyServer': ('f5da97e8066577bf', 9699, 160),
    'HybridNetty': ('fda7226c55fe0c77', 100333, 9039),
    'TomcatSync': ('64817baec21d5182', 95580, 6174),
    'TomcatAsync': ('930d4c9a145f2e0d', 116946, 5007),
    'Staged-SEDA': ('91d7f1ba0f6ae288', 111641, 5845),
    'N-copy': ('6ac966b70745e43c', 89962, 9150),
    'chaos': ('b2a8d4f61ab880e4', 8774, 515),
    'resilience': ('942f3884640f3bea', 8335, 577),
    'single-sync': ('eda873c29b6be48e', 21791, 96),
    'single-chaos': ('f0b6ee95eaf308c7', 25109, 116),
    'cache': ('8b2628c1f91655c1', 20195, 104),
    'cache-aside': ('666b65483b989649', 21851, 97),
    'single-replica1-cache': ('39764cbe8a2baaa5', 20635, 97),
    'failover': ('07e658e8b8aed014', 33172, 168),
    'hedged': ('236dde74b1831ad1', 27977, 168),
    'replica-deadline': ('f12bf05adf6146ab', 202207, 1604),
    'cohort-chaos': ('2693214bf41c8151', 60910, 4859),
    'cohort-idle': ('96bad04fe973853d', 4487, 340),
    'dag-fanout': ('ff8904560501a0cd', 20076, 119),
    'dag-quorum': ('6b119fd9c5b10aa4', 24791, 162),
    'dag-sync-replica': ('995c515d8681c9de', 81770, 603),
    'write-spin': ('d58298c6d2762402', 29383, 138),
    'cohort-200k': ('2b2bf77b5081e03d', 27786, 1950),
    'cohort-fixed-think': ('46795e7fdd0736f7', 124881, 5621),
    'dag-wait-all': ('2641a73b7882b314', 54849, 534),
}


def _run(rows, jobs: int) -> dict:
    """Results of ``rows``: executor rows through ``SweepExecutor("golden")``
    at ``jobs``, the others directly."""
    executor = SweepExecutor("golden", scale=1.0, jobs=jobs, cache_dir=None)
    results = executor.map_micro({row: _MICRO[row] for row in rows if row in _MICRO})
    results.update(executor.map_ntier({row: _NTIER[row] for row in rows if row in _NTIER}))
    results.update({row: _DIRECT[row]() for row in rows if row in _DIRECT})
    return results


def _serial(rows, runs: dict) -> dict:
    """Serial results of ``rows`` under the current run inputs, kept in
    ``runs`` so that each row simulates once per set of inputs."""
    inputs = run_inputs()
    todo = [row for row in rows if (inputs, row) not in runs]
    for row, result in _run(todo, jobs=1).items():
        runs[inputs, row] = result
    return {row: runs[inputs, row] for row in rows}


def _pin(result, events_from) -> tuple:
    return result_digest(result), events_from.kernel_events, result.report.completed


def _pins(rows, runs: dict) -> dict:
    """``{row: (digest, kernel_events, completed)}`` from serial runs: the
    digest and ``completed`` under the current run inputs, the kernel
    events with ``REPRO_SHARDS`` and ``REPRO_TCP_FASTPATH`` cleared."""
    current = _serial(rows, runs)
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_SHARDS", raising=False)
        patch.delenv("REPRO_TCP_FASTPATH", raising=False)
        default = _serial(rows, runs)
    return {row: _pin(current[row], default[row]) for row in rows}


@pytest.fixture(scope="module")
def runs() -> dict:
    """Serial results by ``(run inputs, row)``."""
    return {}


def check_pins(rows, runs: dict) -> None:
    """Serial runs of ``rows`` must match their rows of ``PINS``."""
    assert _pins(rows, runs) == {row: PINS[row] for row in rows}


def _check_serial(layer, runs: dict) -> None:
    check_pins(LAYERS[layer], runs)


def _check_parallel(layer, runs: dict) -> None:
    """``jobs=4`` must reproduce the serial rows, kernel events included."""
    rows = LAYERS[layer]
    serial = _serial(rows, runs)
    parallel = _run(rows, jobs=4)
    assert {row: _pin(parallel[row], parallel[row]) for row in rows} == {
        row: _pin(serial[row], serial[row]) for row in rows
    }


def test_golden_digests_serial(runs):
    _check_serial(None, runs)


def test_golden_digests_parallel_fanout(runs):
    _check_parallel(None, runs)


@pytest.mark.cache
def test_golden_ntier_cache_digest_serial(runs):
    _check_serial("cache", runs)


@pytest.mark.cache
def test_golden_ntier_cache_digest_parallel(runs):
    _check_parallel("cache", runs)


@pytest.mark.failover
def test_golden_ntier_replica_digest_serial(runs):
    _check_serial("failover", runs)


@pytest.mark.failover
def test_golden_ntier_replica_digest_parallel(runs):
    _check_parallel("failover", runs)


@pytest.mark.cohort
def test_golden_cohort_digest_serial(runs):
    _check_serial("cohort", runs)


@pytest.mark.cohort
def test_golden_cohort_digest_parallel(runs):
    _check_parallel("cohort", runs)


@pytest.mark.dag
def test_golden_dag_digest_serial(runs):
    _check_serial("dag", runs)


@pytest.mark.dag
def test_golden_dag_digest_parallel(runs):
    _check_parallel("dag", runs)


def _changed(value):
    """``value`` with one part changed."""
    if isinstance(value, dict):
        return {**value, "probe": 1}
    if isinstance(value, tuple):
        return value + (1,)
    if isinstance(value, (int, float)):
        return value + 1
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: _changed(getattr(value, first))})
    raise TypeError(f"no change for {value!r}")


def test_every_result_field_is_pinned(runs):
    """Changing any compared field of a recorded result except
    ``config`` (the input) and ``kernel_events`` (its own column) changes
    the digest; changing ``kernel_events`` or an uncompared field does
    not."""
    result = _serial(["chaos"], runs)["chaos"]

    def moves(name):
        changed = dataclasses.replace(result, **{name: _changed(getattr(result, name))})
        return result_digest(changed) != result_digest(result)

    compared = [
        spec.name for spec in dataclasses.fields(result)
        if spec.compare and spec.name not in ("config", "kernel_events")
    ]
    assert [name for name in compared if not moves(name)] == []
    assert not any(moves(name) for name in ("kernel_events", "sim_wall_s", "shard_events"))


if __name__ == "__main__":  # pragma: no cover - table regeneration
    print("PINS = {")
    rows = [row for layer_rows in LAYERS.values() for row in layer_rows]
    rows += list(_DIRECT)
    for row, pin in _pins(rows, {}).items():
        print(f"    {row!r}: {pin!r},")
    print("}")
