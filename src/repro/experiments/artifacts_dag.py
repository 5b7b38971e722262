"""Service-dependency DAG artifact: fan-out tails and graceful degradation.

The DeathStarBench-style extension of the paper's sync-vs-async question
to DAG-structured backends, in three movements:

* **tail vs fan-out** — an aggregator fans out to ``n`` identical leaf
  services.  With ``async`` edges and ``wait_all`` fan-in the request's
  latency is the *max* of ``n`` branch latencies, so the p99 amplifies
  multiplicatively with fan-out while the mean stays nearly flat; with
  ``sync`` (sequential) edges the mean grows additively instead.  That
  pair of curves is the fan-out tail finding;
* **graceful degradation under gray failure** — a three-branch compose
  node runs the same single-branch :class:`~repro.faults.plan.DegradeWindow`
  (slow-but-alive, nothing ever *fails*) under each fan-in policy.
  ``wait_all`` inherits the slow branch's latency on every request, so
  with client deadlines its goodput collapses; ``quorum(2)`` and
  ``best_effort`` cut the slow branch loose and keep serving *degraded*
  responses — partial results, counted as such — at >= 90% of healthy
  goodput;
* **latency-aware outlier ejection** — a replicated leaf with one gray
  replica.  Consecutive-failure ejection never notices (every request
  succeeds, slowly); the EWMA success-latency comparison ejects the slow
  replica without a single hard failure, and the A/B cell with the
  feature off shows the tail it would otherwise inherit.

Everything is seeded and deterministic regardless of ``--jobs``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.dag import DagConfig, Edge, ServiceNode
from repro.experiments.parallel import SweepExecutor
from repro.experiments.results import ArtifactResult
from repro.faults import DegradeWindow, FaultPlan
from repro.ntier.topology import NTierConfig
from repro.replica import ReplicaConfig
from repro.resilience import ResiliencePolicy
from repro.workload.mixes import FixedMix

__all__ = ["dag_workloads"]

_SEED = 7
_BUCKET = 0.5

#: Fan-out sweep: one aggregator over n identical 200µs leaves whose
#: service time carries lognormal jitter (CV=1) — the branch-latency
#: variability that makes the max-of-n join amplify the tail.
_FANOUTS = (1, 2, 4, 8)
_SWEEP_USERS = 30
_SWEEP_THINK = 0.1
_SWEEP_WARMUP = 1.0
_SWEEP_JITTER = 1.0

#: Gray-failure cells: compose fans out to text/media/graph, the text
#: branch turns slow-but-alive (98% CPU capacity lost → 50x service
#: time) mid-run while clients carry a 50ms deadline.
_FANIN_USERS = 80
_FANIN_THINK = 0.05
_FANIN_WARMUP = 1.5
_GRAY_START = 2.0
_GRAY_END = 5.0
_GRAY_SHARE = 0.98
_DEADLINE = 0.05
_QUORUM = 2
_BEST_EFFORT_TIMEOUT = 0.005

#: Ejection cells: a three-replica ranker leaf with one gray replica
#: (90% capacity lost) and round-robin routing.
_EJECT_USERS = 40
_EJECT_THINK = 0.1
_EJECT_WARMUP = 1.0
_EJECT_GRAY_START = 1.5
_EJECT_GRAY_END = 4.5
_EJECT_GRAY_SHARE = 0.9
_LATENCY_EJECT = ReplicaConfig(
    replicas=3,
    policy="round_robin",
    latency_factor=3.0,
    latency_min_samples=10,
    ejection_duration=0.5,
    ejection_backoff=2.0,
    ejection_max_duration=2.0,
)


def _fanout_dag(n: int, mode: str) -> DagConfig:
    leaves = tuple(
        ServiceNode(
            name=f"svc{i}",
            service_cpu=200.0e-6,
            service_jitter=_SWEEP_JITTER,
        )
        for i in range(n)
    )
    entry = ServiceNode(
        name="aggregator",
        edges=tuple(Edge(f"svc{i}", mode=mode) for i in range(n)),
        fan_in="wait_all",
        service_cpu=100.0e-6,
    )
    return DagConfig(entry="aggregator", nodes=(entry,) + leaves)


def _fanout_config(n: int, mode: str, scale: float) -> NTierConfig:
    return NTierConfig(
        tomcat_variant="async",
        users=_SWEEP_USERS,
        think_mean=_SWEEP_THINK,
        duration=_SWEEP_WARMUP + max(2.0, 4.0 * scale),
        warmup=_SWEEP_WARMUP,
        mix=FixedMix(2048),
        dag=_fanout_dag(n, mode),
        seed=_SEED,
    )


def _fanin_dag(policy: str) -> DagConfig:
    nodes = (
        ServiceNode(
            name="compose",
            edges=(Edge("text"), Edge("media"), Edge("graph")),
            fan_in=policy,
            quorum=_QUORUM,
            best_effort_timeout=_BEST_EFFORT_TIMEOUT,
            service_cpu=100.0e-6,
        ),
        ServiceNode(name="text", service_cpu=200.0e-6),
        ServiceNode(name="media", service_cpu=200.0e-6),
        ServiceNode(name="graph", service_cpu=200.0e-6),
    )
    return DagConfig(entry="compose", nodes=nodes)


def _fanin_config(policy: str, gray: bool) -> NTierConfig:
    plan = FaultPlan()
    if gray:
        # Fault-target index 1 is the first leaf in declaration order
        # (compose=0, text=1): the text branch goes gray.
        plan = FaultPlan(degrade_windows=(
            DegradeWindow(_GRAY_START, _GRAY_END, instance=1,
                          share=_GRAY_SHARE),
        ))
    return NTierConfig(
        tomcat_variant="async",
        users=_FANIN_USERS,
        think_mean=_FANIN_THINK,
        duration=_GRAY_END + 0.5,
        warmup=_FANIN_WARMUP,
        mix=FixedMix(2048),
        dag=_fanin_dag(policy),
        fault_plan=plan,
        resilience=ResiliencePolicy(deadline=_DEADLINE),
        timeline_bucket=_BUCKET,
        seed=_SEED,
    )


def _eject_dag(config: Optional[ReplicaConfig]) -> DagConfig:
    nodes = (
        ServiceNode(
            name="gateway",
            edges=(Edge("ranker"), Edge("profile")),
            fan_in="wait_all",
            service_cpu=100.0e-6,
        ),
        ServiceNode(name="ranker", service_cpu=200.0e-6, replica=config),
        ServiceNode(name="profile", service_cpu=200.0e-6),
    )
    return DagConfig(entry="gateway", nodes=nodes)


def _eject_config(replica: Optional[ReplicaConfig]) -> NTierConfig:
    return NTierConfig(
        tomcat_variant="async",
        users=_EJECT_USERS,
        think_mean=_EJECT_THINK,
        duration=_EJECT_GRAY_END + 1.0,
        warmup=_EJECT_WARMUP,
        mix=FixedMix(2048),
        dag=_eject_dag(replica),
        # Fault targets flatten per node in declaration order: gateway=0,
        # then the ranker replicas (1..3), then profile — index 1 is
        # ranker replica 0.
        fault_plan=FaultPlan(degrade_windows=(
            DegradeWindow(_EJECT_GRAY_START, _EJECT_GRAY_END, instance=1,
                          share=_EJECT_GRAY_SHARE),
        )),
        timeline_bucket=_BUCKET,
        seed=_SEED,
    )


def dag_workloads(
    scale: float = 1.0, jobs: Optional[int] = None
) -> ArtifactResult:
    """DAG fan-out tails, fan-in policies under gray failure, and
    latency-aware outlier ejection."""
    result = ArtifactResult(
        artifact="dag",
        title="Service-dependency DAG: p99 amplification vs fan-out, "
        "fan-in policies under a single-branch gray failure, and "
        "latency-aware outlier ejection of a slow-but-alive replica",
        paper_claim="Extension beyond the paper (DeathStarBench fan-out "
        "finding): with async edges and wait_all fan-in the p99 grows "
        "multiplicatively with fan-out while the mean stays flat (sync "
        "edges grow the mean additively instead); a single-branch gray "
        "failure collapses wait_all goodput under client deadlines while "
        "quorum/best_effort shed the slow branch and keep >= 90% of "
        "healthy goodput as counted degraded responses; EWMA latency "
        "comparison ejects a slow-but-succeeding replica that "
        "consecutive-failure ejection can never catch",
        headers=[
            "cell",
            "rps",
            "mean ms",
            "p99 ms",
            "degraded",
            "fanin fails",
            "br ok",
            "br fail",
            "br drop",
        ],
    )
    # The tuned seed *is* the scenario (collapse/recovery thresholds were
    # validated against it), so sweep-key seed derivation stays off.
    sweep = SweepExecutor("dag", scale=scale, jobs=jobs, derive_seeds=False)
    cells: Dict[tuple, NTierConfig] = {}
    for mode in ("async", "sync"):
        for n in _FANOUTS:
            cells[("fanout", mode, n)] = _fanout_config(n, mode, scale)
    for policy in ("wait_all", "quorum", "best_effort"):
        cells[("fanin", policy, "healthy")] = _fanin_config(policy, False)
        cells[("fanin", policy, "gray")] = _fanin_config(policy, True)
    cells[("eject", "latency")] = _eject_config(_LATENCY_EJECT)
    cells[("eject", "off")] = _eject_config(
        replace(_LATENCY_EJECT, latency_factor=0.0)
    )
    runs = sweep.map_ntier(cells)

    def edge_sums(stats: Dict[str, float]) -> Dict[str, int]:
        return {
            suffix: int(sum(
                v for k, v in stats.items()
                if k.startswith("edge_") and k.endswith(f"_{suffix}")
            ))
            for suffix in ("ok", "failed", "dropped")
        }

    p99: Dict[tuple, float] = {}
    mean: Dict[tuple, float] = {}
    for key, run in runs.items():
        stats = run.dag_stats
        branches = edge_sums(stats)
        p99[key] = 1e3 * run.report.response_time_p99
        mean[key] = 1e3 * run.report.response_time_mean
        result.add_row(
            " ".join(str(part) for part in key),
            run.report.throughput,
            mean[key],
            p99[key],
            int(stats.get("dag_requests_degraded", 0)),
            int(stats.get("dag_fanin_failures", 0)),
            branches["ok"],
            branches["failed"],
            branches["dropped"],
        )
        result.add_counter("dag_requests", stats.get("dag_requests", 0.0))
        result.add_counter("dag_requests_degraded",
                           stats.get("dag_requests_degraded", 0.0))
        if key[0] in ("fanin", "eject"):
            result.add_run_counters(run)

    async1 = ("fanout", "async", _FANOUTS[0])
    async_max = ("fanout", "async", _FANOUTS[-1])
    sync1 = ("fanout", "sync", _FANOUTS[0])
    sync_max = ("fanout", "sync", _FANOUTS[-1])
    steps_up = all(
        p99[("fanout", "async", b)] >= 0.95 * p99[("fanout", "async", a)]
        for a, b in zip(_FANOUTS, _FANOUTS[1:])
    )
    result.check(
        "async wait_all: p99 amplifies multiplicatively with fan-out "
        f"(p99 at n={_FANOUTS[-1]} >= 1.3x n={_FANOUTS[0]}, "
        "non-decreasing along the sweep)",
        steps_up and p99[async_max] >= 1.3 * p99[async1],
        "p99 " + " -> ".join(
            f"{p99[('fanout', 'async', n)]:.2f}ms" for n in _FANOUTS
        ),
    )
    result.check(
        "async wait_all: the mean stays flat while the tail grows "
        f"(mean at n={_FANOUTS[-1]} <= 2x n={_FANOUTS[0]}; the tail "
        "amplification is not mean inflation)",
        mean[async_max] <= 2.0 * mean[async1],
        f"mean {mean[async1]:.2f}ms -> {mean[async_max]:.2f}ms",
    )
    result.check(
        "sync edges: latency grows additively with fan-out "
        f"(mean at n={_FANOUTS[-1]} >= 2.5x n={_FANOUTS[0]}) and async "
        "fan-out beats it by overlapping the branches",
        mean[sync_max] >= 2.5 * mean[sync1]
        and mean[async_max] <= 0.6 * mean[sync_max],
        f"sync mean {mean[sync1]:.2f}ms -> {mean[sync_max]:.2f}ms vs "
        f"async {mean[async_max]:.2f}ms at n={_FANOUTS[-1]}",
    )

    healthy: Dict[str, float] = {}
    gray: Dict[str, float] = {}
    for policy in ("wait_all", "quorum", "best_effort"):
        healthy[policy] = runs[("fanin", policy, "healthy")].goodput_rate(
            _GRAY_START, _GRAY_END
        )
        gray[policy] = runs[("fanin", policy, "gray")].goodput_rate(
            _GRAY_START, _GRAY_END
        )
    result.check(
        "wait_all: the single-branch gray failure collapses goodput "
        "(<= 60% of the healthy rate through the degrade window — every "
        "response waits for the slow branch and deadlines expire)",
        gray["wait_all"] <= 0.6 * healthy["wait_all"],
        f"{gray['wait_all']:.0f} vs {healthy['wait_all']:.0f} rps "
        f"through the {_GRAY_END - _GRAY_START:g}s window",
    )
    quorum_stats = runs[("fanin", "quorum", "gray")].dag_stats
    result.check(
        "quorum(2/3): recovers >= 90% of healthy goodput with degraded "
        "responses counted and zero fan-in failures",
        gray["quorum"] >= 0.9 * healthy["quorum"]
        and quorum_stats.get("dag_requests_degraded", 0) > 0
        and quorum_stats.get("dag_fanin_failures", 0) == 0,
        f"{gray['quorum']:.0f}/{healthy['quorum']:.0f} rps, "
        f"{quorum_stats.get('dag_requests_degraded', 0):.0f} degraded",
    )
    be_stats = runs[("fanin", "best_effort", "gray")].dag_stats
    result.check(
        f"best_effort({1e3 * _BEST_EFFORT_TIMEOUT:g}ms): recovers >= 90% "
        "of healthy goodput, dropping the slow branch past the timeout",
        gray["best_effort"] >= 0.9 * healthy["best_effort"]
        and be_stats.get("dag_requests_degraded", 0) > 0,
        f"{gray['best_effort']:.0f}/{healthy['best_effort']:.0f} rps, "
        f"{be_stats.get('dag_requests_degraded', 0):.0f} degraded",
    )

    eject_run = runs[("eject", "latency")]
    eject_stats = eject_run.dag_stats
    noeject_run = runs[("eject", "off")]
    hard_failures = (
        eject_run.report.failed
        + eject_run.report.rejected
        + edge_sums(eject_stats)["failed"]
        + int(eject_stats.get("ranker_lb_ejections", 0))
    )
    result.check(
        "latency-aware ejection removes the gray replica without a "
        "single hard failure (every request succeeded; zero "
        "consecutive-failure ejections)",
        eject_stats.get("ranker_lb_latency_ejections", 0) >= 1
        and hard_failures == 0,
        f"{eject_stats.get('ranker_lb_latency_ejections', 0):.0f} latency "
        f"ejections, {hard_failures} hard failures",
    )
    result.check(
        "with the feature off the gray replica stays in rotation and the "
        "p99 inherits its slowness (>= 2x the ejected cell's p99)",
        noeject_run.report.response_time_p99
        >= 2.0 * eject_run.report.response_time_p99,
        f"{1e3 * noeject_run.report.response_time_p99:.1f}ms vs "
        f"{1e3 * eject_run.report.response_time_p99:.1f}ms",
    )

    result.note(
        f"fan-out sweep: {_SWEEP_USERS} users, think ~{_SWEEP_THINK:g}s, "
        "one aggregator (100µs) over n identical 200µs leaves with "
        f"lognormal service jitter (CV={_SWEEP_JITTER:g}), wait_all "
        "fan-in; async cells fan out one worker thread per edge, sync "
        "cells issue the same calls sequentially"
    )
    result.note(
        f"gray-failure cells: {_FANIN_USERS} users with a "
        f"{1e3 * _DEADLINE:g}ms deadline; the text branch loses "
        f"{_GRAY_SHARE:.0%} of its CPU capacity (slow-but-alive, nothing "
        f"fails) for t=[{_GRAY_START:g},{_GRAY_END:g}]s; rates compare "
        "the degrade window of the gray run against the same window of "
        "an identically-seeded healthy run"
    )
    result.note(
        f"ejection cells: ranker runs {_LATENCY_EJECT.replicas} replicas "
        f"round-robin; replica 0 loses {_EJECT_GRAY_SHARE:.0%} capacity "
        f"for t=[{_EJECT_GRAY_START:g},{_EJECT_GRAY_END:g}]s; ejection "
        f"fires when a replica's success-latency EWMA exceeds "
        f"{_LATENCY_EJECT.latency_factor:g}x the peer median "
        f"(>= {_LATENCY_EJECT.latency_min_samples} samples)"
    )
    return result
