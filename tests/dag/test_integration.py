"""End-to-end DAG runs: bookkeeping, degradation, composition.

Short seeded n-tier runs through ``run_ntier`` with a DAG topology
attached, asserting the run-level contracts the pure-function tests
cannot see: per-edge branch counters summing to the fan-out actually
issued, degraded responses counted exactly once per request, gray
failures degrading quorum/best-effort runs without failing them, and
the per-edge breakers registering under their ``<source>-<target>``
names.
"""

import pytest

from repro.dag import DagConfig, Edge, ServiceNode
from repro.faults import DegradeWindow, FaultPlan
from repro.ntier.topology import NTierConfig, run_ntier
from repro.resilience import BreakerConfig, ResiliencePolicy
from repro.workload.mixes import FixedMix

pytestmark = pytest.mark.dag


def _three_leaf(policy, **node_overrides):
    return DagConfig(
        entry="compose",
        nodes=(
            ServiceNode(
                name="compose",
                edges=(Edge("text"), Edge("media"), Edge("graph")),
                fan_in=policy,
                service_cpu=100.0e-6,
                **node_overrides,
            ),
            ServiceNode(name="text", service_cpu=200.0e-6),
            ServiceNode(name="media", service_cpu=200.0e-6),
            ServiceNode(name="graph", service_cpu=200.0e-6),
        ),
    )


def _run(dag, *, fault_plan=None, resilience=None, users=20, duration=1.5,
         seed=7):
    return run_ntier(NTierConfig(
        tomcat_variant="async",
        users=users,
        think_mean=0.05,
        duration=duration,
        warmup=0.3,
        mix=FixedMix(2048),
        dag=dag,
        fault_plan=fault_plan or FaultPlan(),
        resilience=resilience,
        seed=seed,
    ))


#: One gray leaf: the text branch loses 98% of its CPU mid-run.
_GRAY = FaultPlan(degrade_windows=(
    DegradeWindow(start=0.5, end=1.2, instance=1, share=0.98),
))


def _edge_totals(stats, edge):
    return tuple(
        stats[f"edge_{edge}_{suffix}"] for suffix in ("ok", "failed", "dropped")
    )


def test_wait_all_branch_bookkeeping_is_exact():
    result = _run(_three_leaf("wait_all"))
    stats = result.dag_stats
    assert stats["dag_requests"] > 0
    assert result.report.completed > 0
    # Every request that fanned out settled each edge exactly once, so
    # the three edges' totals are identical and each sums to the same
    # fan-out count.
    totals = [
        _edge_totals(stats, f"compose-{leaf}")
        for leaf in ("text", "media", "graph")
    ]
    assert len({sum(t) for t in totals}) == 1
    assert sum(totals[0]) >= stats["dag_requests"] - 1
    # A healthy run never fails or drops a branch under wait_all.
    assert all(t[1] == 0 and t[2] == 0 for t in totals)
    assert stats["dag_requests_degraded"] == 0
    assert stats["dag_fanin_failures"] == 0


def test_gray_failure_degrades_quorum_but_fails_nothing():
    result = _run(_three_leaf("quorum", quorum=2), fault_plan=_GRAY,
                  resilience=ResiliencePolicy(deadline=0.05))
    stats = result.dag_stats
    assert result.faults.degrade_windows == 1
    assert stats["dag_requests_degraded"] > 0
    assert stats["dag_fanin_failures"] == 0
    # The slow branch was dropped, not failed: quorum cancelled it.
    ok, failed, dropped = _edge_totals(stats, "compose-text")
    assert dropped > 0
    assert failed == 0
    # Degraded responses are still successes.
    assert result.report.failed == 0


def test_gray_failure_fails_wait_all_requests():
    result = _run(_three_leaf("wait_all"), fault_plan=_GRAY,
                  resilience=ResiliencePolicy(deadline=0.05))
    stats = result.dag_stats
    # wait_all cannot degrade; the slow branch's deadline expiries are
    # fan-in failures.
    assert stats["dag_requests_degraded"] == 0
    assert stats["dag_fanin_failures"] > 0
    assert result.report.failed > 0


def test_best_effort_cuts_stragglers_at_the_timeout():
    result = _run(
        _three_leaf("best_effort", best_effort_timeout=0.005),
        fault_plan=_GRAY,
    )
    stats = result.dag_stats
    assert stats["dag_requests_degraded"] > 0
    assert stats["dag_fanin_failures"] == 0
    ok, failed, dropped = _edge_totals(stats, "compose-text")
    assert dropped > 0


def test_degraded_responses_counted_at_most_once_per_request():
    result = _run(_three_leaf("quorum", quorum=2), fault_plan=_GRAY,
                  resilience=ResiliencePolicy(deadline=0.05))
    stats = result.dag_stats
    assert stats["dag_requests_degraded"] <= stats["dag_requests"]


def test_per_edge_breakers_register_under_edge_names():
    result = _run(
        _three_leaf("wait_all"),
        resilience=ResiliencePolicy(breaker=BreakerConfig(open_duration=0.2)),
    )
    for leaf in ("text", "media", "graph"):
        assert f"compose-{leaf}_opens" in result.resilience


def test_sync_edges_and_service_jitter_compose():
    dag = DagConfig(
        entry="front",
        nodes=(
            ServiceNode(
                name="front",
                edges=(Edge("fast"), Edge("store", mode="sync")),
                fan_in="wait_all",
                service_cpu=100.0e-6,
            ),
            ServiceNode(name="fast", service_cpu=150.0e-6,
                        service_jitter=1.0),
            ServiceNode(name="store", service_cpu=150.0e-6),
        ),
    )
    result = _run(dag)
    stats = result.dag_stats
    assert result.report.completed > 0
    # The sync edge settles once per request too.
    assert sum(_edge_totals(stats, "front-store")) >= stats["dag_requests"] - 1
    # Jitter widens the distribution but must not change the totals:
    # same seed, same request count as a jitter-free clone.
    smooth = _run(DagConfig(
        entry="front",
        nodes=(
            dag.nodes[0],
            ServiceNode(name="fast", service_cpu=150.0e-6),
            dag.nodes[2],
        ),
    ))
    assert smooth.report.response_time_p99 != result.report.response_time_p99


def test_server_stats_report_every_node():
    # Server counters are only gathered for runs with fault/resilience
    # machinery attached (same rule as the linear chain).
    result = _run(_three_leaf("wait_all"),
                  resilience=ResiliencePolicy(deadline=0.5))
    for node in ("compose", "text", "media", "graph"):
        assert any(k.startswith(node) for k in result.server_stats), node
