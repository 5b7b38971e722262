"""Property-style fan-in bookkeeping: every policy x outcome combination.

The fan-in decision is a pure function over settled branch statuses
(:func:`~repro.dag.runtime.fanin_outcome` /
:func:`~repro.dag.runtime.settle_branches`), so the whole outcome space
is enumerable: for every policy, every fan-out up to 4 and every
combination of branch outcomes (ok / failed-busy / failed-timeout /
failed-rejected / dropped) the bookkeeping invariant

    branch_ok + branch_failed + branch_dropped == fan_out

must hold, degraded must imply success, and a degraded response is
flagged at most once per fan-in evaluation.
"""

import itertools

import pytest

from repro.dag import ServiceNode
from repro.dag.runtime import (
    DagServiceApplication, EdgeRuntime, fanin_outcome, settle_branches,
)
from repro.dag.config import Edge
from repro.sim.core import Environment

pytestmark = pytest.mark.dag

#: Every way one async branch can settle.  ``cancelled`` is the policy
#: cutting a straggler loose (dropped); the middle three are failures.
_OUTCOMES = ("ok", "busy", "timeout", "rejected", "cancelled")
_MAX_FAN_OUT = 4


def _combos(n):
    return itertools.product(_OUTCOMES, repeat=n)


def test_settle_branches_partition_is_exact():
    for n in range(1, _MAX_FAN_OUT + 1):
        for statuses in _combos(n):
            ok, failed, dropped = settle_branches(statuses)
            assert ok + failed + dropped == n
            assert ok == statuses.count("ok")
            assert dropped == statuses.count("cancelled")


def test_wait_all_succeeds_only_when_every_branch_is_ok():
    for n in range(1, _MAX_FAN_OUT + 1):
        for statuses in _combos(n):
            success, degraded = fanin_outcome("wait_all", 0, statuses)
            assert success == all(s == "ok" for s in statuses)
            # wait_all can never respond from partial results.
            assert degraded is False


def test_quorum_succeeds_at_threshold_and_flags_partial_results():
    for n in range(1, _MAX_FAN_OUT + 1):
        for quorum in range(1, n + 1):
            for statuses in _combos(n):
                ok = statuses.count("ok")
                success, degraded = fanin_outcome("quorum", quorum, statuses)
                assert success == (ok >= quorum)
                assert degraded == (success and ok < n)


def test_best_effort_always_succeeds_and_flags_anything_missing():
    for n in range(1, _MAX_FAN_OUT + 1):
        for statuses in _combos(n):
            success, degraded = fanin_outcome("best_effort", 0, statuses)
            assert success is True
            assert degraded == (statuses.count("ok") < n)


def test_degraded_implies_success_for_every_policy():
    for n in range(1, _MAX_FAN_OUT + 1):
        for statuses in _combos(n):
            for policy, quorum in (
                ("wait_all", 0),
                ("quorum", max(1, n - 1)),
                ("best_effort", 0),
            ):
                success, degraded = fanin_outcome(policy, quorum, statuses)
                if degraded:
                    assert success


def test_edge_counters_mirror_the_partition():
    """EdgeRuntime.record() implements the same partition as
    settle_branches, so per-edge counters always sum to the calls made."""
    for statuses in _combos(3):
        runtime = EdgeRuntime("a", Edge("b"), ServiceNode(name="b"))
        for status in statuses:
            runtime.record(status)
        ok, failed, dropped = settle_branches(statuses)
        assert runtime.branch_ok == ok
        assert runtime.branch_failed == failed
        assert runtime.branch_dropped == dropped
        counters = runtime.counters()
        assert counters["edge_a-b_ok"] == float(ok)
        assert counters["edge_a-b_failed"] == float(failed)
        assert counters["edge_a-b_dropped"] == float(dropped)


def test_quorum_join_waits_while_the_pending_branches_can_still_meet_it():
    """Quorum 2 of 3: after one branch fails, the two pending branches are
    exactly enough, so the join must wait for them, not cut them."""
    env = Environment()
    leaves = ("a", "b", "c")
    node = ServiceNode(
        name="compose", edges=tuple(Edge(leaf) for leaf in leaves),
        fan_in="quorum", quorum=2,
    )
    app = DagServiceApplication(node)

    def worker(delay, status):
        yield env.timeout(delay)
        return status, None

    branches = [
        (EdgeRuntime("compose", Edge(leaf), ServiceNode(name=leaf)),
         env.process(worker(delay, status)), env.event())
        for leaf, delay, status in zip(leaves, (0.001, 0.005, 0.005),
                                       ("busy", "ok", "ok"))
    ]

    def compose():
        yield from app._join(env, branches, None)
        return env.now, app._settle(branches)

    joined = env.process(compose())
    env.run()
    assert joined.value == (0.005, ["busy", "ok", "ok"])
