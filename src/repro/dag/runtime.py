"""DAG request execution: edge calls, fan-out workers, fan-in policies.

Each :class:`~repro.dag.config.ServiceNode` is served by a
:class:`DagServiceApplication`.  Per request it runs the node's own CPU
work, fans out one worker thread per ``async`` edge (the hedging idiom
of :class:`~repro.ntier.applications.ProxyApplication`:
:func:`~repro.ntier.applications.on_worker_thread` per branch so the
downstream calls genuinely overlap, mod CPU contention), issues
``sync`` edges sequentially on the caller's own worker thread, and
finally joins the async branches under the node's fan-in policy.  Every
edge call is the chain's :func:`~repro.ntier.applications.route` plus
:func:`~repro.ntier.applications.call_downstream`.

Branch bookkeeping is exact by construction: every async branch is
settled exactly once — either with the status its worker returned, or as
``"cancelled"`` when the fan-in policy cut it loose — so
``branch_ok + branch_failed + branch_dropped == fan_out`` for every
request, no matter which policy ran or how the branches resolved.  The
policy decision itself is a pure function (:func:`fanin_outcome`) over
the settled statuses, which is what the property tests exercise.

A cancelled branch records **no** breaker or balancer outcome (same rule
as a cancelled hedge attempt: it was abandoned, not judged), and its
connection is closed so the pool evicts it.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from repro.dag.config import Edge, ServiceNode
from repro.net.messages import Request
from repro.ntier.applications import (
    _reject, call_downstream, expired_failure, forward, on_worker_thread, route,
)
from repro.replica.group import ReplicaGroup
from repro.servers.base import Application, BaseServer

__all__ = [
    "settle_branches",
    "fanin_outcome",
    "EdgeRuntime",
    "DagServiceApplication",
]


def settle_branches(statuses) -> Tuple[int, int, int]:
    """Classify settled branch statuses into ``(ok, failed, dropped)``.

    ``"ok"`` is a success, ``"cancelled"`` is a branch the fan-in policy
    cut loose (dropped), and everything else — ``"busy"``,
    ``"timeout"``, ``"rejected"`` — is a failure.  The three always sum
    to ``len(statuses)``.
    """
    ok = sum(1 for s in statuses if s == "ok")
    dropped = sum(1 for s in statuses if s == "cancelled")
    return ok, len(statuses) - ok - dropped, dropped


def fanin_outcome(policy: str, quorum: int, statuses) -> Tuple[bool, bool]:
    """Pure fan-in decision: ``(success, degraded)`` for settled branches.

    * ``wait_all`` succeeds only when every branch is ``"ok"`` (so it can
      never be degraded);
    * ``quorum`` succeeds when at least ``quorum`` branches are ``"ok"``,
      degraded when any other branch failed or was dropped;
    * ``best_effort`` always succeeds — the response is composed from
      whatever arrived — and is degraded when anything is missing.

    A degraded response is a *successful* response built from partial
    results; it is flagged at most once per fan-in evaluation.
    """
    ok, _failed, _dropped = settle_branches(statuses)
    total = len(statuses)
    if policy == "wait_all":
        success = ok == total
    elif policy == "quorum":
        success = ok >= quorum
    else:  # best_effort
        success = True
    return success, success and ok < total


class EdgeRuntime:
    """One configured edge bound to its live target: pool(s) + counters.

    Built by :func:`~repro.dag.build.build_dag_system`.  A single-instance
    target gets one connection pool (with the edge's named breaker,
    ``<source>-<target>``); a replicated leaf target gets a
    :class:`~repro.replica.group.ReplicaGroup` whose members each carry
    their own upstream pool and breaker (``<source>-<target><i>``).
    Either way a call is the chain's
    :func:`~repro.ntier.applications.route` plus
    :func:`~repro.ntier.applications.call_downstream`, with the same
    breaker and balancer accounting as Apache's proxy — including the
    measured success latency the balancer's latency-aware outlier
    ejection feeds on.
    """

    def __init__(self, source: str, edge: Edge, target: ServiceNode):
        self.source = source
        self.edge = edge
        self.target = target
        #: Single-instance pool (exactly one of pool/group is set).
        self.pool = None
        #: Replica group for a replicated leaf target.
        self.group: Optional[ReplicaGroup] = None
        #: Branch outcomes over the run (ok + failed + dropped = calls).
        self.branch_ok = 0
        self.branch_failed = 0
        self.branch_dropped = 0

    @property
    def name(self) -> str:
        return f"{self.source}-{self.edge.target}"

    def record(self, status: str) -> None:
        """Settle one branch outcome into the edge's counters."""
        if status == "ok":
            self.branch_ok += 1
        elif status == "cancelled":
            self.branch_dropped += 1
        else:
            self.branch_failed += 1

    def pools(self) -> list:
        """Every upstream pool this edge owns (deterministic order)."""
        if self.group is not None:
            return [replica.pool for replica in self.group.replicas]
        return [self.pool]

    def counters(self) -> dict:
        """Per-edge branch counters for result reports."""
        return {
            f"edge_{self.name}_ok": float(self.branch_ok),
            f"edge_{self.name}_failed": float(self.branch_failed),
            f"edge_{self.name}_dropped": float(self.branch_dropped),
        }

    def call(self, server: BaseServer, thread, request: Request,
             deadline: Optional[float], cancel=None):
        """One downstream call over this edge; returns ``(status, downstream)``.

        Generator (``yield from``).  Statuses are the
        :func:`~repro.ntier.applications.call_downstream` vocabulary, plus
        ``"rejected"`` with no downstream when every breaker refused.  The
        caller settles the outcome into the edge counters exactly once
        via :meth:`record`.
        """
        routed = route(self.pool if self.group is None else self.group)
        if routed is None:
            return "rejected", None
        make_downstream = forward(
            request, self.target.response_size, self.edge.request_size, deadline
        )
        return (
            yield from call_downstream(
                server, thread, routed, make_downstream, deadline, cancel
            )
        )


class DagServiceApplication(Application):
    """Serve one DAG node: own CPU work, fan-out, fan-in, degradation."""

    def __init__(self, node: ServiceNode, edges: Tuple[EdgeRuntime, ...] = (),
                 rng: Optional[random.Random] = None):
        self.node = node
        self.edges = tuple(edges)
        #: Seeded per-node stream for service-time jitter; only drawn
        #: when ``service_jitter > 0`` so jitter-free nodes stay
        #: bit-identical with or without an rng attached.
        self.rng = rng
        if node.service_jitter > 0.0:
            # Lognormal multiplier with mean 1 and CV = service_jitter:
            # sigma^2 = ln(1 + cv^2), mu = -sigma^2/2.
            sigma = math.sqrt(math.log(1.0 + node.service_jitter ** 2))
            self._jitter_mu = -0.5 * sigma * sigma
            self._jitter_sigma = sigma
        self.sync_edges = tuple(e for e in self.edges if e.edge.mode == "sync")
        self.async_edges = tuple(e for e in self.edges if e.edge.mode == "async")
        #: Requests that passed admission and this node's deadline gate.
        self.requests = 0
        #: Successful responses composed from partial fan-in results.
        self.degraded = 0
        #: Requests the fan-in policy failed (quorum unreachable, or a
        #: wait_all branch failed).
        self.fanin_failures = 0
        #: Deterministic per-request sequence (names branch threads/procs).
        self._seq = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _settle(branches) -> List[str]:
        """Settle every branch exactly once; returns their statuses.

        A triggered worker contributes the status it returned; a pending
        worker is cancelled (its in-flight call unwinds through the
        ``cancel`` event, closing its connection) and settles as
        ``"cancelled"`` without being waited for — same fire-and-forget
        the hedging path uses for its losers.
        """
        statuses = []
        for runtime, proc, cancel in branches:
            if proc.triggered:
                status = proc.value[0]
            else:
                cancel.succeed()
                status = "cancelled"
            runtime.record(status)
            statuses.append(status)
        return statuses

    @staticmethod
    def _expired(branches, statuses) -> bool:
        """Whether any settled branch pins the failure on a deadline."""
        return any(
            expired_failure(status, proc.value[1] if proc.triggered else None)
            for (_, proc, _), status in zip(branches, statuses)
        )

    # ------------------------------------------------------------------
    def service(self, server: BaseServer, thread, request: Request):
        env = server.env
        # The node's own work (parse, business logic, compose).
        work = self.node.service_cpu
        if self.node.service_jitter > 0.0:
            work *= self.rng.lognormvariate(
                self._jitter_mu, self._jitter_sigma
            )
        yield thread.run(work)
        deadline = request.deadline
        if deadline is not None and env.now >= deadline:
            return _reject(request, expired=True)
        self.requests += 1
        if not self.edges:
            return request.response_size

        # Fan out: one worker thread per async edge, spawned before the
        # sync edges run so async branches overlap the blocking calls.
        self._seq += 1
        seq = self._seq
        branches = []
        for b, runtime in enumerate(self.async_edges):
            cancel = env.event()
            label = f"dag-{self.node.name}-{seq}-{b}"
            proc = env.process(
                on_worker_thread(server, label, runtime.call, request,
                                 deadline, cancel),
                name=label,
            )
            branches.append((runtime, proc, cancel))
        # The best-effort clock starts at fan-out, not at join: a node
        # whose sync edges are slow does not grant its async branches
        # extra time.  Expiry is judged against this absolute cutoff, and
        # the join arms a fresh remaining-time timer per wait — a Timeout
        # in this kernel is "triggered" at construction, and one that
        # loses an any_of race is lazily cancelled and may be tombstoned
        # as processed before its fire time, so a single shared timer
        # object cannot be trusted across waits.
        cutoff = None
        if branches and self.node.fan_in == "best_effort":
            cutoff = env.now + self.node.best_effort_timeout

        # Sync edges: the caller's worker thread blocks on each in turn
        # (JDBC-style); any failure fails the whole request.
        for runtime in self.sync_edges:
            status, downstream = yield from runtime.call(
                server, thread, request, deadline
            )
            runtime.record(status)
            if status != "ok":
                self._settle(branches)
                return _reject(
                    request, expired=expired_failure(status, downstream)
                )

        # Fan-in join under the node's policy.
        if branches:
            yield from self._join(env, branches, cutoff)
            statuses = self._settle(branches)
            success, is_degraded = fanin_outcome(
                self.node.fan_in, self.node.quorum, statuses
            )
            if is_degraded:
                self.degraded += 1
                request.metadata["degraded"] = True
            if not success:
                self.fanin_failures += 1
                return _reject(request, expired=self._expired(branches, statuses))
        return request.response_size

    def _join(self, env, branches, cutoff):
        """Wait until the fan-in policy can settle the branches.

        ``wait_all`` waits for every worker (success and latency are
        decided by the slowest branch — the multiplicative-p99 shape);
        ``quorum`` returns as soon as the quorum is met *or* provably
        unreachable; ``best_effort`` returns when everything resolved or
        the cutoff passed.  Pending workers are cancelled by the caller's
        settle pass.
        """
        policy = self.node.fan_in
        while True:
            pending = [proc for _, proc, _ in branches if not proc.triggered]
            if not pending:
                return
            if policy == "quorum":
                ok = sum(
                    1 for _, proc, _ in branches
                    if proc.triggered and proc.value[0] == "ok"
                )
                if ok >= self.node.quorum:
                    return
                if ok + len(pending) < self.node.quorum:
                    return  # unreachable: fail now, cancel the rest
            elif policy == "best_effort":
                if env.now >= cutoff:
                    return
                yield env.any_of(pending + [env.timeout(cutoff - env.now)])
                continue
            yield env.any_of(pending)
