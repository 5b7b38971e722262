"""Frozen configuration for service-dependency DAGs.

Follows the contract every optional layer in this repo obeys
(:mod:`repro.cache.config` is the template): frozen value objects that
hash into sweep cache keys and golden-digest configs.  A run builds the
DAG exactly when it carries a :class:`DagConfig`; without one it builds
the classic linear three-tier topology.

A :class:`DagConfig` declares a microservice call graph: each
:class:`ServiceNode` is one server + CPU slice, each :class:`Edge` a
pooled downstream call.  Edges are ``sync`` (the caller's worker thread
blocks on them sequentially, JDBC-style) or ``async`` (each call runs on
its own worker thread and the declared fan-in policy joins the
branches).  :meth:`DagConfig.validate` rejects cycles, dangling edges
and nonsensical fan-in settings before a run starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.replica.config import ReplicaConfig

__all__ = [
    "Edge",
    "ServiceNode",
    "DagConfig",
    "FAN_IN_POLICIES",
]

#: Fan-in policies joining a node's async branches (see
#: :mod:`repro.dag.runtime` for their exact semantics).
FAN_IN_POLICIES = ("wait_all", "quorum", "best_effort")


@dataclass(frozen=True)
class Edge:
    """One pooled downstream call from a node to another node.

    ``sync`` edges are issued sequentially by the caller's own worker
    thread (it blocks until the full response arrives, like a JDBC
    query); ``async`` edges each run on their own worker thread so the
    calls genuinely overlap, and the owning node's fan-in policy decides
    when the request may respond.  Every edge gets its own connection
    pool toward the target (and, when the run carries a breaker config,
    its own named circuit breaker ``<source>-<target>``); deadlines
    propagate onto the downstream request unchanged.
    """

    #: Name of the target :class:`ServiceNode`.
    target: str
    #: ``"sync"`` or ``"async"``.
    mode: str = "async"
    #: Connections in this edge's pool toward the target.
    pool: int = 8
    #: Request size of the downstream call in bytes.
    request_size: int = 512


@dataclass(frozen=True)
class ServiceNode:
    """One microservice: a server + CPU slice plus its outgoing edges."""

    name: str
    #: Outgoing downstream calls, issued per serviced request.
    edges: Tuple[Edge, ...] = ()
    #: How async branches join: ``"wait_all"`` (every branch must
    #: succeed), ``"quorum"`` (respond once ``quorum`` branches
    #: succeeded; stragglers are cancelled and counted as dropped) or
    #: ``"best_effort"`` (respond with whatever resolved within
    #: ``best_effort_timeout`` seconds of the fan-out; the response is
    #: *degraded* when any branch failed or was dropped).
    fan_in: str = "wait_all"
    #: Successful async branches required under ``fan_in="quorum"``.
    quorum: int = 0
    #: Seconds best-effort fan-in waits before cutting stragglers loose.
    best_effort_timeout: float = 0.050
    #: CPU seconds of the node's own work per request (parse, compose).
    service_cpu: float = 200.0e-6
    #: Coefficient of variation of the node's service time.  ``0`` keeps
    #: the work deterministic at ``service_cpu``; a positive value draws
    #: a lognormal multiplier with mean 1 and this CV from the node's
    #: own seeded stream — the branch-latency variability that makes a
    #: fanned-out request's tail amplify with fan-out (latency = max of
    #: the branches), the tail-at-scale mechanism.
    service_jitter: float = 0.0
    #: Response size of the node's downstream-facing replies in bytes.
    response_size: int = 2048
    #: Replicated deployment of this node (leaf nodes only; each
    #: instance gets its own CPU, server and upstream pool, and the
    #: owning edge routes across them through a
    #: :class:`~repro.replica.group.LoadBalancer`).  ``None`` means one
    #: instance.
    replica: Optional["ReplicaConfig"] = None

    @property
    def fan_out(self) -> int:
        """Number of async branches this node joins per request."""
        return sum(1 for edge in self.edges if edge.mode == "async")


@dataclass(frozen=True)
class DagConfig:
    """A declarative service-dependency DAG replacing the linear chain."""

    #: Name of the node clients connect to.
    entry: str
    #: Every service node, in declaration order (construction order is
    #: derived from it deterministically, so it participates in digests).
    nodes: Tuple[ServiceNode, ...] = ()

    def node(self, name: str) -> ServiceNode:
        """Look up one node by name (validated configs always hit)."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise ExperimentError(f"unknown DAG node {name!r}")

    def validate(self) -> "DagConfig":
        """Raise :class:`ExperimentError` on malformed graphs.

        Checks: unique node names, a known entry, edges that reference
        existing *other* nodes, acyclicity, fan-in parameter sanity
        (quorum within the async fan-out, positive best-effort timeout)
        and replication restricted to leaf nodes with exactly one
        upstream edge (a replicated node with its own downstream edges
        would need per-instance downstream pools, which this layer
        deliberately does not model).
        """
        names = [node.name for node in self.nodes]
        if not names:
            raise ExperimentError("a DagConfig needs at least one node")
        if len(set(names)) != len(names):
            raise ExperimentError(f"duplicate DAG node names in {names}")
        known = set(names)
        if self.entry not in known:
            raise ExperimentError(
                f"entry node {self.entry!r} is not one of {sorted(known)}"
            )
        upstreams: Dict[str, int] = {name: 0 for name in names}
        for node in self.nodes:
            targets = [edge.target for edge in node.edges]
            if len(set(targets)) != len(targets):
                raise ExperimentError(
                    f"node {node.name!r} has duplicate edges in {targets}"
                )
            for edge in node.edges:
                if edge.target == node.name:
                    raise ExperimentError(
                        f"node {node.name!r} has an edge to itself"
                    )
                if edge.target not in known:
                    raise ExperimentError(
                        f"node {node.name!r} has an edge to unknown node "
                        f"{edge.target!r}"
                    )
                if edge.mode not in ("sync", "async"):
                    raise ExperimentError(
                        f"edge {node.name!r}->{edge.target!r} has unknown "
                        f"mode {edge.mode!r} (expected 'sync' or 'async')"
                    )
                if edge.pool < 1:
                    raise ExperimentError(
                        f"edge {node.name!r}->{edge.target!r} pool must be "
                        f">= 1, got {edge.pool!r}"
                    )
                if edge.request_size < 1:
                    raise ExperimentError(
                        f"edge {node.name!r}->{edge.target!r} request_size "
                        f"must be >= 1, got {edge.request_size!r}"
                    )
                upstreams[edge.target] += 1
            if node.fan_in not in FAN_IN_POLICIES:
                raise ExperimentError(
                    f"node {node.name!r} has unknown fan_in {node.fan_in!r} "
                    f"(expected one of {FAN_IN_POLICIES})"
                )
            if node.fan_in == "quorum":
                if not 1 <= node.quorum <= node.fan_out:
                    raise ExperimentError(
                        f"node {node.name!r} quorum must be in "
                        f"[1, {node.fan_out}] (its async fan-out), got "
                        f"{node.quorum!r}"
                    )
            if node.fan_in == "best_effort" and node.best_effort_timeout <= 0:
                raise ExperimentError(
                    f"node {node.name!r} best_effort_timeout must be > 0, "
                    f"got {node.best_effort_timeout!r}"
                )
            if node.service_cpu < 0:
                raise ExperimentError(
                    f"node {node.name!r} service_cpu must be >= 0, got "
                    f"{node.service_cpu!r}"
                )
            if node.service_jitter < 0:
                raise ExperimentError(
                    f"node {node.name!r} service_jitter must be >= 0, got "
                    f"{node.service_jitter!r}"
                )
            if node.response_size < 1:
                raise ExperimentError(
                    f"node {node.name!r} response_size must be >= 1, got "
                    f"{node.response_size!r}"
                )
            if node.replica is not None:
                node.replica.validate()
        for node in self.nodes:
            if node.replica is not None and node.replica.active:
                if node.edges:
                    raise ExperimentError(
                        f"replicated node {node.name!r} must be a leaf "
                        "(no outgoing edges)"
                    )
                if upstreams[node.name] != 1:
                    raise ExperimentError(
                        f"replicated node {node.name!r} must have exactly "
                        f"one upstream edge, got {upstreams[node.name]}"
                    )
        self.topo_order()  # raises on cycles
        return self

    def topo_order(self) -> Tuple[str, ...]:
        """Deterministic topological order (declaration order among
        ready nodes), raising :class:`ExperimentError` on a cycle."""
        remaining = {
            node.name: {edge.target for edge in node.edges}
            for node in self.nodes
        }
        order = []
        while remaining:
            ready = [
                node.name for node in self.nodes
                if node.name in remaining and not remaining[node.name]
            ]
            if not ready:
                cycle = sorted(remaining)
                raise ExperimentError(
                    f"DAG has a dependency cycle among {cycle}"
                )
            for name in ready:
                order.append(name)
                del remaining[name]
            for deps in remaining.values():
                deps.difference_update(ready)
        # Leaves first: reverse for "build order", but callers want the
        # dependency order entry-last; return leaves-first so builders
        # can construct targets before the pools that point at them.
        return tuple(order)
