"""Assemble a live service-dependency DAG from a :class:`DagConfig`.

Construction is deterministic: nodes are built leaves-first in the
config's topological order (so every edge's target server exists before
the pool that points at it), instances and edges in declaration order.
Connection ids and breaker registrations therefore depend only on the
config — the same property the classic three-tier builders rely on for
golden digests.

Every node is a :class:`~repro.servers.threaded.ThreadedServer` (one
worker thread per accepted connection; the entry node still gets the
adaptive admission limiter when the run carries a resilience policy).
A replicated leaf node becomes a full
:class:`~repro.replica.group.ReplicaGroup`: per-instance CPU, server and
upstream pool (+ per-instance breaker), routed by its single upstream
edge's balancer.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cpu.scheduler import CPU
from repro.dag.config import DagConfig, ServiceNode
from repro.dag.runtime import DagServiceApplication, EdgeRuntime
from repro.net.link import Link
from repro.ntier.pool import ConnectionPool
from repro.replica.group import Replica, ReplicaGroup
from repro.resilience import CircuitBreaker
from repro.servers.base import ServerLimits
from repro.servers.threaded import ThreadedServer
from repro.sim.rng import derive_seed

__all__ = ["DagNodeBuild", "DagSystem", "build_dag_system"]


class _NodeInstance:
    """Fault-target adapter for one DAG node instance.

    Implements the crash-target protocol the fault injector consumes
    (``crash()`` / ``restart()`` / ``cpu``, the
    :class:`~repro.replica.group.Replica` shape) for nodes that are not
    replica-group members: crashing closes the server's attached
    connections plus the instance's own outbound edge pools; restarting
    resets its outbound breakers and refills the dead idle members of
    every pool facing it.  :class:`~repro.faults.plan.DegradeWindow`
    targets only need ``cpu``.
    """

    def __init__(self, name: str, server, cpu, upstream_pools, downstream_pools):
        self.name = name
        self.server = server
        self.cpu = cpu
        self.upstream_pools = list(upstream_pools)
        self.downstream_pools = list(downstream_pools)
        self.crashes = 0

    def crash(self) -> None:
        self.crashes += 1
        self.server.down = True
        for connection in list(self.server.connections):
            if not connection.closed:
                connection.close()
        for pool in self.downstream_pools:
            for connection in list(pool.connections):
                if not connection.closed:
                    connection.close()

    def restart(self) -> None:
        self.server.down = False
        for pool in self.downstream_pools:
            if pool.breaker is not None:
                pool.breaker.reset()
            pool.evict_closed_idle()
        for pool in self.upstream_pools:
            pool.evict_closed_idle()

    def __repr__(self) -> str:
        return f"<_NodeInstance {self.name}>"


class DagNodeBuild:
    """One built node: its config plus live instances and shared app."""

    def __init__(self, node: ServiceNode, replicated: bool):
        self.node = node
        #: Whether the replicated path ran (``replicas > 1``).
        self.replicated = replicated
        #: Shared across instances so node counters aggregate naturally.
        self.app: Optional[DagServiceApplication] = None
        self.servers: list = []
        self.cpus: List[CPU] = []
        #: Replica group, set by the (single) upstream edge's build.
        self.group: Optional[ReplicaGroup] = None

    @property
    def instance_names(self) -> List[str]:
        if self.replicated:
            return [f"{self.node.name}{i}" for i in range(len(self.servers))]
        return [self.node.name]


class DagSystem:
    """The live DAG: built nodes, edge runtimes, and fault plumbing."""

    def __init__(self, dag: DagConfig):
        self.dag = dag
        #: Node name → build, in declaration order.
        self.nodes: Dict[str, DagNodeBuild] = {}
        #: Every edge runtime, in declaration order (per node, per edge).
        self.edges: List[EdgeRuntime] = []
        self._fault_targets: Optional[list] = None

    # ------------------------------------------------------------------
    @property
    def entry(self) -> DagNodeBuild:
        return self.nodes[self.dag.entry]

    @property
    def entry_server(self):
        return self.entry.servers[0]

    @property
    def entry_cpu(self) -> CPU:
        return self.entry.cpus[0]

    def cpu_by_tier(self) -> Dict[str, CPU]:
        """Instance name → CPU, for per-tier utilisation reports."""
        cpus: Dict[str, CPU] = {}
        for build in self.nodes.values():
            for name, cpu in zip(build.instance_names, build.cpus):
                cpus[name] = cpu
        return cpus

    def servers_by_node(self):
        """``(node name, [instance servers])`` in declaration order."""
        return [
            (name, list(build.servers)) for name, build in self.nodes.items()
        ]

    def fault_targets(self) -> list:
        """Crash/degrade targets, flattened per node in declaration
        order then per instance — the index space
        :class:`~repro.faults.plan.CrashWindow` /
        :class:`~repro.faults.plan.DegradeWindow` ``instance`` selects
        from.  Memoized so crash and degrade processes share the same
        adapter objects."""
        if self._fault_targets is not None:
            return self._fault_targets
        upstream: Dict[str, List[ConnectionPool]] = {
            name: [] for name in self.nodes
        }
        downstream: Dict[str, List[ConnectionPool]] = {
            name: [] for name in self.nodes
        }
        for runtime in self.edges:
            if runtime.pool is not None:
                upstream[runtime.edge.target].append(runtime.pool)
                downstream[runtime.source].append(runtime.pool)
            else:
                # Replicated target: its upstream pools belong to the
                # group's Replica objects, but they are still the source
                # instance's *outbound* connections and die with it.
                downstream[runtime.source].extend(
                    replica.pool for replica in runtime.group.replicas
                )
        targets: list = []
        for name, build in self.nodes.items():
            if build.group is not None:
                targets.extend(build.group.replicas)
                continue
            for instance_name, server, cpu in zip(
                build.instance_names, build.servers, build.cpus
            ):
                targets.append(
                    _NodeInstance(
                        instance_name, server, cpu,
                        upstream[name], downstream[name],
                    )
                )
        self._fault_targets = targets
        return targets

    def pools(self) -> List[ConnectionPool]:
        """Every edge pool, in deterministic declaration order."""
        pools: List[ConnectionPool] = []
        for runtime in self.edges:
            pools.extend(runtime.pools())
        return pools

    def limiters(self) -> list:
        """Admission limiters in the system (the entry node's)."""
        return [self.entry_server.limiter]

    def start_probes(self) -> None:
        """Start active health probing for every replica group."""
        for build in self.nodes.values():
            if build.group is not None:
                build.group.start_probes()

    def counters(self) -> Dict[str, float]:
        """The run's ``dag_stats``: request/degradation accounting, every
        edge's branch counters, and per-node replica-group counters
        (prefixed with the node name)."""
        stats: Dict[str, float] = {
            "dag_requests": float(self.entry.app.requests),
            "dag_requests_degraded": float(
                sum(build.app.degraded for build in self.nodes.values())
            ),
            "dag_fanin_failures": float(
                sum(build.app.fanin_failures for build in self.nodes.values())
            ),
        }
        for runtime in self.edges:
            stats.update(runtime.counters())
        for name, build in self.nodes.items():
            if build.group is not None:
                for key, value in build.group.counters().items():
                    stats[f"{name}_{key}"] = value
        return stats


def build_dag_system(env, config) -> DagSystem:
    """Build the DAG topology described by ``config.dag``.

    ``config`` is the run's :class:`~repro.ntier.topology.NTierConfig`
    (duck-typed here to avoid a circular import): the build consumes its
    ``dag``, ``calibration``, ``inter_tier_latency`` and ``resilience``
    fields.
    """
    dag: DagConfig = config.dag.validate()
    calib = config.calibration
    policy = config.resilience
    breaker_cfg = policy.breaker if policy is not None else None
    tier_link = Link.lan(calib, added_latency=config.inter_tier_latency)

    system = DagSystem(dag)
    for node in dag.nodes:
        replicated = node.replica is not None and node.replica.active
        system.nodes[node.name] = DagNodeBuild(node, replicated)

    # Leaves first, so every edge's target exists before its pool.
    for name in dag.topo_order():
        build = system.nodes[name]
        node = build.node

        # Edge runtimes toward already-built targets, declaration order.
        runtimes = []
        for edge in node.edges:
            target_build = system.nodes[edge.target]
            runtime = EdgeRuntime(name, edge, target_build.node)
            if target_build.replicated:
                replicas = []
                for i, (srv, cpu) in enumerate(
                    zip(target_build.servers, target_build.cpus)
                ):
                    pool = ConnectionPool(
                        env,
                        srv,
                        edge.pool,
                        tier_link,
                        calib,
                        breaker=CircuitBreaker(
                            env, breaker_cfg, name=f"{runtime.name}{i}"
                        )
                        if breaker_cfg is not None
                        else None,
                    )
                    replicas.append(Replica(i, srv, cpu, pool))
                group = ReplicaGroup(env, target_build.node.replica, replicas)
                runtime.group = group
                target_build.group = group
            else:
                runtime.pool = ConnectionPool(
                    env,
                    target_build.servers[0],
                    edge.pool,
                    tier_link,
                    calib,
                    breaker=CircuitBreaker(env, breaker_cfg, name=runtime.name)
                    if breaker_cfg is not None
                    else None,
                )
            runtimes.append(runtime)
            system.edges.append(runtime)

        # The node's instances share one application (aggregated
        # counters); its jitter stream is derived from the run seed and
        # the node name so adding a node never perturbs another's draws.
        build.app = DagServiceApplication(
            node, tuple(runtimes),
            rng=random.Random(derive_seed(config.seed, "dag-service", name)),
        )
        count = node.replica.replicas if build.replicated else 1
        for i in range(count):
            instance = f"{name}{i}" if build.replicated else name
            cpu = CPU(env, calib, name=f"{instance}-cpu")
            server = ThreadedServer(env, cpu, app=build.app, name=instance)
            if (
                name == dag.entry
                and policy is not None
                and policy.admission is not None
            ):
                server.limits = ServerLimits(adaptive=policy.admission)
            build.cpus.append(cpu)
            build.servers.append(server)

    return system
