"""Three-tier system assembly (the paper's Figure 12 testbed).

Builds the Apache → Tomcat → MySQL deployment of the RUBBoS benchmark:
each tier on its own (simulated) machine with its own CPU, wired by
inter-tier connection pools over LAN links.  The Tomcat tier is pluggable
between the thread-based connector (Tomcat 7, ``variant="sync"``) and the
asynchronous connector (Tomcat 8, ``variant="async"``) — the single change
whose system-wide effect Figure 1 measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache import CacheConfig, CacheTier
from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpu.scheduler import CPU
from repro.dag.config import DagConfig
from repro.errors import ExperimentError
from repro.faults import FaultPlan
from repro.net.link import Link
from repro.ntier.applications import ProxyApplication, QueryApplication, ServletApplication
from repro.ntier.pool import ConnectionPool
from repro.replica import Replica, ReplicaConfig, ReplicaGroup
from repro.resilience import CircuitBreaker, HedgePolicy, ResiliencePolicy
from repro.servers.base import BaseServer, ServerLimits
from repro.servers.threaded import ThreadedServer
from repro.shard import resolve_shards
from repro.servers.tomcat import TomcatAsyncServer, TomcatSyncServer
from repro.sim.core import Environment
from repro.sim.rng import derive_seed
from repro.cohort import CohortConfig
from repro.workload.client import ExponentialThink, RetryPolicy
from repro.workload.harness import RunResult, run_system
from repro.workload.mixes import RequestMix
from repro.workload.population import ConnectionOptions
from repro.workload.rubbos import RubbosMix

__all__ = [
    "NTierConfig", "ThreeTierSystem", "NTierResult", "run_ntier",
    "POOL_SIZE", "TOMCAT_WORKERS",
]

#: Connections in every inter-tier pool (Apache→Tomcat and Tomcat→MySQL).
#: The Apache→Tomcat pool bounds Tomcat's concurrency, as the paper's
#: ~35-40 at saturation shows.
POOL_SIZE = 40
#: Worker threads of the asynchronous (Tomcat 8) connector's executor.
TOMCAT_WORKERS = 32


@dataclass(frozen=True)
class NTierConfig:
    """One 3-tier RUBBoS run."""

    #: "sync" (Tomcat 7 connector) or "async" (Tomcat 8 connector).
    tomcat_variant: str
    #: Number of emulated users (the paper's workload axis, 1000–13000).
    users: int
    think_mean: float = 7.0
    duration: float = 22.0
    warmup: float = 12.0
    inter_tier_latency: float = 100.0e-6
    #: Extra one-way latency on the client↔Apache link (0 keeps the
    #: historical bare-LAN link, bit-identically).  A WAN-ish client
    #: latency both models remote users and widens the client/server
    #: lookahead window for the sharded kernel.
    client_latency: float = 0.0
    calibration: Calibration = DEFAULT_CALIBRATION
    seed: int = 1
    #: Chaos plan: stall windows hit the *Tomcat* tier's CPU (the
    #: mid-tier slowdown of the metastable-failure scenario); connection
    #: and abandonment faults apply to the client population as in micro.
    fault_plan: Optional[FaultPlan] = None
    #: Client-side retry policy (``None`` → historical wait-forever loop).
    retry: Optional[RetryPolicy] = None
    #: Cross-tier resilience: deadlines on every request, a shared retry
    #: budget, circuit breakers on both inter-tier pools, and adaptive
    #: admission control on the Tomcat tier.  ``None`` → nothing built.
    resilience: Optional[ResiliencePolicy] = None
    #: Goodput-timeline bucket width in seconds (0 disables the timeline).
    timeline_bucket: float = 0.0
    #: Cache tier between Tomcat and MySQL (``None`` → nothing built).
    cache: Optional[CacheConfig] = None
    #: Workload mix (``None`` → the RUBBoS Markov navigation, as always).
    mix: Optional[RequestMix] = None
    #: Replicated Tomcat tier behind Apache: ``replicas`` slices named
    #: ``tomcat0``, ``tomcat1``, ... behind a balancer (``None`` or
    #: ``replicas=1`` → one unreplicated slice named ``tomcat``).
    replica: Optional[ReplicaConfig] = None
    #: Cohort aggregation of the user population (``None`` → classic
    #: per-client build).
    cohort: Optional[CohortConfig] = None
    #: Service-dependency DAG replacing the linear three-tier chain
    #: (``None`` → the classic builders).
    #: Mutually exclusive with ``cache`` and ``replica`` — DAG nodes
    #: declare their own replication, and the cache tier is a property
    #: of the Tomcat→MySQL chain the DAG replaces.
    dag: Optional[DagConfig] = None

    def validate(self) -> "NTierConfig":
        """Raise :class:`ExperimentError` on nonsensical settings."""
        if self.tomcat_variant not in ("sync", "async"):
            raise ExperimentError(f"unknown tomcat_variant {self.tomcat_variant!r}")
        if self.users < 1:
            raise ExperimentError(f"users must be >= 1, got {self.users!r}")
        if self.duration <= self.warmup:
            raise ExperimentError("duration must exceed warmup")
        if self.timeline_bucket < 0:
            raise ExperimentError(
                f"timeline_bucket must be >= 0, got {self.timeline_bucket!r}"
            )
        if self.client_latency < 0:
            raise ExperimentError(
                f"client_latency must be >= 0, got {self.client_latency!r}"
            )
        if self.cache is not None:
            self.cache.validate()
        if self.replica is not None:
            self.replica.validate()
        if self.cohort is not None:
            self.cohort.validate()
        if self.dag is not None:
            self.dag.validate()
            if self.cache is not None:
                raise ExperimentError(
                    "dag and cache are mutually exclusive (the cache tier "
                    "belongs to the linear chain the DAG replaces)"
                )
            if self.replica is not None:
                raise ExperimentError(
                    "dag and replica are mutually exclusive (declare "
                    "replication per DAG node instead)"
                )
        return self


class ThreeTierSystem:
    """Apache + Tomcat + MySQL on three simulated machines.

    The chain build and the DAG build answer the run's queries — tier
    CPUs and servers, pools, limiters, caches, crash targets — through
    the same methods, so :func:`~repro.workload.harness.run_system` and
    the shard islands drive and read every topology one way.
    """

    def __init__(self, env: Environment, config: NTierConfig):
        config.validate()
        self.env = env
        self.config = config
        #: Tomcat tier name → that slice's :class:`Replica` record, in
        #: build order: ``tomcat`` unreplicated, ``tomcat0``,
        #: ``tomcat1``, ... replicated, none under a DAG.
        self.tomcats: Dict[str, Replica] = {}
        #: Replica group for the Tomcat tier (``None`` unless
        #: ``config.replica`` is active; ``replicas=1`` builds none).
        self.replica_group: Optional[ReplicaGroup] = None
        #: The live DAG (``None`` unless the run carries a :class:`DagConfig`).
        self.dag_system = None
        #: Apache's hedging policy (set by :meth:`start` when the run
        #: hedges across a replica group).
        self.hedge: Optional[HedgePolicy] = None
        self._usage: Optional[TierUsage] = None
        if config.dag is not None:
            self._build_dag(env, config)
        else:
            self._build_chain(env, config)

    def _build_dag(self, env: Environment, config: NTierConfig) -> None:
        """The service-dependency DAG build (PR 9).

        Delegates to :func:`repro.dag.build.build_dag_system` (imported
        lazily to keep the package import graph acyclic) and aliases the
        entry node onto the classic attribute names so tier-generic
        plumbing — CPU watching, stall injection, the front server —
        keeps a well-defined target.
        """
        from repro.dag.build import build_dag_system

        self.dag_system = build_dag_system(env, config)
        self.web_server = self.dag_system.entry_server
        self.web_cpu = self.dag_system.entry_cpu
        self.app_server = self.dag_system.entry_server
        self.app_cpu = self.dag_system.entry_cpu
        self.db_server = None
        self.db_cpu = None
        self.apache_tomcat_pool = None
        self.tomcat_db_pool = None
        self.cache_tier: Optional[CacheTier] = None

    def _build_chain(self, env: Environment, config: NTierConfig) -> None:
        """The Apache → Tomcat → MySQL chain (the paper's testbed).

        The Tomcat tier is one vertical slice, or one per replica when
        ``config.replica`` is active.  A slice has its own CPU
        ("machine"), its own JDBC pool to the shared MySQL, its own cache
        tier and its own Apache-side pool, each pool with its own
        breaker.  The classic attribute names (``app_cpu``,
        ``app_server``, ...) alias slice 0 so tier-generic plumbing —
        stall injection, CPU watching — keeps a well-defined target.

        Statement order is load-bearing: a :class:`CPU` schedules its
        cores' first dispatch when constructed, and construction order
        assigns connection ids.  So the unreplicated Tomcat CPU is built
        between the MySQL and Apache CPUs, and a replica's CPU with the
        rest of its slice; moving either changes every result.
        """
        calib = config.calibration
        replicated = config.replica is not None and config.replica.active
        names = (
            [f"tomcat{i}" for i in range(config.replica.replicas)]
            if replicated
            else ["tomcat"]
        )

        self.db_cpu = CPU(env, calib, name="mysql-cpu")
        if not replicated:
            tomcat_cpu = CPU(env, calib, name="tomcat-cpu")
        self.web_cpu = CPU(env, calib, name="apache-cpu")

        tier_link = Link.lan(calib, added_latency=config.inter_tier_latency)
        policy = config.resilience
        breaker_cfg = policy.breaker if policy is not None else None

        def breaker(name: str) -> Optional[CircuitBreaker]:
            if breaker_cfg is None:
                return None
            return CircuitBreaker(env, breaker_cfg, name=name)

        # MySQL stays a single shared instance: the paper's bottleneck
        # analysis needs the database fixed while the mid tier scales.
        self.db_server = ThreadedServer(
            env, self.db_cpu, app=QueryApplication(), name="mysql"
        )

        for i, name in enumerate(names):
            cpu = CPU(env, calib, name=f"{name}-cpu") if replicated else tomcat_cpu
            db_pool = ConnectionPool(
                env,
                self.db_server,
                POOL_SIZE,
                tier_link,
                calib,
                breaker=breaker(f"{name}-mysql"),
            )
            server, cache = build_tomcat(
                env, config, name, cpu, db_pool, ("keys", i) if replicated else ("keys",)
            )
            pool = ConnectionPool(
                env,
                server,
                POOL_SIZE,
                tier_link,
                calib,
                breaker=breaker(f"apache-{name}"),
            )
            self.tomcats[name] = Replica(i, server, cpu, pool, db_pool, cache)

        slices = list(self.tomcats.values())
        if replicated:
            self.replica_group = ReplicaGroup(env, config.replica, slices)
        # Apache tier: thread-based reverse proxy over one slice or N.
        front_app = ProxyApplication(
            self.replica_group if replicated else slices[0].pool
        )
        self.web_server = ThreadedServer(
            env, self.web_cpu, app=front_app, name="apache"
        )

        self.app_cpu = slices[0].cpu
        self.app_server = slices[0].server
        self.apache_tomcat_pool = slices[0].pool
        self.tomcat_db_pool = slices[0].db_pool
        self.cache_tier = slices[0].cache

    @property
    def front_server(self) -> BaseServer:
        """The tier clients connect to."""
        return self.web_server

    def cpu_by_tier(self) -> Dict[str, CPU]:
        """Tier name → CPU, for per-tier utilisation reports."""
        if self.dag_system is not None:
            return self.dag_system.cpu_by_tier()
        cpus = {"apache": self.web_cpu}
        cpus.update((name, tomcat.cpu) for name, tomcat in self.tomcats.items())
        cpus["mysql"] = self.db_cpu
        return cpus

    def server_tiers(self) -> "list":
        """``(tier name, [instance servers])`` for per-tier counters."""
        if self.dag_system is not None:
            return self.dag_system.servers_by_node()
        return [
            ("apache", [self.web_server]),
            ("tomcat", [tomcat.server for tomcat in self.tomcats.values()]),
            ("mysql", [self.db_server]),
        ]

    def pools(self) -> "list":
        """Every inter-tier connection pool (per Tomcat slice: the pool
        into it, then its pool to MySQL)."""
        if self.dag_system is not None:
            return self.dag_system.pools()
        return [p for t in self.tomcats.values() for p in (t.pool, t.db_pool)]

    def limiters(self) -> "list":
        """Admission limiters in the system (servers without one skipped)."""
        if self.dag_system is not None:
            limiters = self.dag_system.limiters()
        else:
            limiters = [tomcat.server.limiter for tomcat in self.tomcats.values()]
        return [limiter for limiter in limiters if limiter is not None]

    def peak_concurrency(self) -> int:
        """Summed peak use of the pools into the mid tier (of every edge
        pool under a DAG)."""
        if self.dag_system is not None:
            return sum(pool.peak_in_use for pool in self.dag_system.pools())
        return sum(tomcat.pool.peak_in_use for tomcat in self.tomcats.values())

    def cache_tiers(self) -> "list":
        """Every cache-tier instance in the system (possibly empty)."""
        return [t.cache for t in self.tomcats.values() if t.cache is not None]

    def crash_targets(self) -> "list":
        """Instances a :class:`~repro.faults.plan.CrashWindow` (or
        :class:`~repro.faults.plan.DegradeWindow`) may target.

        Under a DAG these are every node instance, flattened per node in
        declaration order (see
        :meth:`repro.dag.build.DagSystem.fault_targets`); in the chain
        they are the Tomcat slices, so crash–restart semantics are the
        same for one Tomcat and for a replica group.
        """
        if self.dag_system is not None:
            return self.dag_system.fault_targets()
        return list(self.tomcats.values())

    def start(self, policy: Optional[ResiliencePolicy], budget, mix: RequestMix) -> None:
        """Arm the system before the clients: Apache's hedging (a
        replica group under a hedging ``policy``), health probes and the
        cache prewarm from ``mix``."""
        if (
            policy is not None
            and policy.hedge is not None
            and self.replica_group is not None
        ):
            # Hedges spend tokens from the same bucket retries do, so the
            # combined amplification stays inside one budget.
            self.hedge = HedgePolicy(policy.hedge, budget)
            self.web_server.app.hedge = self.hedge
        if self.replica_group is not None:
            self.replica_group.start_probes()
        if self.dag_system is not None:
            self.dag_system.start_probes()
        if self.config.cache is not None and self.config.cache.prewarm:
            for tier in self.cache_tiers():
                tier.prewarm_from_mix(mix)

    def watch(self) -> None:
        """Start the per-tier CPU accounting :meth:`finish` reports."""
        self._usage = TierUsage(self.env, self.cpu_by_tier(), self.config.warmup)

    def resilience_counters(self) -> Dict[str, float]:
        """Breaker counters of every pool, summed admission-limiter
        counters and the pools' evictions."""
        counters: Dict[str, float] = {}
        pools = self.pools()
        for pool in pools:
            if pool.breaker is not None:
                counters.update(pool.breaker.counters())
        counters.update(summed_counters(self.limiters()))
        counters["pool_evictions"] = float(sum(p.evictions for p in pools))
        return counters

    def finish(self, reported: bool) -> Dict[str, object]:
        """This system's :class:`NTierResult` fields after a run.

        Per-tier server counters are filled only when ``reported``, the
        run harness's rule for ``client_stats``.
        """
        utilization, switch_rate = self._usage.measure()
        replica_stats: Dict[str, float] = {}
        if self.replica_group is not None:
            replica_stats = self.replica_group.counters()
            if self.hedge is not None:
                replica_stats.update(self.hedge.counters())
        return {
            "tier_utilization": utilization,
            "tier_switch_rate": switch_rate,
            "tomcat_peak_concurrency": self.peak_concurrency(),
            "server_stats": tier_server_stats(self.server_tiers()) if reported else {},
            "cache_stats": summed_counters(self.cache_tiers()),
            "replica_stats": replica_stats,
            "dag_stats": self.dag_system.counters() if self.dag_system is not None else {},
        }


def build_tomcat(
    env: Environment,
    config: NTierConfig,
    name: str,
    cpu: CPU,
    db_pool: ConnectionPool,
    cache_key: "tuple",
) -> "tuple":
    """One Tomcat server called ``name`` over ``db_pool``, plus its cache.

    Returns ``(server, cache tier or None)``.  The cache draws keys from
    stream ``cache_key`` of the run's ``cache`` seed fork, and exists only
    when the run configures one — otherwise no object, no RNG stream, no
    event.  Shared by the chain builder and the shard Tomcat island.
    """
    cache = None
    if config.cache is not None:
        fork = derive_seed(config.seed, "fork", "cache")
        cache = CacheTier(
            env, config.cache, random.Random(derive_seed(fork, *cache_key)),
            config.calibration,
        )
    app = ServletApplication(db_pool, cache=cache)
    if config.tomcat_variant == "sync":
        server: BaseServer = TomcatSyncServer(env, cpu, app=app, name=f"{name}-v7")
    else:
        server = TomcatAsyncServer(
            env, cpu, app=app, name=f"{name}-v8", workers=TOMCAT_WORKERS
        )
    policy = config.resilience
    if policy is not None and policy.admission is not None:
        # The Tomcat tier is the chain's bottleneck; the AIMD limiter
        # discovers how much concurrency it can serve within target
        # latency and sheds the excess cheaply.
        server.limits = ServerLimits(adaptive=policy.admission)
    return server, cache


class TierUsage:
    """Per-tier CPU utilisation and context-switch rate after warm-up.

    Snapshots every tier CPU when constructed and again at the warm-up
    boundary (a ``warmup-marker`` process), then measures from there.
    :meth:`ThreeTierSystem.watch` and the shard islands watch their tiers
    this way.
    """

    def __init__(self, env: Environment, cpus: Dict[str, CPU], warmup: float):
        self.cpus = cpus
        self.starts = {name: cpu.snapshot() for name, cpu in cpus.items()}
        env.process(self._mark_warmup(env, warmup), name="warmup-marker")

    def _mark_warmup(self, env: Environment, warmup: float):
        yield env.timeout(warmup)
        for name, cpu in self.cpus.items():
            self.starts[name] = cpu.snapshot()

    def measure(self) -> "tuple":
        """``(utilization, switch rate)``: tier name → value, up to now."""
        utilization: Dict[str, float] = {}
        switch_rate: Dict[str, float] = {}
        for name, cpu in self.cpus.items():
            usage = cpu.snapshot().usage_since(self.starts[name], cpu.cores)
            utilization[name] = usage.utilization
            switch_rate[name] = usage.context_switch_rate
        return utilization, switch_rate


def tier_server_stats(tiers) -> Dict[str, float]:
    """Shed/expired/aborted requests per tier, summed over its servers.

    ``tiers`` is a sequence of ``(tier name, [servers])``, as
    :meth:`ThreeTierSystem.server_tiers` returns.
    """
    stats: Dict[str, float] = {}
    for tier, servers in tiers:
        for outcome in ("rejected", "expired", "aborted"):
            stats[f"{tier}_{outcome}"] = float(
                sum(getattr(s.stats, f"requests_{outcome}") for s in servers)
            )
    return stats


def summed_counters(sources) -> Dict[str, float]:
    """Key-wise sum of ``counters()`` over ``sources``."""
    totals: Dict[str, float] = {}
    for source in sources:
        for key, value in source.counters().items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


@dataclass(frozen=True)
class NTierResult(RunResult):
    """Measurements of one 3-tier run."""

    #: Peak concurrent requests observed at the Tomcat tier.
    tomcat_peak_concurrency: int = 0

    @property
    def bottleneck_tier(self) -> str:
        """Tier with the highest CPU utilisation."""
        return max(self.tier_utilization, key=self.tier_utilization.get)

    def goodput_rate(self, start: float, end: float) -> float:
        """Mean goodput (successes/second) over [start, end) sim time.

        Reads the goodput timeline in whole buckets of the config's
        ``timeline_bucket``; a bucket past the recorded timeline counts
        zero successes, since the recorder only extends the timeline when
        a success completes.
        """
        bucket = self.config.timeline_bucket
        lo, hi = int(start / bucket), int(end / bucket)
        span = (hi - lo) * bucket
        return sum(self.goodput_timeline[lo:hi]) / span if span > 0 else 0.0


def run_ntier(config: NTierConfig, shards: Optional[int] = None) -> NTierResult:
    """Run one 3-tier RUBBoS configuration and return its measurements.

    ``shards`` (default: the ``REPRO_SHARDS`` environment variable)
    partitions the topology into per-tier kernel islands executed in
    separate processes with conservative synchronization — same digests,
    more cores.  Configurations the partitioner cannot prove safe fall
    back to the serial kernel.
    """
    config.validate()
    requested = resolve_shards(shards)
    if requested > 1:
        from repro.shard.runtime import run_ntier_sharded

        sharded = run_ntier_sharded(config, requested)
        if sharded is not None:
            return sharded
    env = Environment()
    return run_system(
        config,
        env,
        ThreeTierSystem(env, config),
        size=config.users,
        mix=config.mix if config.mix is not None else RubbosMix(),
        link=Link.lan(config.calibration, added_latency=config.client_latency),
        think=ExponentialThink(config.think_mean),
        options=ConnectionOptions(),
        timeline_bucket=config.timeline_bucket,
        result=NTierResult,
    )
