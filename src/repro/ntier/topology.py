"""Three-tier system assembly (the paper's Figure 12 testbed).

Builds the Apache → Tomcat → MySQL deployment of the RUBBoS benchmark:
each tier on its own (simulated) machine with its own CPU, wired by
inter-tier connection pools over LAN links.  The Tomcat tier is pluggable
between the thread-based connector (Tomcat 7, ``variant="sync"``) and the
asynchronous connector (Tomcat 8, ``variant="async"``) — the single change
whose system-wide effect Figure 1 measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cache import CacheConfig, CacheTier
from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpu.scheduler import CPU
from repro.dag.config import DagConfig
from repro.errors import ExperimentError
from repro.faults import FaultInjector, FaultPlan, FaultReport
from repro.metrics.collector import RunRecorder, RunReport
from repro.net.link import Link
from repro.ntier.applications import ProxyApplication, QueryApplication, ServletApplication
from repro.ntier.pool import ConnectionPool
from repro.replica import BalancedProxyApplication, Replica, ReplicaConfig, ReplicaGroup
from repro.resilience import CircuitBreaker, HedgePolicy, ResiliencePolicy, RetryBudget
from repro.servers.base import BaseServer, ServerLimits
from repro.servers.threaded import ThreadedServer
from repro.shard import resolve_shards
from repro.servers.tomcat import TomcatAsyncServer, TomcatSyncServer
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams
from repro.cohort import CohortConfig
from repro.workload.client import ExponentialThink, RetryPolicy
from repro.workload.mixes import RequestMix
from repro.workload.population import build_population
from repro.workload.rubbos import RubbosMix

__all__ = ["NTierConfig", "ThreeTierSystem", "NTierResult", "run_ntier"]


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
    apache_tomcat_pool: int = 40
    tomcat_db_pool: int = 40
    tomcat_workers: int = 32
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
    #: Replicated Tomcat tier behind Apache (``None`` → the classic
    #: single-instance build).
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
    """Apache + Tomcat + MySQL on three simulated machines."""

    def __init__(self, env: Environment, config: NTierConfig):
        config.validate()
        self.env = env
        self.config = config
        #: Replica group for the Tomcat tier (``None`` in the classic
        #: single-instance build — which is also what ``replicas=1``
        #: produces).
        self.replica_group: Optional[ReplicaGroup] = None
        #: The balancing proxy application (replicated build only); the
        #: runner attaches the hedge policy here once the budget exists.
        self.balanced_app: Optional[BalancedProxyApplication] = None
        #: The live DAG (``None`` unless the run carries a :class:`DagConfig`).
        self.dag_system = None
        if config.dag is not None:
            self._build_dag(env, config)
        elif config.replica is not None and config.replica.active:
            self._build_replicated(env, config)
        else:
            self._build_single(env, config)

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

    def _build_single(self, env: Environment, config: NTierConfig) -> None:
        """The classic one-instance-per-tier build (the paper's testbed).

        This body is the historical constructor verbatim — statement
        order included, since construction order assigns connection ids
        and forks RNG streams — so every pre-replica golden digest is
        preserved by definition.
        """
        calib = config.calibration

        # One CPU ("machine") per tier.
        self.db_cpu = CPU(env, calib, name="mysql-cpu")
        self.app_cpu = CPU(env, calib, name="tomcat-cpu")
        self.web_cpu = CPU(env, calib, name="apache-cpu")

        tier_link = Link.lan(calib, added_latency=config.inter_tier_latency)
        policy = config.resilience
        breaker_cfg = policy.breaker if policy is not None else None

        # MySQL tier: thread-based (one thread per pooled connection).
        self.db_server = ThreadedServer(
            env, self.db_cpu, app=QueryApplication(), name="mysql"
        )

        # Tomcat tier: the upgrade under study.
        self.tomcat_db_pool = None  # created after db server exists
        self.tomcat_db_pool = ConnectionPool(
            env,
            self.db_server,
            config.tomcat_db_pool,
            tier_link,
            calib,
            breaker=CircuitBreaker(env, breaker_cfg, name="tomcat-mysql")
            if breaker_cfg is not None
            else None,
        )
        #: Cache tier between Tomcat and MySQL.  Only instantiated when
        #: configured — otherwise no object, no RNG fork, no event.
        self.cache_tier: Optional[CacheTier] = None
        if config.cache is not None:
            self.cache_tier = CacheTier(
                env,
                config.cache,
                SeedStreams(config.seed).fork("cache").stream("keys"),
                calib,
            )
        servlet_app = ServletApplication(self.tomcat_db_pool, cache=self.cache_tier)
        if config.tomcat_variant == "sync":
            self.app_server: BaseServer = TomcatSyncServer(
                env, self.app_cpu, app=servlet_app, name="tomcat-v7"
            )
        else:
            self.app_server = TomcatAsyncServer(
                env,
                self.app_cpu,
                app=servlet_app,
                name="tomcat-v8",
                workers=config.tomcat_workers,
            )
        if policy is not None and policy.admission is not None:
            # The Tomcat tier is the chain's bottleneck; the AIMD limiter
            # discovers how much concurrency it can serve within target
            # latency and sheds the excess cheaply.
            self.app_server.limits = ServerLimits(adaptive=policy.admission)

        # Apache tier: thread-based reverse proxy.
        self.apache_tomcat_pool = ConnectionPool(
            env,
            self.app_server,
            config.apache_tomcat_pool,
            tier_link,
            calib,
            breaker=CircuitBreaker(env, breaker_cfg, name="apache-tomcat")
            if breaker_cfg is not None
            else None,
        )
        self.web_server = ThreadedServer(
            env,
            self.web_cpu,
            app=ProxyApplication(self.apache_tomcat_pool),
            name="apache",
        )

    def _build_replicated(self, env: Environment, config: NTierConfig) -> None:
        """N Tomcat instances behind a balancing Apache.

        Each replica is a full vertical slice: its own CPU ("machine"),
        its own JDBC pool to the shared MySQL (with its own breaker), its
        own private cache tier (seeded from a per-replica RNG stream),
        and its own Apache-side connection pool + breaker.  The classic
        attribute names (``app_cpu``, ``app_server``, ...) alias replica
        0 so tier-generic plumbing — stall injection, CPU watching —
        keeps a well-defined target.
        """
        calib = config.calibration
        rconf = config.replica

        self.db_cpu = CPU(env, calib, name="mysql-cpu")
        self.web_cpu = CPU(env, calib, name="apache-cpu")

        tier_link = Link.lan(calib, added_latency=config.inter_tier_latency)
        policy = config.resilience
        breaker_cfg = policy.breaker if policy is not None else None

        # MySQL stays a single shared instance: the paper's bottleneck
        # analysis needs the database fixed while the mid tier scales.
        self.db_server = ThreadedServer(
            env, self.db_cpu, app=QueryApplication(), name="mysql"
        )

        cache_seeds = (
            SeedStreams(config.seed).fork("cache")
            if config.cache is not None
            else None
        )
        suffix = "v7" if config.tomcat_variant == "sync" else "v8"
        replicas = []
        for i in range(rconf.replicas):
            cpu = CPU(env, calib, name=f"tomcat{i}-cpu")
            db_pool = ConnectionPool(
                env,
                self.db_server,
                config.tomcat_db_pool,
                tier_link,
                calib,
                breaker=CircuitBreaker(env, breaker_cfg, name=f"tomcat{i}-mysql")
                if breaker_cfg is not None
                else None,
            )
            cache = (
                CacheTier(env, config.cache, cache_seeds.stream("keys", i), calib)
                if config.cache is not None
                else None
            )
            servlet_app = ServletApplication(db_pool, cache=cache)
            if config.tomcat_variant == "sync":
                server: BaseServer = TomcatSyncServer(
                    env, cpu, app=servlet_app, name=f"tomcat{i}-{suffix}"
                )
            else:
                server = TomcatAsyncServer(
                    env,
                    cpu,
                    app=servlet_app,
                    name=f"tomcat{i}-{suffix}",
                    workers=config.tomcat_workers,
                )
            if policy is not None and policy.admission is not None:
                server.limits = ServerLimits(adaptive=policy.admission)
            front_pool = ConnectionPool(
                env,
                server,
                config.apache_tomcat_pool,
                tier_link,
                calib,
                breaker=CircuitBreaker(env, breaker_cfg, name=f"apache-tomcat{i}")
                if breaker_cfg is not None
                else None,
            )
            replicas.append(Replica(i, server, cpu, front_pool, db_pool, cache))

        self.replica_group = ReplicaGroup(env, rconf, replicas)
        self.balanced_app = BalancedProxyApplication(self.replica_group)
        self.web_server = ThreadedServer(
            env, self.web_cpu, app=self.balanced_app, name="apache"
        )

        # Replica-0 aliases for tier-generic plumbing.
        self.app_cpu = replicas[0].cpu
        self.app_server = replicas[0].server
        self.apache_tomcat_pool = replicas[0].pool
        self.tomcat_db_pool = replicas[0].db_pool
        self.cache_tier = replicas[0].cache

    @property
    def front_server(self) -> BaseServer:
        """The tier clients connect to."""
        return self.web_server

    def cpu_by_tier(self) -> Dict[str, CPU]:
        """Tier name → CPU, for per-tier utilisation reports."""
        if self.dag_system is not None:
            return self.dag_system.cpu_by_tier()
        if self.replica_group is not None:
            cpus = {"apache": self.web_cpu}
            for replica in self.replica_group.replicas:
                cpus[f"tomcat{replica.index}"] = replica.cpu
            cpus["mysql"] = self.db_cpu
            return cpus
        return {"apache": self.web_cpu, "tomcat": self.app_cpu, "mysql": self.db_cpu}

    def cache_tiers(self) -> "list":
        """Every cache-tier instance in the system (possibly empty)."""
        if self.dag_system is not None:
            return []
        if self.replica_group is not None:
            return [
                r.cache for r in self.replica_group.replicas if r.cache is not None
            ]
        return [] if self.cache_tier is None else [self.cache_tier]

    def crash_targets(self) -> "list":
        """Instances a :class:`~repro.faults.plan.CrashWindow` (or
        :class:`~repro.faults.plan.DegradeWindow`) may target.

        Under a DAG these are every node instance, flattened per node in
        declaration order (see
        :meth:`repro.dag.build.DagSystem.fault_targets`).  With a
        replica group they are the group's members; the classic
        single-instance topology exposes its one Tomcat wrapped in a
        :class:`~repro.replica.group.Replica` so crash–restart semantics
        are identical either way.  Only called when crash/degrade
        windows exist, so the wrappers cost nothing on clean runs.
        """
        if self.dag_system is not None:
            return self.dag_system.fault_targets()
        if self.replica_group is not None:
            return self.replica_group.replicas
        return [
            Replica(
                0,
                self.app_server,
                self.app_cpu,
                self.apache_tomcat_pool,
                self.tomcat_db_pool,
                self.cache_tier,
            )
        ]


@dataclass(frozen=True)
class NTierResult:
    """Measurements of one 3-tier run."""

    config: NTierConfig
    report: RunReport
    #: Tier name → CPU utilisation in [0, 1] over the window.
    tier_utilization: Dict[str, float] = field(default_factory=dict)
    #: Tier name → context switches per second.
    tier_switch_rate: Dict[str, float] = field(default_factory=dict)
    #: Peak concurrent requests observed at the Tomcat tier.
    tomcat_peak_concurrency: int = 0
    #: Simulation events processed by the kernel during this run (a pure
    #: function of the config, so it participates in equality).
    kernel_events: int = 0
    #: Aggregated client resilience counters (populated for chaos/retry/
    #: resilience runs; empty for clean runs so old results compare equal).
    client_stats: Dict[str, float] = field(default_factory=dict)
    #: Per-tier shed/expired/aborted counters (same population rule).
    server_stats: Dict[str, float] = field(default_factory=dict)
    #: Resilience-machinery counters: retry budget, breakers, admission
    #: limiter, pool evictions (empty unless a policy was configured).
    resilience: Dict[str, float] = field(default_factory=dict)
    #: Cache-tier counters (hits, fetches, coalesced flights; empty
    #: unless a cache tier actually ran, so cacheless results compare
    #: equal to historical ones).
    cache_stats: Dict[str, float] = field(default_factory=dict)
    #: Replica-group counters: balancer picks/ejections, health probes,
    #: crashes, hedging (empty unless a replica group actually ran, same
    #: population rule as ``cache_stats``).
    replica_stats: Dict[str, float] = field(default_factory=dict)
    #: Aggregate-cohort counters (empty unless a lazy cohort ran, same
    #: population rule as ``cache_stats``).
    cohort_stats: Dict[str, float] = field(default_factory=dict)
    #: DAG counters: requests/degraded accounting, per-edge branch
    #: outcomes, per-node replica-group counters (empty unless a DAG
    #: actually ran, same population rule as ``cache_stats``).
    dag_stats: Dict[str, float] = field(default_factory=dict)
    #: Fault-injection report (``None`` for clean runs).
    faults: Optional[FaultReport] = None
    #: Successful completions per ``timeline_bucket`` of absolute sim
    #: time (empty when the config leaves the timeline off).
    goodput_timeline: "tuple" = ()
    #: Host wall-clock seconds spent inside ``env.run``.  Wall clock is
    #: not deterministic, so it is excluded from equality.
    sim_wall_s: float = field(default=0.0, compare=False)
    #: Per-shard kernel accounting (tuple of
    #: :class:`repro.shard.ShardStats`); empty for serial runs.  Event
    #: counts differ from the serial kernel's (cut-edge bookkeeping), and
    #: stall times are wall clock, so the whole breakdown is excluded
    #: from equality.
    shard_events: "tuple" = field(default=(), compare=False)

    @property
    def throughput(self) -> float:
        return self.report.throughput

    @property
    def response_time(self) -> float:
        return self.report.response_time_mean

    @property
    def bottleneck_tier(self) -> str:
        """Tier with the highest CPU utilisation."""
        return max(self.tier_utilization, key=self.tier_utilization.get)


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
    system = ThreeTierSystem(env, config)
    calib = config.calibration
    lazy_cohort = config.cohort is not None and config.cohort.lazy_active()
    recorder = RunRecorder(
        env,
        warmup=config.warmup,
        streaming=lazy_cohort and config.users >= config.cohort.streaming_threshold,
        timeline_bucket=config.timeline_bucket,
    )
    recorder.watch_cpu(system.app_cpu)

    seeds = SeedStreams(config.seed)
    injector: Optional[FaultInjector] = None
    if config.fault_plan is not None and config.fault_plan.enabled:
        injector = FaultInjector(env, config.fault_plan, seeds.fork("faults"))
        # Stall windows seize the Tomcat tier's cores: the mid-tier
        # slowdown that triggers the metastable-failure scenario.
        injector.start_stalls(system.app_cpu)
        if config.fault_plan.crash_windows:
            # Crash windows kill Tomcat instances (replica members, or
            # the single classic instance wrapped as one).
            injector.start_crashes(system.crash_targets())
        if config.fault_plan.degrade_windows:
            # Gray-failure windows target the same instance index space.
            injector.start_degrades(system.crash_targets())
    policy = config.resilience if (
        config.resilience is not None and config.resilience.enabled
    ) else None
    budget: Optional[RetryBudget] = None
    deadline: Optional[float] = None
    if policy is not None:
        deadline = policy.deadline
        if policy.retry_budget is not None:
            budget = RetryBudget(policy.retry_budget)
    hedge_policy: Optional[HedgePolicy] = None
    if (
        policy is not None
        and policy.hedge is not None
        and system.balanced_app is not None
    ):
        # Hedges spend tokens from the same bucket retries do, so the
        # combined amplification stays inside one budget.
        hedge_policy = HedgePolicy(policy.hedge, budget)
        system.balanced_app.hedge = hedge_policy
    if system.replica_group is not None:
        system.replica_group.start_probes()
    if system.dag_system is not None:
        system.dag_system.start_probes()

    mix = config.mix if config.mix is not None else RubbosMix()
    if config.cache is not None and config.cache.prewarm:
        for tier in system.cache_tiers():
            tier.prewarm_from_mix(mix)

    client_link = Link.lan(calib, added_latency=config.client_latency)
    population = build_population(
        env,
        system.front_server,
        size=config.users,
        mix=mix,
        link=client_link,
        calibration=calib,
        seeds=seeds,
        recorder=recorder,
        think=ExponentialThink(config.think_mean),
        ramp_up=config.warmup * 0.8,
        faults=injector,
        retry=config.retry,
        budget=budget,
        deadline=deadline,
        cohort=config.cohort,
    )

    starts = {name: cpu.snapshot() for name, cpu in system.cpu_by_tier().items()}

    def _mark_warmup():
        yield env.timeout(config.warmup)
        for name, cpu in system.cpu_by_tier().items():
            starts[name] = cpu.snapshot()

    env.process(_mark_warmup(), name="warmup-marker")
    sim_start = time.perf_counter()
    env.run(until=config.duration)
    sim_wall = time.perf_counter() - sim_start

    utilization: Dict[str, float] = {}
    switch_rate: Dict[str, float] = {}
    for name, cpu in system.cpu_by_tier().items():
        usage = cpu.snapshot().usage_since(starts[name], cpu.cores)
        utilization[name] = usage.utilization
        switch_rate[name] = usage.context_switch_rate

    group = system.replica_group
    client_stats: Dict[str, float] = {}
    server_stats: Dict[str, float] = {}
    if (
        injector is not None
        or config.retry is not None
        or policy is not None
        or lazy_cohort
    ):
        client_stats = population.client_stat_totals()
        if system.dag_system is not None:
            tiers = tuple(system.dag_system.servers_by_node())
        else:
            tomcat_servers = (
                [r.server for r in group.replicas]
                if group is not None
                else [system.app_server]
            )
            tiers = (
                ("apache", [system.web_server]),
                ("tomcat", tomcat_servers),
                ("mysql", [system.db_server]),
            )
        for tier_name, tier_servers in tiers:
            server_stats[f"{tier_name}_rejected"] = float(
                sum(s.stats.requests_rejected for s in tier_servers)
            )
            server_stats[f"{tier_name}_expired"] = float(
                sum(s.stats.requests_expired for s in tier_servers)
            )
            server_stats[f"{tier_name}_aborted"] = float(
                sum(s.stats.requests_aborted for s in tier_servers)
            )
    resilience: Dict[str, float] = {}
    if policy is not None:
        if budget is not None:
            resilience.update(budget.counters())
        if system.dag_system is not None:
            pools = system.dag_system.pools()
            limiters = system.dag_system.limiters()
        elif group is None:
            pools = [system.apache_tomcat_pool, system.tomcat_db_pool]
            limiters = [system.app_server.limiter]
        else:
            pools = [p for r in group.replicas for p in (r.pool, r.db_pool)]
            limiters = [r.server.limiter for r in group.replicas]
        for pool in pools:
            if pool.breaker is not None:
                resilience.update(pool.breaker.counters())
        limiter_totals: Dict[str, float] = {}
        for limiter in limiters:
            if limiter is not None:
                for key, value in limiter.counters().items():
                    limiter_totals[key] = limiter_totals.get(key, 0.0) + value
        resilience.update(limiter_totals)
        resilience["pool_evictions"] = float(sum(p.evictions for p in pools))
    cache_stats: Dict[str, float] = {}
    cache_totals: Dict[str, float] = {}
    for tier in system.cache_tiers():
        for key, value in tier.counters().items():
            cache_totals[key] = cache_totals.get(key, 0.0) + value
    if cache_totals or system.cache_tier is not None:
        cache_stats = cache_totals
    replica_stats: Dict[str, float] = {}
    if group is not None:
        replica_stats = group.counters()
        if hedge_policy is not None:
            replica_stats.update(hedge_policy.counters())
    dag_stats: Dict[str, float] = {}
    if system.dag_system is not None:
        dag_stats = system.dag_system.counters()

    return NTierResult(
        config=config,
        report=recorder.report(),
        tier_utilization=utilization,
        tier_switch_rate=switch_rate,
        tomcat_peak_concurrency=(
            sum(p.peak_in_use for p in system.dag_system.pools())
            if system.dag_system is not None
            else sum(r.pool.peak_in_use for r in group.replicas)
            if group is not None
            else system.apache_tomcat_pool.peak_in_use
        ),
        kernel_events=env.events_processed,
        client_stats=client_stats,
        server_stats=server_stats,
        resilience=resilience,
        cache_stats=cache_stats,
        replica_stats=replica_stats,
        cohort_stats=population.cohort_stats(),
        dag_stats=dag_stats,
        faults=injector.report() if injector is not None else None,
        goodput_timeline=recorder.timeline(),
        sim_wall_s=sim_wall,
    )
