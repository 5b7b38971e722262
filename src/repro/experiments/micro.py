"""Single-server micro-benchmark runner (the paper's Sections III–V setup).

One server machine, one client machine, N closed-loop JMeter-style client
threads with zero think time, a fixed (or mixed) response size, optional
``tc``-injected network latency — exactly the apparatus behind Figures 2,
4, 6, 7, 9, 11 and Tables I–IV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cohort import CohortConfig
from repro.core.hybrid import HybridServer
from repro.cpu.scheduler import CPU
from repro.errors import ExperimentError
from repro.faults import FaultInjector, FaultPlan, FaultReport
from repro.metrics.collector import RunRecorder, RunReport
from repro.net.link import Link
from repro.resilience import ResiliencePolicy, RetryBudget
from repro.servers.base import BaseServer, ServerLimits
from repro.servers.netty import NettyServer
from repro.servers.reactor import ReactorFixServer, ReactorServer
from repro.servers.ncopy import NCopyServer
from repro.servers.singlet import SingleThreadedServer
from repro.servers.staged import StagedServer
from repro.servers.threaded import ThreadedServer
from repro.servers.tomcat import TomcatAsyncServer, TomcatSyncServer
from repro.shard import resolve_shards
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams
from repro.workload.client import ExponentialThink, RetryPolicy
from repro.workload.mixes import FixedMix, RequestMix
from repro.workload.population import ConnectionOptions, build_population

__all__ = ["MicroConfig", "MicroResult", "run_micro", "SERVER_FACTORIES", "make_server"]


def _threaded(env, cpu, config):
    return ThreadedServer(env, cpu)


def _reactor(env, cpu, config):
    return ReactorServer(env, cpu, workers=config.workers)


def _reactor_fix(env, cpu, config):
    return ReactorFixServer(env, cpu, workers=config.workers)


def _single(env, cpu, config):
    return SingleThreadedServer(env, cpu)


def _netty(env, cpu, config):
    return NettyServer(env, cpu, workers=config.netty_workers, spin_threshold=config.spin_threshold)


def _hybrid(env, cpu, config):
    return HybridServer(env, cpu, workers=config.netty_workers, spin_threshold=config.spin_threshold)


def _tomcat_sync(env, cpu, config):
    return TomcatSyncServer(env, cpu)


def _tomcat_async(env, cpu, config):
    return TomcatAsyncServer(env, cpu, workers=config.tomcat_workers)


def _staged(env, cpu, config):
    return StagedServer(env, cpu, stage_workers=max(1, config.workers // 4))


def _ncopy(env, cpu, config):
    return NCopyServer(env, cpu, copies=max(1, cpu.cores))


#: Registry of server architectures by their paper names.
SERVER_FACTORIES: Dict[str, Callable[[Environment, CPU, "MicroConfig"], BaseServer]] = {
    "sTomcat-Sync": _threaded,
    "sTomcat-Async": _reactor,
    "sTomcat-Async-Fix": _reactor_fix,
    "SingleT-Async": _single,
    "NettyServer": _netty,
    "HybridNetty": _hybrid,
    "TomcatSync": _tomcat_sync,
    "TomcatAsync": _tomcat_async,
    "Staged-SEDA": _staged,
    "N-copy": _ncopy,
}


@dataclass(frozen=True)
class MicroConfig:
    """One micro-benchmark run."""

    server: str
    concurrency: int
    response_size: int = 102
    mix: Optional[RequestMix] = None
    duration: float = 2.0
    warmup: float = 0.5
    #: Added one-way network latency (the paper's ``tc`` injection).
    added_latency: float = 0.0
    send_buffer_size: Optional[int] = None
    autotune: bool = False
    calibration: Calibration = DEFAULT_CALIBRATION
    seed: int = 1
    #: Worker pool size for the reactor architectures.  ``None`` sizes the
    #: pool to the *active* thread count a tuned Tomcat settles at under
    #: this workload: enough workers for the offered concurrency, capped
    #: at 16 (Tomcat's executor keeps most of its 200 maxThreads parked
    #: when a CPU-bound workload cannot use them; a small active pool is
    #: also what makes sTomcat-Async-Fix latency-sensitive in Figure 7 —
    #: spinning workers exhaust the pool during wait-ACK drains).
    workers_override: Optional[int] = None
    netty_workers: int = 1
    spin_threshold: Optional[int] = None
    #: Chaos plan for this run (``None`` or an all-zero plan → no fault
    #: machinery is instantiated at all; bit-identical to the default).
    fault_plan: Optional[FaultPlan] = None
    #: Client-side resilience policy (``None`` → historical client loop).
    retry: Optional[RetryPolicy] = None
    #: Server-side load-shedding limits (``None`` → unlimited).
    limits: Optional[ServerLimits] = None
    #: Cross-tier resilience policy (``None`` or all-``None`` → nothing is
    #: instantiated; bit-identical to the default).  In the single-server
    #: micro setup the ``breaker`` knob is inert (no inter-tier pools);
    #: deadline, retry budget and adaptive admission all apply.
    resilience: Optional[ResiliencePolicy] = None
    #: Mean exponential think time between a client's requests in seconds
    #: (0 keeps the paper's zero-think JMeter loop, bit-identical).
    think_mean: float = 0.0
    #: Cohort aggregation (``None`` → classic per-client population;
    #: ``materialize="always"`` routes through the classic builder too,
    #: bit-identical by construction).
    cohort: Optional[CohortConfig] = None

    @property
    def workers(self) -> int:
        if self.workers_override is not None:
            return self.workers_override
        return max(2, min(16, self.concurrency))

    @property
    def tomcat_workers(self) -> int:
        """Worker pool for the *full* TomcatAsync model (Figures 1-2).

        The real Tomcat 8 executor keeps a larger active pool than the
        simplified servers; 32 active workers reproduces its measured
        thread footprint.
        """
        if self.workers_override is not None:
            return self.workers_override
        return max(2, min(32, self.concurrency))

    def describe(self) -> str:
        """One-line human summary of this run configuration."""
        latency = f" +{self.added_latency * 1e3:g}ms" if self.added_latency else ""
        return f"{self.server} c={self.concurrency} resp={self.response_size}B{latency}"


@dataclass(frozen=True)
class MicroResult:
    """Run output: the measurement report plus server-side counters."""

    config: MicroConfig
    report: RunReport
    server_stats: Dict[str, float] = field(default_factory=dict)
    #: Aggregated resilience counters across the client population (only
    #: populated when the run used a retry policy or fault injection).
    client_stats: Dict[str, float] = field(default_factory=dict)
    #: Fault-injection report (``None`` for clean runs).
    faults: Optional[FaultReport] = None
    #: Resilience-machinery counters (budget/limiter/expiry); only
    #: populated when the run used a :class:`ResiliencePolicy`, so the
    #: default result shape — and every golden digest — is unchanged.
    resilience: Dict[str, float] = field(default_factory=dict)
    #: Aggregate-cohort counters; only populated when the run used a
    #: lazy :class:`~repro.cohort.CohortConfig` (empty otherwise, so the
    #: default result shape — and every golden digest — is unchanged).
    cohort_stats: Dict[str, float] = field(default_factory=dict)
    #: Simulation events processed by the kernel during this run.  A pure
    #: function of the config, so it participates in equality (serial,
    #: parallel and cached runs must agree on it).
    kernel_events: int = 0
    #: Host wall-clock seconds spent inside ``env.run`` (simulation only —
    #: excludes model construction and report aggregation).  Wall clock is
    #: not deterministic, so it is excluded from equality.
    sim_wall_s: float = field(default=0.0, compare=False)
    #: Per-shard kernel accounting (tuple of
    #: :class:`repro.shard.ShardStats`); empty for serial runs.  Event
    #: counts differ from the serial kernel's (cut-edge bookkeeping), and
    #: stall times are wall clock, so the whole breakdown is excluded
    #: from equality.
    shard_events: "tuple" = field(default=(), compare=False)

    @property
    def events_per_sec(self) -> float:
        """Kernel events per wall-clock second (0 when unmeasurable)."""
        if self.sim_wall_s <= 0.0:
            return 0.0
        return self.kernel_events / self.sim_wall_s

    @property
    def throughput(self) -> float:
        return self.report.throughput

    @property
    def response_time(self) -> float:
        return self.report.response_time_mean


def suggest_timing(
    concurrency: int,
    response_size: int,
    calibration: Calibration = DEFAULT_CALIBRATION,
    min_measure: float = 2.0,
) -> "tuple[float, float]":
    """(duration, warmup) long enough for a stable closed-loop measurement.

    With zero think time the expected response time is roughly the
    concurrency times the per-request CPU demand; the warm-up must cover
    at least one full population cycle (so the pipeline is in steady
    state) and the measurement window a couple more.
    """
    per_request = (
        calibration.request_cpu_cost(response_size)
        + calibration.copy_cost_per_byte * response_size
        + 30.0e-6
    )
    rt_estimate = max(concurrency * per_request, 1e-3)
    warmup = max(0.5, 1.3 * rt_estimate)
    measure = max(min_measure, 2.5 * rt_estimate)
    return warmup + measure, warmup


def make_server(name: str, env: Environment, cpu: CPU, config: "MicroConfig") -> BaseServer:
    """Instantiate the architecture called ``name`` in the paper."""
    try:
        factory = SERVER_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(SERVER_FACTORIES))
        raise ExperimentError(f"unknown server {name!r}; known: {known}") from None
    return factory(env, cpu, config)


def server_counters(server: BaseServer) -> Dict[str, float]:
    """A micro run's ``server_stats``: request, write and shedding
    counters, plus the light/heavy path split of a HybridNetty."""
    stats = {
        "requests_completed": float(server.stats.requests_completed),
        "responses_written": float(server.stats.responses_written),
        "spin_jumpouts": float(server.stats.spin_jumpouts),
        "reclassifications": float(server.stats.reclassifications),
        "requests_rejected": float(server.stats.requests_rejected),
        "requests_aborted": float(server.stats.requests_aborted),
        "connections_refused": float(server.stats.connections_refused),
    }
    if isinstance(server, HybridServer):
        stats["light_path_requests"] = float(server.light_path_requests)
        stats["heavy_path_requests"] = float(server.heavy_path_requests)
        stats["light_path_fallbacks"] = float(server.light_path_fallbacks)
    return stats


def run_micro(
    config: MicroConfig, streaming: bool = False, shards: Optional[int] = None
) -> MicroResult:
    """Run one micro-benchmark and return its measurements.

    ``streaming=True`` records measurements with fixed-memory P² samplers
    (moments exact, percentiles estimated); the default keeps raw samples
    for exact percentiles.  The simulation itself is bit-identical either
    way — only the measurement sampler changes.

    ``shards`` (default: the ``REPRO_SHARDS`` environment variable)
    partitions the run into client/server kernel islands executed in
    separate processes with conservative synchronization — same digests,
    more cores.  Configurations the partitioner cannot prove safe fall
    back to the serial kernel.
    """
    if config.concurrency < 1:
        raise ExperimentError(f"concurrency must be >= 1, got {config.concurrency!r}")
    if config.duration <= config.warmup:
        raise ExperimentError("duration must exceed warmup")
    requested = resolve_shards(shards)
    if requested > 1:
        from repro.shard.runtime import run_micro_sharded

        sharded = run_micro_sharded(config, requested, streaming)
        if sharded is not None:
            return sharded
    calib = config.calibration
    env = Environment()
    cpu = CPU(env, calib, name=f"{config.server}-cpu")
    server = make_server(config.server, env, cpu, config)
    policy = config.resilience if (
        config.resilience is not None and config.resilience.enabled
    ) else None
    limits = config.limits
    if policy is not None and policy.admission is not None:
        limits = replace(limits or ServerLimits(), adaptive=policy.admission)
    if limits is not None:
        server.limits = limits
    budget: Optional[RetryBudget] = None
    deadline: Optional[float] = None
    if policy is not None:
        deadline = policy.deadline
        if policy.retry_budget is not None:
            budget = RetryBudget(policy.retry_budget)
    link = Link.lan(calib, added_latency=config.added_latency)
    cohort = config.cohort
    lazy_cohort = cohort is not None and cohort.lazy_active()
    if lazy_cohort and config.concurrency >= cohort.streaming_threshold:
        # Bounded-heap measurement for bounded-heap populations.
        streaming = True
    recorder = RunRecorder(env, warmup=config.warmup, streaming=streaming)
    recorder.watch_cpu(cpu)
    mix = config.mix or FixedMix(config.response_size)
    seeds = SeedStreams(config.seed)
    injector: Optional[FaultInjector] = None
    if config.fault_plan is not None and config.fault_plan.enabled:
        injector = FaultInjector(env, config.fault_plan, seeds.fork("faults"))
        injector.start_stalls(cpu)
    population = build_population(
        env,
        server,
        size=config.concurrency,
        mix=mix,
        link=link,
        calibration=calib,
        seeds=seeds,
        recorder=recorder,
        options=ConnectionOptions(
            send_buffer_size=config.send_buffer_size, autotune=config.autotune
        ),
        think=(
            ExponentialThink(config.think_mean) if config.think_mean > 0 else None
        ),
        ramp_up=config.warmup * 0.8,
        faults=injector,
        retry=config.retry,
        budget=budget,
        deadline=deadline,
        cohort=cohort,
    )
    sim_start = time.perf_counter()
    env.run(until=config.duration)
    sim_wall = time.perf_counter() - sim_start
    client_stats: Dict[str, float] = {}
    if (
        injector is not None
        or config.retry is not None
        or policy is not None
        or lazy_cohort
    ):
        client_stats = population.client_stat_totals()
    resilience: Dict[str, float] = {}
    if policy is not None:
        if budget is not None:
            resilience.update(budget.counters())
        if server.limiter is not None:
            resilience.update(server.limiter.counters())
        resilience["requests_expired"] = float(server.stats.requests_expired)
    return MicroResult(
        config=config,
        report=recorder.report(),
        server_stats=server_counters(server),
        client_stats=client_stats,
        faults=injector.report() if injector is not None else None,
        resilience=resilience,
        cohort_stats=population.cohort_stats(),
        kernel_events=env.events_processed,
        sim_wall_s=sim_wall,
    )
