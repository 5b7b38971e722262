"""Single-server micro-benchmark runner (the paper's Sections III–V setup).

One server machine, one client machine, N closed-loop JMeter-style client
threads with zero think time, a fixed (or mixed) response size, optional
``tc``-injected network latency — exactly the apparatus behind Figures 2,
4, 6, 7, 9, 11 and Tables I–IV.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cohort import CohortConfig
from repro.core.hybrid import HybridServer
from repro.cpu.scheduler import CPU
from repro.errors import ExperimentError
from repro.faults import FaultPlan
from repro.net.link import Link
from repro.resilience import ResiliencePolicy
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
from repro.workload.client import ExponentialThink, RetryPolicy
from repro.workload.harness import RunResult, run_system
from repro.workload.mixes import FixedMix, RequestMix
from repro.workload.population import ConnectionOptions

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
    return NettyServer(env, cpu, spin_threshold=config.spin_threshold)


def _hybrid(env, cpu, config):
    return HybridServer(env, cpu, spin_threshold=config.spin_threshold)


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
    spin_threshold: Optional[int] = None
    #: Chaos plan for this run (``None`` or an all-zero plan → no fault
    #: machinery is instantiated at all; bit-identical to the default).
    #: Stall windows seize the server's CPU; a crash or degrade window
    #: raises before the run, since one server has no instance to target.
    fault_plan: Optional[FaultPlan] = None
    #: Client-side resilience policy (``None`` → historical client loop).
    retry: Optional[RetryPolicy] = None
    #: Server-side load-shedding limits (``None`` → unlimited; N-copy
    #: takes none).
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
        """Worker pool size for the reactor architectures.

        The *active* thread count a tuned Tomcat settles at under this
        workload: enough workers for the offered concurrency, capped at
        16 (Tomcat's executor keeps most of its 200 maxThreads parked when
        a CPU-bound workload cannot use them; a small active pool is also
        what makes sTomcat-Async-Fix latency-sensitive in Figure 7 —
        spinning workers exhaust the pool during wait-ACK drains).
        """
        return max(2, min(16, self.concurrency))

    @property
    def tomcat_workers(self) -> int:
        """Worker pool for the *full* TomcatAsync model (Figures 1-2).

        The real Tomcat 8 executor keeps a larger active pool than the
        simplified servers; 32 active workers reproduces its measured
        thread footprint.
        """
        return max(2, min(32, self.concurrency))


#: A micro run's result: the shared run result, always with
#: ``server_stats`` filled and the chain's counters empty.
MicroResult = RunResult


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


class _MicroSystem:
    """One server on one CPU: the system a micro run drives.

    Answers :func:`~repro.workload.harness.run_system`'s queries.
    """

    def __init__(self, env: Environment, config: MicroConfig):
        self.config = config
        self.app_cpu = CPU(env, config.calibration, name=f"{config.server}-cpu")
        self.front_server = make_server(config.server, env, self.app_cpu, config)

    def crash_targets(self) -> "list":
        # One server is no instance a crash or degrade window may take
        # down, so a plan that holds one fails the injector's range check.
        return []

    def start(self, policy, budget, mix) -> None:
        limits = self.config.limits
        if policy is not None and policy.admission is not None:
            limits = replace(limits or ServerLimits(), adaptive=policy.admission)
        if limits is not None:
            self.front_server.limits = limits

    def watch(self) -> None:
        pass

    def resilience_counters(self) -> Dict[str, float]:
        server = self.front_server
        counters = server.limiter.counters() if server.limiter is not None else {}
        counters["requests_expired"] = float(server.stats.requests_expired)
        return counters

    def finish(self, reported: bool) -> Dict[str, object]:
        return {"server_stats": server_counters(self.front_server)}


def run_micro(config: MicroConfig, shards: Optional[int] = None) -> MicroResult:
    """Run one micro-benchmark and return its measurements.

    A lazy cohort of at least ``STREAMING_THRESHOLD`` clients is recorded
    with fixed-memory P² samplers (moments exact, percentiles estimated);
    every other run keeps raw samples for exact percentiles.

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
    if config.server == "N-copy" and (
        config.limits is not None
        or (config.resilience is not None and config.resilience.admission is not None)
    ):
        # The limits would land on the wrapper, which serves nothing
        # itself: the run would go unshed.
        raise ExperimentError("N-copy takes no server limits or admission policy")
    requested = resolve_shards(shards)
    if requested > 1:
        from repro.shard.runtime import run_micro_sharded

        sharded = run_micro_sharded(config, requested)
        if sharded is not None:
            return sharded
    env = Environment()
    return run_system(
        config,
        env,
        _MicroSystem(env, config),
        size=config.concurrency,
        mix=config.mix or FixedMix(config.response_size),
        link=Link.lan(config.calibration, added_latency=config.added_latency),
        think=ExponentialThink(config.think_mean) if config.think_mean > 0 else None,
        options=ConnectionOptions(
            send_buffer_size=config.send_buffer_size, autotune=config.autotune
        ),
        timeline_bucket=0.0,
        result=RunResult,
    )
