"""Island builders: per-shard slices of the serial topologies.

Each builder reproduces the serial runner's construction *subsequence*
for its island — same statements, same relative order — because
construction order draws connection ids, forks RNG streams and schedules
build-time events, and same-time events process in insertion order.
Comments of the form "serial: ..." anchor each block to the step of
:func:`repro.workload.harness.run_system` (or of the system a runner
hands it) that it mirrors.

A builder returns ``(island, finish)`` where ``finish()`` — called after
the epilogue ``run(until=duration)`` — computes exactly the result
fragments the serial runner would have computed from this island's
objects, as one picklable dict.
"""

from __future__ import annotations

from typing import Dict

from repro.cohort.config import STREAMING_THRESHOLD
from repro.cpu.scheduler import CPU
from repro.net.link import Link
from repro.shard.channels import Island

__all__ = [
    "build_micro_client",
    "build_micro_server",
    "build_ntier_client",
    "build_ntier_backend",
    "build_ntier_apache",
    "build_ntier_tomcat",
    "build_ntier_mysql",
]


class _CpuWatch:
    """Mirror of ``RunRecorder.watch_cpu`` for a CPU on a server island.

    Schedules the same warm-up boundary timeout at the same construction
    point, snapshots the CPU when it fires, and reproduces ``report()``'s
    usage computation (including its positive-window guard) at finish.
    """

    def __init__(self, env, cpu, warmup: float):
        self.cpu = cpu
        self.start = None
        if env.now >= warmup:
            self.start = cpu.snapshot()
        else:
            boundary = env.timeout(warmup - env.now)
            boundary.callbacks.append(self._begin)

    def _begin(self, _event) -> None:
        if self.start is None:
            self.start = self.cpu.snapshot()

    def usage(self):
        if self.start is None:
            return None
        end = self.cpu.snapshot()
        if end.time > self.start.time:
            return end.usage_since(self.start, self.cpu.cores)
        return None


# ----------------------------------------------------------------------
# Micro: [clients | server]
# ----------------------------------------------------------------------

def build_micro_client(config):
    """Client island: the population half of a micro run."""
    from repro.experiments.micro import run_micro  # noqa: F401  (doc anchor)
    from repro.metrics.collector import RunRecorder
    from repro.sim.core import Environment
    from repro.sim.rng import SeedStreams
    from repro.workload.client import ExponentialThink
    from repro.workload.mixes import FixedMix
    from repro.workload.population import ConnectionOptions, build_population

    calib = config.calibration
    env = Environment()
    island = Island(env, 0, "clients")
    # serial: link / cohort flags / recorder (watch_cpu is server-side:
    # without a watched CPU the recorder's measurement window is opened
    # by its own now>=warmup check, at the same records).
    link = Link.lan(calib, added_latency=config.added_latency)
    cohort = config.cohort
    lazy_cohort = cohort is not None and cohort.lazy_active()
    recorder = RunRecorder(
        env,
        warmup=config.warmup,
        streaming=lazy_cohort and config.concurrency >= STREAMING_THRESHOLD,
    )
    mix = config.mix or FixedMix(config.response_size)
    seeds = SeedStreams(config.seed)
    # Classic populations (and eager cohort bundles) connect at build
    # time — the server island pre-attaches matching edges, so no
    # announcement crosses the cut; demand-grown cohort connections are
    # created during the run and must announce.
    announce = lazy_cohort and not cohort.eager_connections
    population = build_population(
        env,
        None,
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
        cohort=cohort,
        connect=lambda index: island.make_stub(0, link, announce=announce),
    )

    def finish():
        client_stats: Dict[str, float] = {}
        if lazy_cohort:
            client_stats = population.client_stat_totals()
        return {
            "report": recorder.report(),
            "client_stats": client_stats,
            "cohort_stats": population.cohort_stats(),
        }

    return island, finish


def build_micro_server(config):
    """Server island: the CPU + server half of a micro run."""
    from repro.experiments.micro import make_server, server_counters
    from repro.sim.core import Environment

    calib = config.calibration
    env = Environment()
    island = Island(env, 1, "server")
    # serial: cpu / server / link / recorder.watch_cpu(cpu).
    cpu = CPU(env, calib, name=f"{config.server}-cpu")
    server = make_server(config.server, env, cpu, config)
    link = Link.lan(calib, added_latency=config.added_latency)
    watch = _CpuWatch(env, cpu, config.warmup)
    # serial: build_population attaches one connection per client here.
    island.serve_cut(0, server, link, calib, send_buffer_size=config.send_buffer_size)
    cohort = config.cohort
    lazy_cohort = cohort is not None and cohort.lazy_active()
    if not lazy_cohort:
        island.attach_edges(0, config.concurrency)
    elif cohort.eager_connections:
        # serial: Cohort.__init__ opens min(max_inflight, size) at build.
        island.attach_edges(0, min(cohort.max_inflight, config.concurrency))

    def finish():
        return {"server_stats": server_counters(server), "report_cpu": watch.usage()}

    return island, finish


# ----------------------------------------------------------------------
# N-tier: [clients | ...tiers], cut 0 = client→apache,
# cut 1 = apache→tomcat, cut 2 = tomcat→mysql
# ----------------------------------------------------------------------

def _ntier_lazy_cohort(config) -> bool:
    return config.cohort is not None and config.cohort.lazy_active()


def _tier_fragments(env, config, cpus, server_tiers):
    """Watch this island's tiers as :meth:`ThreeTierSystem.watch` does;
    returns the finish-time fragment maker.

    Per-tier server counters are reported only for a lazy cohort: the
    partitioner sends no run with faults, retries or resilience here,
    and those are the serial runner's other reasons to report them.
    """
    from repro.ntier.topology import TierUsage, tier_server_stats

    usage = TierUsage(env, cpus, config.warmup)
    lazy_cohort = _ntier_lazy_cohort(config)

    def fragments() -> Dict[str, object]:
        utilization, switch_rate = usage.measure()
        return {
            "tier_utilization": utilization,
            "tier_switch_rate": switch_rate,
            "server_stats": tier_server_stats(server_tiers) if lazy_cohort else {},
        }

    return fragments


def build_ntier_client(config):
    """Client island: the user population of an n-tier run."""
    from repro.metrics.collector import RunRecorder
    from repro.sim.core import Environment
    from repro.sim.rng import SeedStreams
    from repro.workload.client import ExponentialThink
    from repro.workload.population import build_population
    from repro.workload.rubbos import RubbosMix

    calib = config.calibration
    env = Environment()
    island = Island(env, 0, "clients")
    lazy_cohort = _ntier_lazy_cohort(config)
    recorder = RunRecorder(
        env,
        warmup=config.warmup,
        streaming=lazy_cohort and config.users >= STREAMING_THRESHOLD,
        timeline_bucket=config.timeline_bucket,
    )
    seeds = SeedStreams(config.seed)
    mix = config.mix if config.mix is not None else RubbosMix()
    client_link = Link.lan(calib, added_latency=config.client_latency)
    population = build_population(
        env,
        None,
        size=config.users,
        mix=mix,
        link=client_link,
        calibration=calib,
        seeds=seeds,
        recorder=recorder,
        think=ExponentialThink(config.think_mean),
        ramp_up=config.warmup * 0.8,
        cohort=config.cohort,
        connect=lambda index: island.make_stub(
            0, client_link, announce=lazy_cohort and not config.cohort.eager_connections
        ),
    )

    def finish():
        client_stats: Dict[str, float] = {}
        if lazy_cohort:
            client_stats = population.client_stat_totals()
        return {
            "report": recorder.report(),
            "client_stats": client_stats,
            "cohort_stats": population.cohort_stats(),
            "goodput_timeline": recorder.timeline(),
        }

    return island, finish


def _serve_client_cut(island, config, front_server, calib) -> None:
    """Terminate cut 0 — the mirror of ``build_population``'s attaches."""
    client_link = Link.lan(calib, added_latency=config.client_latency)
    island.serve_cut(0, front_server, client_link, calib)
    if not _ntier_lazy_cohort(config):
        island.attach_edges(0, config.users)
    elif config.cohort.eager_connections:
        # serial: Cohort.__init__ opens min(max_inflight, size) at build.
        island.attach_edges(0, min(config.cohort.max_inflight, config.users))


def build_ntier_backend(config):
    """2-way partition: the whole server side, built verbatim."""
    from repro.ntier.topology import ThreeTierSystem
    from repro.sim.core import Environment
    from repro.workload.rubbos import RubbosMix

    calib = config.calibration
    env = Environment()
    island = Island(env, 1, "backend")
    system = ThreeTierSystem(env, config)
    # serial: recorder.watch_cpu(system.app_cpu)
    watch = _CpuWatch(env, system.app_cpu, config.warmup)
    # serial: system.start — no policy reaches a sharded run.
    system.start(None, None, config.mix if config.mix is not None else RubbosMix())
    _serve_client_cut(island, config, system.front_server, calib)
    system.watch()

    def finish():
        return {
            **system.finish(_ntier_lazy_cohort(config)),
            "report_cpu": watch.usage(),
        }

    return island, finish


def build_ntier_apache(config, index: int):
    """Apache island: the web tier of a 3+-way partition."""
    from repro.ntier.applications import ProxyApplication
    from repro.ntier.pool import ConnectionPool
    from repro.ntier.topology import POOL_SIZE
    from repro.servers.threaded import ThreadedServer
    from repro.sim.core import Environment

    calib = config.calibration
    env = Environment()
    island = Island(env, index, "apache")
    # serial (ThreeTierSystem._build_chain, one slice): web_cpu /
    # tier_link / the slice's Apache-side pool / web_server — the db and
    # tomcat statements in between build no apache-island object.
    web_cpu = CPU(env, calib, name="apache-cpu")
    tier_link = Link.lan(calib, added_latency=config.inter_tier_latency)
    apache_tomcat_pool = ConnectionPool(
        env,
        None,
        POOL_SIZE,
        tier_link,
        calib,
        connect=lambda i: island.make_stub(1, tier_link, announce=False),
    )
    web_server = ThreadedServer(
        env, web_cpu, app=ProxyApplication(apache_tomcat_pool), name="apache"
    )
    _serve_client_cut(island, config, web_server, calib)
    tier_fragments = _tier_fragments(
        env, config, {"apache": web_cpu}, [("apache", [web_server])]
    )

    def finish():
        return {
            **tier_fragments(),
            "tomcat_peak_concurrency": apache_tomcat_pool.peak_in_use,
        }

    return island, finish


def build_ntier_tomcat(config, index: int, include_db: bool):
    """Tomcat island (optionally bundling mysql when *include_db*)."""
    from repro.ntier.applications import QueryApplication
    from repro.ntier.pool import ConnectionPool
    from repro.ntier.topology import POOL_SIZE, build_tomcat
    from repro.servers.threaded import ThreadedServer
    from repro.sim.core import Environment
    from repro.workload.rubbos import RubbosMix

    calib = config.calibration
    env = Environment()
    island = Island(env, index, "backend" if include_db else "tomcat")
    # serial (ThreeTierSystem._build_chain, one slice) order restricted
    # to this island's tiers.
    db_cpu = CPU(env, calib, name="mysql-cpu") if include_db else None
    app_cpu = CPU(env, calib, name="tomcat-cpu")
    tier_link = Link.lan(calib, added_latency=config.inter_tier_latency)
    db_server = None
    if include_db:
        db_server = ThreadedServer(
            env, db_cpu, app=QueryApplication(), name="mysql"
        )
        tomcat_db_pool = ConnectionPool(
            env, db_server, POOL_SIZE, tier_link, calib
        )
    else:
        tomcat_db_pool = ConnectionPool(
            env,
            None,
            POOL_SIZE,
            tier_link,
            calib,
            connect=lambda i: island.make_stub(2, tier_link, announce=False),
        )
    app_server, cache_tier = build_tomcat(
        env, config, "tomcat", app_cpu, tomcat_db_pool, ("keys",)
    )
    # serial: the apache_tomcat_pool's connections attach here.
    island.serve_cut(1, app_server, tier_link, calib)
    island.attach_edges(1, POOL_SIZE)
    # serial: recorder.watch_cpu(system.app_cpu) / cache prewarm.
    watch = _CpuWatch(env, app_cpu, config.warmup)
    if cache_tier is not None and config.cache.prewarm:
        mix = config.mix if config.mix is not None else RubbosMix()
        cache_tier.prewarm_from_mix(mix)
    cpus = {"tomcat": app_cpu}
    server_tiers = [("tomcat", [app_server])]
    if include_db:
        cpus["mysql"] = db_cpu
        server_tiers.append(("mysql", [db_server]))
    tier_fragments = _tier_fragments(env, config, cpus, server_tiers)

    def finish():
        return {
            **tier_fragments(),
            "cache_stats": cache_tier.counters() if cache_tier is not None else {},
            "report_cpu": watch.usage(),
        }

    return island, finish


def build_ntier_mysql(config, index: int):
    """MySQL island: the db tier of a 4-way partition."""
    from repro.ntier.applications import QueryApplication
    from repro.ntier.topology import POOL_SIZE
    from repro.servers.threaded import ThreadedServer
    from repro.sim.core import Environment

    calib = config.calibration
    env = Environment()
    island = Island(env, index, "mysql")
    db_cpu = CPU(env, calib, name="mysql-cpu")
    tier_link = Link.lan(calib, added_latency=config.inter_tier_latency)
    db_server = ThreadedServer(env, db_cpu, app=QueryApplication(), name="mysql")
    # serial: the tomcat_db_pool's connections attach here.
    island.serve_cut(2, db_server, tier_link, calib)
    island.attach_edges(2, POOL_SIZE)
    return island, _tier_fragments(
        env, config, {"mysql": db_cpu}, [("mysql", [db_server])]
    )
