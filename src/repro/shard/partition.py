"""Partition validators: which configurations may shard, and how far.

The v1 partitioner only cuts edges that are plain latency links with no
teardown traffic: no fault plans (connection kills cross the cut), no
client retries or resilience policies (deadline-triggered closes and
budget state are global), no server limits, no autotuning (the forced fast path on cut edges models a
non-autotuned buffer), and no replica groups (the balancer's health
state spans the apache/tomcat cut).  Anything outside that envelope
returns 0 — run serial — rather than risk a digest divergence.

Cohort populations shard cleanly *when* those same exclusions hold: with
no faults and no retry policy the cohort never materializes episodes and
never aborts, so its connections are plain closed-loop senders.  One
extra rule applies to the cohort's *demand-grown* connection bundle: a
mid-run ``server.attach`` lands one cut latency later than serial's
instantaneous attach, which is only harmless when attach has no
server-side cost footprint — i.e. the front server is ``passive_attach``
(selector-registration only).  Thread-per-connection fronts spawn a
handler thread at attach, shifting the live-thread footprint factor for
a window and perturbing every CPU charge in it; dynamic cohorts over
such fronts run serial.  An ``eager_connections`` cohort opens its whole
bundle at build time (before the clock starts), so it shards over any
front.
"""

from __future__ import annotations

__all__ = ["micro_islands", "ntier_islands"]


def _cohort_dynamic(cohort) -> bool:
    """True when this cohort grows connections mid-run (lazy engine
    active and the bundle is not provisioned eagerly at build time)."""
    return (
        cohort is not None
        and cohort.lazy_active()
        and not cohort.eager_connections
    )


def _micro_front_passive(name: str) -> bool:
    """Whether the named micro front server's attach is selector-only."""
    from repro.core.hybrid import HybridServer
    from repro.servers.ncopy import NCopyServer
    from repro.servers.netty import NettyServer
    from repro.servers.reactor import ReactorFixServer, ReactorServer
    from repro.servers.singlet import SingleThreadedServer
    from repro.servers.staged import StagedServer
    from repro.servers.threaded import ThreadedServer
    from repro.servers.tomcat import TomcatAsyncServer, TomcatSyncServer

    classes = {
        "sTomcat-Sync": ThreadedServer,
        "sTomcat-Async": ReactorServer,
        "sTomcat-Async-Fix": ReactorFixServer,
        "SingleT-Async": SingleThreadedServer,
        "NettyServer": NettyServer,
        "HybridNetty": HybridServer,
        "TomcatSync": TomcatSyncServer,
        "TomcatAsync": TomcatAsyncServer,
        "Staged-SEDA": StagedServer,
        "N-copy": NCopyServer,
    }
    cls = classes.get(name)
    return cls is not None and cls.passive_attach


def micro_islands(config, shards: int) -> int:
    """Island count for a micro run (0 → serial fallback)."""
    if shards < 2:
        return 0
    if config.fault_plan is not None and config.fault_plan.enabled:
        return 0
    if config.retry is not None:
        return 0
    if config.limits is not None:
        return 0
    if config.resilience is not None and config.resilience.enabled:
        return 0
    if config.autotune:
        return 0
    if _cohort_dynamic(config.cohort) and not _micro_front_passive(config.server):
        return 0
    # One cut: [clients | server].  More shards than islands is fine —
    # the partition is bounded by the topology, not the request.
    return 2


def ntier_islands(config, shards: int) -> int:
    """Island count for an n-tier run (0 → serial fallback).

    The linear chain slices at its pool cuts: 2 → [clients | backend],
    3 → [clients | apache | tomcat+mysql], 4+ → [clients | apache |
    tomcat | mysql].  A DAG topology keeps its internal fan-out local
    and slices only at the client edge.
    """
    if shards < 2:
        return 0
    if config.fault_plan is not None and config.fault_plan.enabled:
        return 0
    if config.retry is not None:
        return 0
    if config.resilience is not None and config.resilience.enabled:
        return 0
    if config.replica is not None and config.replica.active:
        return 0
    # The n-tier front (apache) is thread-per-connection, so a
    # demand-grown cohort bundle cannot cross the client cut; only a
    # provisioned (eager_connections) bundle shards here.
    if _cohort_dynamic(config.cohort):
        return 0
    if config.dag is not None:
        return 2
    return min(shards, 4)
