"""Sharded-kernel extension artifact: wall clock vs. shard count.

The sharded kernel (:mod:`repro.shard`) is a *performance* feature with
a hard determinism contract, so this artifact makes two different kinds
of claims and keeps them separate:

* **host-independent** — sharded runs are bit-identical to the serial
  kernel (same report, same counters), and configurations outside the
  partitioner's proven-safe envelope fall back to the serial kernel
  rather than risk a divergence.  These checks hold anywhere.
* **host-dependent** — wall-clock speedup.  Island wall-clock
  parallelism needs one core per island; on fewer cores the worker
  processes time-slice and the honest ceiling is ~1x minus barrier
  overhead.  The speedup check therefore gates >= 1.5x only where
  ``os.cpu_count()`` can host the 4-island partition, and degrades to a
  bounded-sync-overhead check (sharded wall <= 1.5x serial) on smaller
  hosts — the table reports the measured walls either way, honestly.

Two shapes are swept over shard counts:

* the **1M-cohort n-tier** shape (the million-client scouting regime
  through the full 3-tier chain, eager connection bundle, WAN-ish cut
  latencies) — the headline target the ROADMAP names;
* a **wide DAG** (six-leaf compose fan-out), which the partitioner
  slices only at the client edge (the fan-out stays island-local), so
  its two-island row mostly measures sync overhead on a
  backend-dominated workload.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

from repro.cohort import CohortConfig
from repro.dag import DagConfig, Edge, ServiceNode
from repro.experiments.results import ArtifactResult
from repro.ntier.topology import NTierConfig, NTierResult, run_ntier
from repro.workload.client import RetryPolicy
from repro.workload.mixes import FixedMix

__all__ = ["shard_speedup"]

_DURATION = 6.0
_WARMUP = 2.0
_THINK_MEAN = 400.0
#: Cores needed before the 4-island partition can show wall-clock
#: parallelism (one per island; the hub shares the client island's core).
_SPEEDUP_CORES = 4
#: Sync-overhead ceiling asserted where the speedup cannot be: a sharded
#: run on a time-sliced host must stay within 50% of the serial wall.
_OVERHEAD_CEILING = 1.5


def _cohort_config(users: int) -> NTierConfig:
    return NTierConfig(
        "async",
        users=users,
        think_mean=_THINK_MEAN,
        duration=_DURATION,
        warmup=_WARMUP,
        client_latency=0.02,
        inter_tier_latency=0.01,
        cohort=CohortConfig(
            max_inflight=1024, first_think=True, eager_connections=True
        ),
    )


def _dag_config(scale: float) -> NTierConfig:
    leaves = ("text", "media", "graph", "feed", "ads", "search")
    return NTierConfig(
        "async",
        users=60,
        think_mean=0.05,
        duration=0.5 + 2.5 * scale,
        warmup=0.3,
        client_latency=0.005,
        mix=FixedMix(2048),
        seed=11,
        dag=DagConfig(
            entry="compose",
            nodes=(
                ServiceNode(
                    name="compose",
                    edges=tuple(Edge(leaf) for leaf in leaves),
                    fan_in="wait_all",
                    service_cpu=100.0e-6,
                ),
            ) + tuple(
                ServiceNode(name=leaf, service_cpu=200.0e-6)
                for leaf in leaves
            ),
        ),
    )


def _timed(config: NTierConfig, shards: int) -> Tuple[float, NTierResult]:
    started = time.perf_counter()
    result = run_ntier(config, shards=shards)
    return time.perf_counter() - started, result


def _same_measurements(a: NTierResult, b: NTierResult) -> bool:
    """The digest-pinned fragments, compared directly."""
    return (
        a.report == b.report
        and a.server_stats == b.server_stats
        and a.client_stats == b.client_stats
        and a.cohort_stats == b.cohort_stats
        and a.dag_stats == b.dag_stats
        and a.tier_utilization == b.tier_utilization
    )


def shard_speedup(
    scale: float = 1.0, jobs: Optional[int] = None
) -> ArtifactResult:
    """Wall-clock vs. shard count for the sharded parallel kernel.

    ``jobs`` is accepted for registry-signature uniformity; every cell is
    a single top-level process (the sharded kernel forks its own island
    workers, and the wall-clock measurements *are* the artifact).
    """
    del jobs
    cores = os.cpu_count() or 1
    users = max(20_000, int(round(1_000_000 * scale)))

    result = ArtifactResult(
        artifact="shard",
        title="Sharded parallel DES kernel: wall clock vs. shard count",
        paper_claim="Extension beyond the paper: partitioning a run's "
        "topology at its nonzero-latency links into per-process kernel "
        "islands with conservative (lookahead-window) synchronization "
        "is bit-identical to the serial kernel and turns one large run "
        "into a multi-core job; a 1M-cohort 3-tier run splits into "
        "[clients | apache | tomcat | mysql] islands",
        headers=[
            "config",
            "shards",
            "islands",
            "wall s",
            "speedup",
            "events",
            "stall s",
            "completed",
        ],
    )

    # ------------------------------------------------------------------
    # 1M-cohort n-tier shape, interleaved serial / 2 / 4.
    # ------------------------------------------------------------------
    cohort_cfg = _cohort_config(users)
    serial_wall, serial_run = _timed(cohort_cfg, 1)
    walls = {}
    runs = {}
    for shards in (2, 4):
        walls[shards], runs[shards] = _timed(cohort_cfg, shards)
    result.add_row(
        "ntier 1M-cohort", 1, 1, serial_wall, 1.0,
        serial_run.kernel_events, None, serial_run.report.completed,
    )
    for shards in (2, 4):
        run = runs[shards]
        stats = run.shard_events
        result.add_row(
            "ntier 1M-cohort", shards, len(stats), walls[shards],
            serial_wall / walls[shards] if walls[shards] > 0 else 0.0,
            run.kernel_events,
            sum(s.stall_s for s in stats),
            run.report.completed,
        )
    result.check(
        "sharded runs are bit-identical to the serial kernel "
        "(same report, same counters, 2 and 4 islands)",
        all(
            run.shard_events and _same_measurements(run, serial_run)
            for run in runs.values()
        ),
        f"{serial_run.report.completed:,} completions on every row",
    )

    best_wall = min(walls.values())
    speedup = serial_wall / best_wall if best_wall > 0 else 0.0
    if cores >= _SPEEDUP_CORES:
        result.check(
            "the best sharded run is >= 1.5x faster than serial "
            f"(host has {cores} cores)",
            speedup >= 1.5,
            f"{serial_wall:.2f}s serial vs {best_wall:.2f}s sharded "
            f"({speedup:.2f}x)",
        )
    else:
        result.check(
            "barrier-sync overhead is bounded: sharded wall <= "
            f"{_OVERHEAD_CEILING:g}x serial on a {cores}-core host "
            "(island parallelism needs one core per island, so the "
            "speedup claim is untestable here)",
            best_wall <= _OVERHEAD_CEILING * serial_wall,
            f"{serial_wall:.2f}s serial vs {best_wall:.2f}s sharded "
            f"({speedup:.2f}x on {cores} core(s))",
        )

    # ------------------------------------------------------------------
    # Wide DAG shape: the partitioner slices only at the client edge.
    # ------------------------------------------------------------------
    dag_cfg = _dag_config(scale)
    dag_serial_wall, dag_serial = _timed(dag_cfg, 1)
    dag_wall, dag_run = _timed(dag_cfg, 2)
    result.add_row(
        "dag wide fan-out", 1, 1, dag_serial_wall, 1.0,
        dag_serial.kernel_events, None, dag_serial.report.completed,
    )
    dag_stats = dag_run.shard_events
    result.add_row(
        "dag wide fan-out", 2, len(dag_stats), dag_wall,
        dag_serial_wall / dag_wall if dag_wall > 0 else 0.0,
        dag_run.kernel_events,
        sum(s.stall_s for s in dag_stats),
        dag_run.report.completed,
    )
    result.check(
        "the wide-DAG run shards at the client edge and stays "
        "bit-identical",
        bool(dag_stats) and _same_measurements(dag_run, dag_serial),
        f"{len(dag_stats)} islands, "
        f"{dag_run.report.completed:,} completions both rows",
    )

    # ------------------------------------------------------------------
    # Safety envelope: an excluded config must fall back to serial.
    # ------------------------------------------------------------------
    unsafe = NTierConfig(
        "async", users=40, think_mean=0.5, duration=1.0, warmup=0.3,
        retry=RetryPolicy(),
    )
    fallback = run_ntier(unsafe, shards=4)
    result.check(
        "configs outside the proven-safe envelope (here: a retry "
        "policy) fall back to the serial kernel instead of sharding",
        not fallback.shard_events,
        "retry-policy run produced no island stats",
    )

    for stat in runs[4].shard_events:
        result.add_counter(f"island_{stat.name}_events", float(stat.events))
        result.add_counter(f"island_{stat.name}_stall_s", stat.stall_s)
    result.add_counter("barriers", float(runs[4].shard_events[0].barriers))
    result.add_counter("host_cores", float(cores))
    result.note(
        f"scenario: {users:,} users, mean think {_THINK_MEAN:g}s against "
        f"a {_DURATION:g}s run ({_WARMUP:g}s warmup), 20 ms client / "
        "10 ms inter-tier one-way latency; the cut-link latencies set "
        "the conservative lookahead, so barrier count ~= duration / "
        "min(cut latency)"
    )
    result.note(
        "wall-clock speedup is a host property: each island needs its "
        "own core.  The per-island event split (see counters) is what "
        "the simulation guarantees; on this host "
        f"({cores} core(s)) the rows "
        + ("show real parallelism" if cores >= _SPEEDUP_CORES else
           "time-slice one core, so they show sync overhead, not speedup")
    )
    result.note("REPRO_SHARDS=N / --shards N is the opt-in")
    return result
