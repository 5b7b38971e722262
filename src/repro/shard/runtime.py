"""Conservative barrier synchronization across island processes.

Hub-and-spoke: the parent process runs island 0 (always the client
island — it is the one that owns the recorder) and coordinates; each
other island runs in a forked worker connected by one duplex pipe.

Per barrier round every island reports ``(T_i, outbox_i)`` — its next
local event time and the cross-shard messages generated since the last
barrier (completion messages are flushed once their delivery time is
within ``T_i + lookahead``, which is provably final; see
``ServerEdgeConnection``).  The hub routes messages, computes

    T_eff(i) = min(T_i, earliest fire of messages routed to island i)
    T_min    = min over islands of T_eff(i)

and either finishes (``T_min > duration``: nothing at or before the end
of the run can happen anywhere) or grants the window

    stop = min(T_min + lookahead, nextafter(duration))

to every island.  Islands process events strictly before ``stop``
(:meth:`~repro.sim.core.Environment.run_window`), so an event at the
horizon itself — which a peer message could still land on — is never
processed early; the ``nextafter`` clamp makes the final windows process
events at exactly ``duration``, matching the serial inclusive
``run(until=duration)``.

Why this is safe: every message is planned at a local time ``p``
inside the granted window (``p >= T_min``) and fires at
``p + link latency >= T_min + lookahead = stop`` — never in any
receiver's past, because no island's clock passed ``stop``.  All routed
messages are delivered in the *next* directive regardless of fire time;
ones beyond the next window simply wait in the receiver's heap (and are
accounted by its next ``peek``).
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from functools import partial

from repro.errors import SimulationError
from repro.shard import ShardStats
from repro.shard.merge import merge
from repro.shard.partition import micro_islands, ntier_islands

__all__ = ["run_micro_sharded", "run_ntier_sharded"]


def _worker_main(pipe, build, duration: float, lookahead: float) -> None:
    try:
        island, finish = build()
        env = island.env
        while True:
            horizon = env.peek()
            island.flush_dones(horizon + lookahead)
            pipe.send((horizon, island.take_outbox()))
            waited = time.perf_counter()
            directive = pipe.recv()
            island.stall_s += time.perf_counter() - waited
            if directive[0] == "w":
                island.apply_inbox(directive[2])
                env.run_window(directive[1])
                island.barriers += 1
            else:  # "f"
                island.apply_inbox(directive[1])
                env.run(until=duration)
                stats = ShardStats(
                    name=island.name,
                    events=env.events_processed,
                    barriers=island.barriers,
                    stall_s=island.stall_s,
                )
                pipe.send(("r", finish(), stats))
                return
    except BaseException:
        try:
            pipe.send(("e", traceback.format_exc()))
        except Exception:
            pass


def _remote_error(detail) -> SimulationError:
    return SimulationError(f"shard worker failed:\n{detail}")


def _run_islands(hub_build, worker_builds, cuts, duration: float, lookahead: float):
    """Run one sharded simulation; returns (payloads, shard_stats, wall).

    ``cuts`` maps cut id → (upstream island, downstream island); ``conn``
    and ``req`` messages route downstream, ``done`` messages upstream.
    Returns ``None`` when worker processes cannot be spawned (the caller
    falls back to the serial kernel).
    """
    ctx = multiprocessing.get_context("fork")
    pipes = []
    procs = []
    try:
        for build in worker_builds:
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_end, build, duration, lookahead),
                daemon=True,
            )
            proc.start()
            child_end.close()
            pipes.append(parent_end)
            procs.append(proc)
    except Exception:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        return None
    count = 1 + len(pipes)
    end_clamp = math.nextafter(duration, math.inf)
    wall_start = time.perf_counter()
    try:
        island, finish = hub_build()
        env = island.env
        while True:
            horizons = [0.0] * count
            outboxes = [None] * count
            horizons[0] = env.peek()
            island.flush_dones(horizons[0] + lookahead)
            outboxes[0] = island.take_outbox()
            for i, pipe in enumerate(pipes):
                waited = time.perf_counter()
                msg = pipe.recv()
                island.stall_s += time.perf_counter() - waited
                if msg[0] == "e":
                    raise _remote_error(msg[1])
                horizons[i + 1], outboxes[i + 1] = msg
            inboxes = [[] for _ in range(count)]
            t_min = math.inf
            for sender, outbox in enumerate(outboxes):
                for msg in outbox:
                    up, down = cuts[msg[2]]
                    dest = up if msg[0] == "done" else down
                    inboxes[dest].append((sender, msg))
                    if msg[1] < horizons[dest]:
                        horizons[dest] = msg[1]
            for horizon in horizons:
                if horizon < t_min:
                    t_min = horizon
            if t_min > duration:
                for i, pipe in enumerate(pipes):
                    pipe.send(("f", inboxes[i + 1]))
                island.apply_inbox(inboxes[0])
                env.run(until=duration)
                payloads = [None] * count
                stats = [None] * count
                payloads[0] = finish()
                stats[0] = ShardStats(
                    name=island.name,
                    events=env.events_processed,
                    barriers=island.barriers,
                    stall_s=island.stall_s,
                )
                for i, pipe in enumerate(pipes):
                    waited = time.perf_counter()
                    msg = pipe.recv()
                    island.stall_s += time.perf_counter() - waited
                    if msg[0] == "e":
                        raise _remote_error(msg[1])
                    _, payloads[i + 1], stats[i + 1] = msg
                wall = time.perf_counter() - wall_start
                return payloads, tuple(stats), wall
            stop = t_min + lookahead
            if stop > duration:
                stop = end_clamp
            for i, pipe in enumerate(pipes):
                pipe.send(("w", stop, inboxes[i + 1]))
            island.apply_inbox(inboxes[0])
            env.run_window(stop)
            island.barriers += 1
    finally:
        for pipe in pipes:
            pipe.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)


def run_micro_sharded(config, shards: int):
    """Sharded :func:`~repro.experiments.micro.run_micro`, or ``None``
    when this configuration must run serial."""
    from repro.shard.islands import build_micro_client, build_micro_server
    from repro.workload.harness import RunResult

    islands = micro_islands(config, shards)
    if islands < 2:
        return None
    calib = config.calibration
    lookahead = calib.lan_one_way_latency + config.added_latency
    if lookahead <= 0.0:
        return None
    out = _run_islands(
        partial(build_micro_client, config),
        [partial(build_micro_server, config)],
        {0: (0, 1)},
        config.duration,
        lookahead,
    )
    if out is None:
        return None
    return merge(config, *out, RunResult)


def run_ntier_sharded(config, shards: int):
    """Sharded :func:`~repro.ntier.topology.run_ntier`, or ``None``
    when this configuration must run serial."""
    from repro.shard.islands import (
        build_ntier_apache,
        build_ntier_backend,
        build_ntier_client,
        build_ntier_mysql,
        build_ntier_tomcat,
    )
    from repro.ntier.topology import NTierResult

    islands = ntier_islands(config, shards)
    if islands < 2:
        return None
    calib = config.calibration
    client_lookahead = calib.lan_one_way_latency + config.client_latency
    tier_lookahead = calib.lan_one_way_latency + config.inter_tier_latency
    if islands == 2:
        worker_builds = [partial(build_ntier_backend, config)]
        cuts = {0: (0, 1)}
        lookahead = client_lookahead
    elif islands == 3:
        worker_builds = [
            partial(build_ntier_apache, config, 1),
            partial(build_ntier_tomcat, config, 2, True),
        ]
        cuts = {0: (0, 1), 1: (1, 2)}
        lookahead = min(client_lookahead, tier_lookahead)
    else:
        worker_builds = [
            partial(build_ntier_apache, config, 1),
            partial(build_ntier_tomcat, config, 2, False),
            partial(build_ntier_mysql, config, 3),
        ]
        cuts = {0: (0, 1), 1: (1, 2), 2: (2, 3)}
        lookahead = min(client_lookahead, tier_lookahead)
    if lookahead <= 0.0:
        return None
    out = _run_islands(
        partial(build_ntier_client, config),
        worker_builds,
        cuts,
        config.duration,
        lookahead,
    )
    if out is None:
        return None
    return merge(config, *out, NTierResult)
