"""Kernel performance benchmark suite (``repro-bench perf``).

Unlike every other artifact in :mod:`repro.experiments` — which reproduces a
*claim of the paper* — this suite measures the reproduction's **own speed**:
how many simulated events per wall-clock second the DES kernel sustains, how
fast abandoned timeouts churn through the heap, how quickly the TCP model
pushes bytes, how many queries/sec the cache tier's lookup machinery
sustains, and how long a representative micro-benchmark takes end to
end.  Simulator events/sec is the hard ceiling on how large a workload mix,
population or latency sweep the reproduction can afford, so the numbers are
tracked per commit in ``BENCH_core.json`` and gated by the ``perf-smoke``
tier of ``tools/ci_check.sh``.

The measurements are **host-dependent** wall-clock numbers.  Comparisons
are therefore only meaningful against a baseline recorded on the same
machine; the CI gate uses a generous tolerance (default 30%) to separate
real regressions from scheduler noise.  Alongside the rates, the suite
records host-independent work counters (kernel events per completed
request, :data:`EXACT_METRICS`) that the gate checks for equality: they
move only when the simulator does different work, so every change to them
must be deliberate.

Every benchmark is a pure function of its scale: the *simulated* work is
deterministic (fixed seeds, fixed iteration counts), only the wall-clock
duration varies between hosts.  Each one is run ``repeats`` times and the
best (fastest) round is reported, which is the standard way to suppress
interference from other processes.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.cache.config import CacheConfig
from repro.cache.tier import CacheTier
from repro.calibration import DEFAULT_CALIBRATION, default_calibration
from repro.errors import ExperimentError
from repro.net.link import Link
from repro.net.tcp import Connection
from repro.sim.core import Environment

__all__ = [
    "BENCH_FILENAME",
    "SUITE_VERSION",
    "RATE_METRICS",
    "EXACT_METRICS",
    "WORK_SCALE",
    "bench_kernel_events",
    "bench_timeout_churn",
    "bench_tcp_transfer",
    "bench_tcp_spin",
    "bench_cache_tier",
    "bench_micro_wall",
    "bench_million",
    "bench_dag",
    "bench_shard",
    "run_perf_suite",
    "render_perf_suite",
    "compare_to_baseline",
    "load_baseline",
    "write_bench_json",
]

#: Canonical tracked-results filename (committed at the repository root).
BENCH_FILENAME = "BENCH_core.json"

#: Top-level schema/content version of the tracked suite.  Bump whenever
#: a benchmark is added, removed or re-shaped so that
#: :func:`compare_to_baseline` refuses to gate against a baseline from a
#: different suite generation instead of silently comparing mismatched
#: numbers.  v6 added the sharded-kernel A/B (``bench_shard``); v7 gates
#: the end-to-end shapes on completed-request rates instead of event rates
#: and adds the exact :data:`EXACT_METRICS` rows.
SUITE_VERSION = 7

#: Gated rates, where *higher* is better.  The end-to-end shapes gate on
#: completed requests per second, not events per second: an event rate
#: falls when the same work needs fewer events.
RATE_METRICS = (
    "kernel_events_per_sec",
    "timeout_churn_per_sec",
    "tcp_sim_mbytes_per_sec",
    "micro_requests_per_sec",
    "tcp_spin_mbytes_per_sec",
    "tcp_spin_rtt5_mbytes_per_sec",
    "tcp_drain_mbytes_per_sec",
    "tcp_drain_segment_events_per_sec",
    "cache_ops_per_sec",
    "million_clients_per_sec",
    "dag_requests_per_sec",
    "shard_requests_per_sec",
)

#: Host-independent work counters, gated for *equality*: kernel events per
#: completed request of the micro, million and DAG shapes.
EXACT_METRICS = (
    "micro_events_per_request",
    "million_events_per_request",
    "dag_events_per_request",
)

#: Scale of the untimed runs behind :data:`EXACT_METRICS`.  Fixed, so a
#: reduced-scale smoke run and a full-scale baseline count the same runs.
WORK_SCALE = 0.2


def _events_per_request(result) -> float:
    """Kernel events per completed request of one run (deterministic)."""
    return round(result.kernel_events / max(result.report.completed, 1), 4)


def _request_rate(completed: float, wall: float, config) -> float:
    """Completed requests per wall second of the measured window.

    ``completed`` counts only the post-warmup window, so the warmup's
    share of the wall is taken out; that keeps the rate scale-free.
    """
    measured = (config.duration - config.warmup) / config.duration
    return completed / (wall * measured) if wall > 0 else 0.0


def _best_of(fn: Callable[[], Dict[str, float]], repeats: int) -> Dict[str, float]:
    """Run ``fn`` ``repeats`` times, keep the round with the smallest wall."""
    best: Optional[Dict[str, float]] = None
    for _ in range(max(1, repeats)):
        sample = fn()
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    assert best is not None
    return best


# ----------------------------------------------------------------------
# 1. Raw kernel event throughput
# ----------------------------------------------------------------------
def bench_kernel_events(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Timeout ping-pong: the canonical events/sec microbenchmark.

    ``P`` generator processes each sleep on short timeouts in a tight loop
    — the dominant event pattern of the real simulations (the CPU scheduler
    and the TCP model are both timeout-driven).  Every loop iteration costs
    one Timeout event plus the process resume machinery.
    """
    iterations = max(1, int(120_000 * scale))
    processes = 64

    def round_() -> Dict[str, float]:
        env = Environment()

        def ticker(env: Environment, n: int):
            for _ in range(n):
                yield env.timeout(0.001)

        for _ in range(processes):
            env.process(ticker(env, iterations // processes))
        started = time.perf_counter()
        env.run()
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "events": float(env.events_processed),
            "events_per_sec": env.events_processed / wall if wall > 0 else 0.0,
        }

    return _best_of(round_, repeats)


# ----------------------------------------------------------------------
# 2. Timeout churn (create + abandon)
# ----------------------------------------------------------------------
def bench_timeout_churn(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Create-and-abandon timers: the client retry-path pattern.

    Each iteration races a short timeout against a long (1000x) one via
    ``any_of`` — the long timer always loses and is abandoned, exactly like
    a per-request retry deadline that a fast response beats.  Without lazy
    cancellation every loser stays queued until its far-future pop; the
    benchmark reports both the churn rate and the peak heap size so the
    memory half of the story is visible in the JSON.
    """
    iterations = max(1, int(30_000 * scale))

    def round_() -> Dict[str, float]:
        env = Environment()
        peak = 0

        def churner(env: Environment, n: int):
            nonlocal peak
            for _ in range(n):
                winner = env.timeout(0.001)
                loser = env.timeout(1.0)
                yield env.any_of([winner, loser])
                if len(env._queue) > peak:
                    peak = len(env._queue)

        proc = env.process(churner(env, iterations))
        started = time.perf_counter()
        env.run(until=proc)
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "churn_per_sec": iterations / wall if wall > 0 else 0.0,
            "peak_heap": float(peak),
        }

    return _best_of(round_, repeats)


# ----------------------------------------------------------------------
# 3. TCP transfer throughput
# ----------------------------------------------------------------------
def bench_tcp_transfer(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Simulated-bytes-per-wall-second through the full TCP model.

    One connection pushes large responses through the send buffer / cwnd /
    wait-ACK machinery with a non-blocking writer that parks on
    ``wait_writable`` between drain rounds — the SingleT-Async data path
    stripped of the CPU scheduler, so the measurement isolates the
    networking layer's event cost (including blocked-writer re-arms).
    """
    responses = max(1, int(60 * scale))
    response_size = 1_000_000

    def round_() -> Dict[str, float]:
        env = Environment()
        link = Link.lan(DEFAULT_CALIBRATION)
        conn = Connection(env, link)

        def writer(env: Environment):
            for _ in range(responses):
                transfer = conn.open_transfer(response_size)
                remaining = response_size
                while remaining > 0:
                    accepted = conn.try_write(remaining)
                    remaining -= accepted
                    if remaining > 0:
                        yield conn.wait_writable()
                yield transfer.done

        proc = env.process(writer(env))
        started = time.perf_counter()
        env.run(until=proc)
        wall = time.perf_counter() - started
        total = responses * response_size
        return {
            "wall_s": wall,
            "sim_mbytes_per_sec": total / 1e6 / wall if wall > 0 else 0.0,
            "events_per_sec": env.events_processed / wall if wall > 0 else 0.0,
        }

    return _best_of(round_, repeats)


# ----------------------------------------------------------------------
# 4. Table IV worst case: write-spin and flow-level drain
# ----------------------------------------------------------------------
def bench_tcp_spin(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """The paper's Table IV worst case: 100 KB responses over a 16 KB buffer.

    Two sub-patterns, both pure TCP-model workloads:

    * **spin** — a non-blocking writer pushes 100 KB responses and parks on
      ``wait_writable`` between drain rounds, at baseline LAN latency and
      with 5 ms of injected one-way latency (the paper's ``tc`` worst
      case).  Every per-ACK writer wake-up here is a counted ``write()``
      call — the write-spin itself, Table IV's ~102-calls row — so the
      flow-level fast path cannot legally batch the wake-ups; it cuts the
      kernel *event count* ~3x but wall time stays near the segment-level
      path.  ``write_calls`` per response is reported as a determinism
      sanity (it is digest-pinned and identical on both paths).
    * **drain** — buffer-sized responses written in one call and drained
      to completion before the next: the shape where the fast path
      collapses whole ACK trains into closed-form boundary events.  This
      pattern runs with a 64 KB send buffer (a realistic Linux default;
      the paper's 16 KB calibration stays on the spin pattern) so every
      response drains a full multi-round ACK-clocked window — 45 chunks
      per response instead of 12, which is the regime the flow-level
      collapse targets rather than per-response fixed costs.
      ``segment_events_per_sec`` is the flow-level speedup measure:
      equivalent *segment-level* events (one delivery + one ACK event per
      chunk plus two per response — exactly what the per-segment path
      processes for this workload, derived from the digest-pinned ACK
      counter) per wall-clock second, so the number is comparable
      regardless of which path executed the run.
    """
    response_size = 100_000
    spin_responses = max(1, int(150 * scale))

    def spin_round(added_latency: float, responses: int) -> Callable[[], Dict[str, float]]:
        def round_() -> Dict[str, float]:
            env = Environment()
            link = Link.lan(DEFAULT_CALIBRATION, added_latency=added_latency)
            conn = Connection(env, link)

            def writer(env: Environment):
                for _ in range(responses):
                    transfer = conn.open_transfer(response_size)
                    remaining = response_size
                    while remaining > 0:
                        accepted = conn.try_write(remaining)
                        remaining -= accepted
                        if remaining > 0:
                            yield conn.wait_writable()
                    yield transfer.done

            proc = env.process(writer(env))
            started = time.perf_counter()
            env.run(until=proc)
            wall = time.perf_counter() - started
            total = responses * response_size
            return {
                "wall_s": wall,
                "mbytes_per_sec": total / 1e6 / wall if wall > 0 else 0.0,
                "write_calls_per_response": conn.stats.write_calls / responses,
            }

        return round_

    def drain_round() -> Dict[str, float]:
        calibration = default_calibration(tcp_send_buffer=64 * 1024)
        responses = max(1, int(1500 * scale))
        size = calibration.tcp_send_buffer  # fits the buffer in one write
        gap = 4.0 * (calibration.lan_one_way_latency
                     + size / calibration.link_bandwidth)
        env = Environment()
        conn = Connection(env, Link.lan(calibration), calibration=calibration)

        def writer(env: Environment):
            for _ in range(responses):
                transfer = conn.open_transfer(size)
                conn.try_write(size)
                yield transfer.done
                yield env.timeout(gap)

        proc = env.process(writer(env))
        started = time.perf_counter()
        env.run(until=proc)
        wall = time.perf_counter() - started
        equivalent = 2.0 * conn.stats.acks_received + 2.0 * responses
        return {
            "wall_s": wall,
            "mbytes_per_sec": responses * size / 1e6 / wall if wall > 0 else 0.0,
            "segment_events_per_sec": equivalent / wall if wall > 0 else 0.0,
        }

    spin0 = _best_of(spin_round(0.0, spin_responses), repeats)
    spin5 = _best_of(spin_round(0.005, max(1, spin_responses // 3)), repeats)
    drain = _best_of(drain_round, repeats)
    return {
        "wall_s": spin0["wall_s"] + spin5["wall_s"] + drain["wall_s"],
        "spin_mbytes_per_sec": spin0["mbytes_per_sec"],
        "spin_rtt5_mbytes_per_sec": spin5["mbytes_per_sec"],
        "write_calls_per_response": spin0["write_calls_per_response"],
        "drain_mbytes_per_sec": drain["mbytes_per_sec"],
        "drain_segment_events_per_sec": drain["segment_events_per_sec"],
    }


# ----------------------------------------------------------------------
# 5. Cache-tier lookup machinery
# ----------------------------------------------------------------------
def bench_cache_tier(scale: float = 1.0, repeats: int = 3) -> Dict[str, float]:
    """Queries/sec through the cache tier's lookup/fill state machine.

    64 worker processes hammer one two-level :class:`CacheTier` (L1+L2,
    short TTLs so entries churn through expiry and refill, 10% writes,
    single-flight on) with a stub thread and a stub database fetch, so
    the measurement isolates the tier's own cost — key draws, store
    bookkeeping, flight election/coalescing — from the servlet and TCP
    layers it normally sits between.  The reported ``hit_ratio`` is a
    determinism sanity: it is a pure function of the fixed seed and
    iteration count, identical on every host.
    """
    queries = max(1, int(40_000 * scale))
    workers = 64

    def round_() -> Dict[str, float]:
        env = Environment()
        config = CacheConfig(
            policy="cache_aside",
            ttl=0.02,
            capacity=256,
            l2_capacity=1024,
            l2_ttl=0.05,
            write_ratio=0.1,
            keys_per_class=64,
        )
        tier = CacheTier(env, config, random.Random(1234), DEFAULT_CALIBRATION)

        class _StubThread:
            """Duck-typed WorkerThread: CPU and syscall become plain delays."""

            @staticmethod
            def run(cpu: float):
                return env.timeout(cpu)

            @staticmethod
            def syscall(bytes_copied: int = 0, extra_kernel: float = 0.0):
                return env.timeout(extra_kernel)

        thread = _StubThread()

        def fetch():
            yield env.timeout(0.002)  # stand-in database round trip
            return "ok"

        def worker(env: Environment, n: int):
            for index in range(n):
                yield from tier.query(
                    thread, ("Bench", index % 4), 4096, None, fetch
                )

        per_worker = queries // workers
        for _ in range(workers):
            env.process(worker(env, per_worker))
        started = time.perf_counter()
        env.run()
        wall = time.perf_counter() - started
        done = workers * per_worker
        return {
            "wall_s": wall,
            "ops_per_sec": done / wall if wall > 0 else 0.0,
            "hit_ratio": tier.hit_ratio(),
        }

    return _best_of(round_, repeats)


# ----------------------------------------------------------------------
# 6. Full micro-benchmark wall time
# ----------------------------------------------------------------------
def bench_micro_wall(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """End-to-end wall time of one representative micro-benchmark run.

    SingleT-Async at concurrency 50 with 100KB responses — the write-spin
    configuration — exercises every layer at once: kernel, CPU scheduler,
    TCP model, workload clients and metrics.  This is the number that
    predicts artifact sweep wall time.  ``requests_per_sec`` is the gated
    rate; ``events_per_request`` comes from one untimed run at
    :data:`WORK_SCALE`.
    """
    from repro.experiments.micro import MicroConfig, run_micro
    from repro.workload.mixes import SIZE_LARGE

    def _config(at_scale: float) -> "MicroConfig":
        return MicroConfig(
            server="SingleT-Async",
            concurrency=50,
            response_size=SIZE_LARGE,
            duration=0.3 + 1.2 * at_scale,
            warmup=0.2,
        )

    def round_() -> Dict[str, float]:
        config = _config(scale)
        started = time.perf_counter()
        result = run_micro(config)
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "completed": float(result.report.completed),
            "requests_per_sec": _request_rate(result.report.completed, wall, config),
            "events_per_sec": result.kernel_events / wall if wall > 0 else 0.0,
        }

    best = _best_of(round_, repeats)
    best["events_per_request"] = _events_per_request(run_micro(_config(WORK_SCALE)))
    return best


# ----------------------------------------------------------------------
# 7. Million-client cohort aggregation
# ----------------------------------------------------------------------
def bench_million(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """Cohort-level flow aggregation vs. per-client simulation.

    The scenario is a mostly-idle connected population (mean think time
    400 s against a 6 s run — the million-client scouting regime): every
    member is a real closed-loop user, but only the active fringe ever
    touches the server.  Two measurements:

    * **A/B** at a bounded population (``clients/50``, capped at 20k —
      the classic path's per-event cost grows with attached connections,
      so a full-size baseline run would take hours): the same
      ``MicroConfig`` run with ``materialize="always"`` (classic eager
      builder) and ``materialize="lazy"`` (aggregate engine),
      interleaved within each round so host drift hits both sides
      equally.  ``ab_speedup`` is the clients-per-wall-second ratio.
    * the **big run**: the lazy engine alone at ``1_000_000 * scale``
      clients — timed rounds for ``clients_per_sec``, plus one
      tracemalloc-instrumented round (traced separately because the
      allocation hooks roughly triple wall time) for ``peak_heap_mb``.

    ``clients_per_sec`` is scale-free-ish (wall grows with the active
    fringe, which grows with N) and is the gated rate metric;
    ``events_per_request`` comes from one untimed run at
    :data:`WORK_SCALE`.
    """
    from repro.cohort import CohortConfig
    from repro.experiments.micro import MicroConfig, run_micro

    def _clients(at_scale: float) -> int:
        return max(10_000, int(round(1_000_000 * at_scale)))

    clients = _clients(scale)
    ab_clients = max(1_000, min(20_000, clients // 50))

    def _config(size: int, mode: str) -> "MicroConfig":
        return MicroConfig(
            server="SingleT-Async",
            concurrency=size,
            duration=6.0,
            warmup=2.0,
            think_mean=400.0,
            cohort=CohortConfig(
                materialize=mode, max_inflight=2048, first_think=True
            ),
        )

    def _timed(size: int, mode: str):
        started = time.perf_counter()
        result = run_micro(_config(size, mode))
        return time.perf_counter() - started, result

    rounds = max(1, repeats)
    base_wall = lazy_wall = float("inf")
    for _ in range(rounds):
        wall, _ = _timed(ab_clients, "always")
        base_wall = min(base_wall, wall)
        wall, _ = _timed(ab_clients, "lazy")
        lazy_wall = min(lazy_wall, wall)

    big_wall = float("inf")
    big_result = None
    for _ in range(rounds):
        wall, result = _timed(clients, "lazy")
        if wall < big_wall:
            big_wall, big_result = wall, result
    assert big_result is not None

    tracemalloc.start()
    traced = run_micro(_config(clients, "lazy"))
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    work = run_micro(_config(_clients(WORK_SCALE), "lazy"))
    return {
        "events_per_request": _events_per_request(work),
        "wall_s": big_wall,
        "clients": float(clients),
        "clients_per_sec": clients / big_wall if big_wall > 0 else 0.0,
        "events_per_sec": (
            big_result.kernel_events / big_wall if big_wall > 0 else 0.0
        ),
        "completed": float(traced.report.completed),
        "peak_heap_mb": peak_bytes / 1e6,
        "ab_clients": float(ab_clients),
        "ab_baseline_clients_per_sec": (
            ab_clients / base_wall if base_wall > 0 else 0.0
        ),
        "ab_lazy_clients_per_sec": (
            ab_clients / lazy_wall if lazy_wall > 0 else 0.0
        ),
        "ab_speedup": base_wall / lazy_wall if lazy_wall > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# 8. DAG fan-out data path
# ----------------------------------------------------------------------
def bench_dag(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """Requests/sec through a three-branch DAG compose node.

    A ``compose`` aggregator fans one worker thread out per edge to three
    leaf services and joins with ``wait_all`` — the
    social-network-compose shape of ``repro-bench dag``.  Every request
    costs four servers' worth of CPU scheduling, three pooled TCP
    exchanges and a fan-in join on top of the entry tier's own data path,
    so ``dag_requests_per_sec`` predicts DAG artifact sweep wall time the
    way ``micro_requests_per_sec`` predicts the linear ones.  The
    ``completed`` count is a determinism sanity (pure function of the
    seed); ``events_per_request`` comes from one untimed run at
    :data:`WORK_SCALE`.
    """
    from repro.dag import DagConfig, Edge, ServiceNode
    from repro.ntier.topology import NTierConfig, run_ntier
    from repro.workload.mixes import FixedMix

    leaves = ("text", "media", "graph")
    dag = DagConfig(
        entry="compose",
        nodes=(
            ServiceNode(
                name="compose",
                edges=tuple(Edge(leaf) for leaf in leaves),
                fan_in="wait_all",
                service_cpu=100.0e-6,
            ),
        ) + tuple(
            ServiceNode(name=leaf, service_cpu=200.0e-6) for leaf in leaves
        ),
    )

    def _config(at_scale: float) -> "NTierConfig":
        return NTierConfig(
            tomcat_variant="async",
            users=40,
            think_mean=0.05,
            duration=0.5 + 2.5 * at_scale,
            warmup=0.3,
            mix=FixedMix(2048),
            dag=dag,
            seed=11,
        )

    def round_() -> Dict[str, float]:
        started = time.perf_counter()
        result = run_ntier(_config(scale))
        wall = time.perf_counter() - started
        requests = result.dag_stats.get("dag_requests", 0.0)
        return {
            "wall_s": wall,
            "requests_per_sec": requests / wall if wall > 0 else 0.0,
            "events_per_sec": (
                result.kernel_events / wall if wall > 0 else 0.0
            ),
            "completed": float(result.report.completed),
        }

    best = _best_of(round_, repeats)
    best["events_per_request"] = _events_per_request(run_ntier(_config(WORK_SCALE)))
    return best


# ----------------------------------------------------------------------
# 9. Sharded kernel A/B
# ----------------------------------------------------------------------
def bench_shard(scale: float = 1.0, repeats: int = 2) -> Dict[str, float]:
    """Interleaved serial-vs-sharded A/B on the 1M-cohort n-tier shape.

    The workload is the million-client scouting regime pushed through
    the full 3-tier chain: a ``1_000_000 * scale`` eager-bundle cohort
    (mean think 400 s against a 6 s run) over WAN-ish client latency
    (20 ms) and 10 ms inter-tier links — the nonzero cut latencies are
    what give the conservative synchronizer its lookahead window.  Each
    round interleaves a serial run, a 2-island run ([clients | backend])
    and a 4-island run ([clients | apache | tomcat | mysql]) so host
    drift hits all three equally; every run is digest-identical by the
    shard contract, so the *only* thing varying is wall clock.

    ``requests_per_sec`` (the gated rate) is the best sharded round's
    completed requests per wall second of its measured window;
    ``events_per_sec`` is the merged kernel event count over the same
    wall.  ``speedup`` is serial wall over best
    sharded wall — **read it against ``cores``**: on a single-core host
    the workers time-slice one CPU and the honest ceiling is ~1x minus
    barrier overhead; island wall-clock parallelism needs one core per
    island.  The per-island split (events, barrier count, stall time)
    comes back through ``NTierResult.shard_events`` either way, so the
    balance story is visible even where the speedup cannot be.
    """
    from repro.cohort import CohortConfig
    from repro.ntier.topology import NTierConfig, run_ntier

    clients = max(20_000, int(round(1_000_000 * scale)))
    config = NTierConfig(
        "async",
        users=clients,
        think_mean=400.0,
        duration=6.0,
        warmup=2.0,
        client_latency=0.02,
        inter_tier_latency=0.01,
        cohort=CohortConfig(
            max_inflight=1024, first_think=True, eager_connections=True
        ),
    )

    def _timed(shards: int):
        started = time.perf_counter()
        result = run_ntier(config, shards=shards)
        return time.perf_counter() - started, result

    rounds = max(1, repeats)
    serial_wall = two_wall = four_wall = float("inf")
    best_wall = float("inf")
    best = None
    for _ in range(rounds):
        wall, _serial = _timed(1)
        serial_wall = min(serial_wall, wall)
        wall, result = _timed(2)
        two_wall = min(two_wall, wall)
        if wall < best_wall:
            best_wall, best = wall, result
        wall, result = _timed(4)
        four_wall = min(four_wall, wall)
        if wall < best_wall:
            best_wall, best = wall, result
    assert best is not None
    islands = best.shard_events
    if not islands:
        raise ExperimentError(
            "bench_shard's sharded runs fell back to the serial kernel; "
            "the partitioner rejected the benchmark config"
        )
    return {
        "wall_s": best_wall,
        "serial_wall_s": serial_wall,
        "two_shard_wall_s": two_wall,
        "four_shard_wall_s": four_wall,
        "requests_per_sec": _request_rate(best.report.completed, best_wall, config),
        "events_per_sec": (
            best.kernel_events / best_wall if best_wall > 0 else 0.0
        ),
        "speedup": serial_wall / best_wall if best_wall > 0 else 0.0,
        "islands": float(len(islands)),
        "barriers": float(max(s.barriers for s in islands)),
        "barrier_stall_s": sum(s.stall_s for s in islands),
        "completed": float(best.report.completed),
        "cores": float(os.cpu_count() or 1),
    }


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def run_perf_suite(scale: float = 1.0, repeats: int = 3) -> Dict[str, object]:
    """Run every kernel benchmark; returns the ``BENCH_core.json`` payload."""
    if not 0.0 < scale <= 1.0:
        raise ExperimentError(f"perf scale must be in (0, 1], got {scale!r}")
    kernel = bench_kernel_events(scale, repeats)
    churn = bench_timeout_churn(scale, repeats)
    tcp = bench_tcp_transfer(scale, repeats)
    spin = bench_tcp_spin(scale, repeats)
    cache = bench_cache_tier(scale, repeats)
    micro = bench_micro_wall(scale, max(1, repeats - 1))
    million = bench_million(scale, max(1, repeats - 1))
    dag = bench_dag(scale, max(1, repeats - 1))
    shard = bench_shard(scale, max(1, repeats - 1))
    return {
        "suite": "repro-kernel-perf",
        "suite_version": SUITE_VERSION,
        "scale": scale,
        "host": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "results": {
            "kernel_events_per_sec": round(kernel["events_per_sec"], 1),
            "kernel_wall_s": round(kernel["wall_s"], 4),
            "timeout_churn_per_sec": round(churn["churn_per_sec"], 1),
            "timeout_churn_peak_heap": churn["peak_heap"],
            "tcp_sim_mbytes_per_sec": round(tcp["sim_mbytes_per_sec"], 2),
            "tcp_events_per_sec": round(tcp["events_per_sec"], 1),
            "tcp_spin_mbytes_per_sec": round(spin["spin_mbytes_per_sec"], 2),
            "tcp_spin_rtt5_mbytes_per_sec": round(spin["spin_rtt5_mbytes_per_sec"], 2),
            "tcp_spin_write_calls": round(spin["write_calls_per_response"], 2),
            "tcp_drain_mbytes_per_sec": round(spin["drain_mbytes_per_sec"], 2),
            "tcp_drain_segment_events_per_sec": round(spin["drain_segment_events_per_sec"], 1),
            "cache_ops_per_sec": round(cache["ops_per_sec"], 1),
            "cache_wall_s": round(cache["wall_s"], 4),
            "cache_hit_ratio": round(cache["hit_ratio"], 4),
            "micro_wall_s": round(micro["wall_s"], 4),
            "micro_requests_per_sec": round(micro["requests_per_sec"], 1),
            "micro_events_per_sec": round(micro["events_per_sec"], 1),
            "micro_events_per_request": micro["events_per_request"],
            "micro_completed": micro["completed"],
            "million_clients": million["clients"],
            "million_wall_s": round(million["wall_s"], 4),
            "million_clients_per_sec": round(million["clients_per_sec"], 1),
            "million_events_per_sec": round(million["events_per_sec"], 1),
            "million_events_per_request": million["events_per_request"],
            "million_peak_heap_mb": round(million["peak_heap_mb"], 2),
            "million_ab_speedup": round(million["ab_speedup"], 2),
            "million_ab_baseline_clients_per_sec": round(
                million["ab_baseline_clients_per_sec"], 1
            ),
            "dag_wall_s": round(dag["wall_s"], 4),
            "dag_requests_per_sec": round(dag["requests_per_sec"], 1),
            "dag_events_per_sec": round(dag["events_per_sec"], 1),
            "dag_events_per_request": dag["events_per_request"],
            "dag_completed": dag["completed"],
            "shard_requests_per_sec": round(shard["requests_per_sec"], 1),
            "shard_events_per_sec": round(shard["events_per_sec"], 1),
            "shard_wall_s": round(shard["wall_s"], 4),
            "shard_serial_wall_s": round(shard["serial_wall_s"], 4),
            "shard_speedup": round(shard["speedup"], 3),
            "shard_islands": shard["islands"],
            "shard_barrier_stall_s": round(shard["barrier_stall_s"], 3),
            "shard_completed": shard["completed"],
            "shard_cores": shard["cores"],
        },
    }


def render_perf_suite(payload: Dict[str, object]) -> str:
    """Human-readable table of one suite run."""
    results = payload["results"]  # type: ignore[index]
    lines = [
        "=" * 72,
        "PERF — DES kernel benchmark suite "
        f"(scale {payload['scale']}, {payload['host']['python']})",  # type: ignore[index]
        "=" * 72,
    ]
    for key in sorted(results):  # type: ignore[arg-type]
        lines.append(f"{key:32s} {results[key]:>14,.1f}")  # type: ignore[index]
    return "\n".join(lines)


def write_bench_json(payload: Dict[str, object], path: "Path | str") -> Path:
    """Write the suite payload to ``path`` (pretty-printed, newline-terminated)."""
    out = Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


def load_baseline(path: "Path | str") -> Dict[str, object]:
    """Load a previously committed ``BENCH_core.json``."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if "results" not in payload:
        raise ExperimentError(f"{path} is not a perf-suite payload (no 'results')")
    return payload


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.30,
) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` beyond ``tolerance``.

    Rate metrics (:data:`RATE_METRICS`) gate with ``tolerance``: wall
    times scale with the chosen ``--scale`` while rates are scale-free, so
    a reduced-scale smoke run can be compared against a full-scale
    committed baseline.  Work counters (:data:`EXACT_METRICS`, measured at
    the fixed :data:`WORK_SCALE`) must match exactly, in either direction.
    Returns a list of human-readable failure strings (empty = pass).

    A baseline whose gated-metric set differs from the current run's is
    rejected with :class:`ExperimentError` rather than silently skipping
    the missing metrics: a stale baseline would otherwise disable exactly
    the gates a new benchmark was added to enforce.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ExperimentError(f"tolerance must be in [0, 1), got {tolerance!r}")
    cur_version = current.get("suite_version")
    base_version = baseline.get("suite_version")
    if cur_version != base_version:
        raise ExperimentError(
            f"suite_version mismatch: current run is v{cur_version}, "
            f"baseline is v{base_version if base_version is not None else '<missing>'}"
            " — the baseline predates a suite change; regenerate it with "
            f"`repro-bench perf --out {BENCH_FILENAME}` on this host "
            "instead of comparing across suite generations"
        )
    cur = current["results"]  # type: ignore[index]
    base = baseline["results"]  # type: ignore[index]
    mismatched = sorted(
        metric for metric in RATE_METRICS + EXACT_METRICS
        if (metric in cur) != (metric in base)  # type: ignore[operator]
    )
    if mismatched:
        raise ExperimentError(
            "baseline and current runs disagree on gated perf metrics "
            f"({', '.join(mismatched)}); the baseline predates a suite "
            "change — regenerate it with `repro-bench perf --out "
            f"{BENCH_FILENAME}` on this host instead of skipping the gate"
        )
    failures = []
    for metric in RATE_METRICS:
        have = cur.get(metric)  # type: ignore[union-attr]
        want = base.get(metric)  # type: ignore[union-attr]
        if not have or not want or not math.isfinite(want) or want <= 0:
            continue
        floor = want * (1.0 - tolerance)
        if have < floor:
            failures.append(
                f"{metric}: {have:,.0f} < {floor:,.0f} "
                f"(baseline {want:,.0f} - {tolerance:.0%})"
            )
    for metric in EXACT_METRICS:
        have = cur.get(metric)  # type: ignore[union-attr]
        want = base.get(metric)  # type: ignore[union-attr]
        if have != want:
            failures.append(
                f"{metric}: {have} != baseline {want} (exact work counter: "
                "the simulator now does different work; if that is "
                "deliberate, explain it and regenerate the baseline)"
            )
    return failures
