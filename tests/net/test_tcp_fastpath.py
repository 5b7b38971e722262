"""Flow-level TCP fast-path equivalence and teardown tests.

The fast path in :mod:`repro.net.tcp` collapses uncontended ACK-round
drains into closed-form plan entries plus a handful of boundary events.
Its contract is *bit-identical observables*: every ``TCPStats`` counter,
timestamp and completion ordering must match the per-segment path exactly.

Everything here is marked ``tcpfast``: running the marker with the
kill-switch flipped (``REPRO_TCP_FASTPATH=0 pytest -m tcpfast``) executes
the same assertions on the per-segment path, which bisects any future
digest mismatch to this layer in one run.
"""

from __future__ import annotations

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection, TCPStats
from repro.sim import core as core_module
from repro.sim.core import Environment

pytestmark = pytest.mark.tcpfast

#: Table IV's worst-case response: 100 KB through the 16 KB default buffer.
SIZE_100KB = 100_000


def _stats_dict(stats: TCPStats) -> dict:
    return {name: getattr(stats, name) for name in TCPStats.__slots__}


def _spin_response(added_latency: float) -> "tuple[float, dict]":
    """One non-blocking 100 KB response; returns (end time, stats)."""
    env = Environment()
    link = Link.lan(DEFAULT_CALIBRATION, added_latency=added_latency)
    conn = Connection(env, link)

    def writer(env: Environment):
        request = Request(env, "big", SIZE_100KB)
        conn.open_transfer(SIZE_100KB, request)
        remaining = SIZE_100KB
        while remaining > 0:
            accepted = conn.try_write(remaining)
            remaining -= accepted
            if remaining > 0:
                yield conn.wait_writable()
        yield request.completed

    proc = env.process(writer(env))
    env.run(until=proc)
    return env.now, _stats_dict(conn.stats)


@pytest.mark.parametrize("added_latency", [0.0, 0.005], ids=["rtt0", "rtt5ms"])
def test_table_iv_write_spin_identical_on_both_paths(monkeypatch, added_latency):
    """Table IV regression: the write-spin count survives the fast path.

    The paper reports ~102 ``write()`` calls to push 100 KB through a
    16 KB buffer (Table IV, SingleT-Async); our calibration reproduces the
    same order of magnitude (~85 — see EXPERIMENTS.md).  Both paths must
    report the *same* spin count and byte-identical stats, because every
    per-ACK wake-up is itself a counted syscall the fast path may not
    batch away.
    """
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "1")
    end_fast, fast = _spin_response(added_latency)
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "0")
    end_slow, slow = _spin_response(added_latency)
    assert fast == slow
    assert end_fast == end_slow
    assert 60 <= fast["write_calls"] <= 120
    assert fast["bytes_delivered"] == SIZE_100KB
    assert fast["responses_completed"] == 1


def test_micro_run_identical_with_fastpath_off(monkeypatch):
    """Full-stack equivalence: a write-spin micro run is bit-identical.

    Cheaper tier-1 cousin of the golden-digest matrix: one SingleT-Async
    run with 100 KB responses (the write-spin configuration), compared
    field-for-field between the two paths.
    """
    import dataclasses

    from repro.experiments.micro import MicroConfig, run_micro

    def run():
        config = MicroConfig(
            "SingleT-Async", 8, response_size=102_400, duration=0.3, warmup=0.1
        )
        return run_micro(config)

    monkeypatch.setenv("REPRO_TCP_FASTPATH", "1")
    fast = run()
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "0")
    slow = run()
    assert dataclasses.asdict(fast.report) == dataclasses.asdict(slow.report)
    assert sorted(fast.server_stats.items()) == sorted(slow.server_stats.items())
    assert sorted(fast.client_stats.items()) == sorted(slow.client_stats.items())


def test_close_mid_drain_heap_bounded_across_10k_connections():
    """close() during an analytic drain tombstones its boundary events.

    Mirrors the PR 3 interrupt-storm heap test: 10k connections each
    closed mid-plan (deliveries applied, ACKs and the settle/completion
    events still pending) must not leave one dead heap entry per close —
    lazy cancellation plus compaction keeps the heap at O(live).
    """
    env = Environment()
    iterations = 10_000
    peak = 0

    def churner(env: Environment):
        nonlocal peak
        for _ in range(iterations):
            conn = Connection(env, Link.lan(DEFAULT_CALIBRATION))
            conn.open_transfer(16_384)
            conn.try_write(16_384)
            # Two thirds into the drain: some ACKs applied, the rest of the
            # plan (final ACKs, completion boundary, settle) still queued.
            yield env.timeout(2.0e-4)
            conn.close()
            if len(env._queue) > peak:
                peak = len(env._queue)

    proc = env.process(churner(env))
    env.run(until=proc)
    assert peak < 4 * core_module._COMPACT_MIN
    assert env._cancelled_entries <= len(env._queue)


def test_close_mid_drain_stats_identical_on_both_paths(monkeypatch):
    """Stats at the moment of a mid-drain close match the segment path."""

    def run():
        env = Environment()
        conn = Connection(env, Link.lan(DEFAULT_CALIBRATION))
        conn.open_transfer(16_384)
        conn.try_write(16_384)
        env.run(until=env.timeout(2.0e-4))
        conn.close()
        snapshot = _stats_dict(conn.stats)
        env.run()  # drain any straggler events; none may resurrect state
        return snapshot, _stats_dict(conn.stats)

    monkeypatch.setenv("REPRO_TCP_FASTPATH", "1")
    fast_mid, fast_end = run()
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "0")
    slow_mid, slow_end = run()
    assert fast_mid == slow_mid
    assert fast_end == slow_end
