"""Wait-ACK drain dynamics: the mechanism behind Figures 5 and 7."""

import pytest

from repro.calibration import default_calibration
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.sim.core import Environment


def drain_time(one_way_latency, size, send_buffer=None, calib=None):
    """Time for a full transfer of ``size`` bytes written non-blockingly."""
    calib = calib or default_calibration()
    env = Environment()
    link = Link(one_way_latency=one_way_latency, bandwidth=calib.link_bandwidth)
    conn = Connection(env, link, calib, send_buffer_size=send_buffer)
    request = Request(env, "big", size)
    conn.open_transfer(size, request)

    def writer(env):
        remaining = size
        while remaining:
            n = conn.try_write(remaining)
            remaining -= n
            if remaining and n == 0:
                yield conn.wait_writable()
        yield request.completed

    env.process(writer(env))
    env.run()
    return env.now


def test_latency_amplifies_transfer_time_with_small_buffer():
    """With a 16KB buffer, a 100KB transfer needs multiple wait-ACK rounds,
    so its duration scales with the RTT (the Figure 7 amplification)."""
    fast = drain_time(75e-6, 100 * 1024)
    slow = drain_time(5e-3, 100 * 1024)
    assert slow > 10 * fast


def test_large_buffer_removes_latency_amplification():
    """With the buffer >= response size, the transfer takes ~1 RTT plus
    serialization regardless of buffer-induced rounds."""
    calib = default_calibration()
    slow = drain_time(5e-3, 100 * 1024, send_buffer=100 * 1024)
    serialization = 100 * 1024 / calib.link_bandwidth
    # one-way propagation + serialization, plus a handful of ACK waits for
    # cwnd growth (slow start from 10 segments needs ~3 window rounds).
    assert slow < 4 * (2 * 5e-3) + serialization + 1e-3


def test_transfer_time_lower_bound_is_wire_time():
    calib = default_calibration()
    size = 64 * 1024
    elapsed = drain_time(75e-6, size, send_buffer=size)
    assert elapsed >= size / calib.link_bandwidth


def test_bytes_conserved_exactly(env, make_connection):
    conn = make_connection()
    sizes = [100, 5000, 33333]
    requests = [Request(env, "r", s) for s in sizes]
    transfers = [conn.open_transfer(s, r) for s, r in zip(sizes, requests)]

    def writer(env):
        for size in sizes:
            remaining = size
            while remaining:
                n = conn.try_write(remaining)
                remaining -= n
                if remaining and n == 0:
                    yield conn.wait_writable()
        yield requests[-1].completed

    env.process(writer(env))
    env.run()
    assert conn.stats.bytes_written == sum(sizes)
    assert conn.stats.bytes_delivered == sum(sizes)
    assert all(t.remaining == 0 for t in transfers)
    assert conn.buffer.is_empty


def test_acks_free_buffer_progressively(env, make_connection, calib):
    conn = make_connection()
    conn.open_transfer(calib.tcp_send_buffer)
    conn.try_write(calib.tcp_send_buffer)
    assert conn.buffer.free == 0
    env.run()
    assert conn.buffer.free == calib.tcp_send_buffer
    assert conn.stats.acks_received >= calib.tcp_send_buffer // conn.ack_granularity
