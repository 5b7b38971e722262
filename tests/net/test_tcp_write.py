"""Write-path semantics: non-blocking spin vs blocking single syscall."""

import pytest

from repro.errors import ConnectionClosedError
from repro.net.messages import Request


def test_try_write_limited_by_buffer(env, make_connection, calib):
    conn = make_connection()
    accepted = conn.try_write(calib.tcp_send_buffer * 4)
    assert accepted == calib.tcp_send_buffer
    assert conn.stats.write_calls == 1
    assert conn.stats.zero_writes == 0


def test_try_write_zero_when_full(env, make_connection, calib):
    conn = make_connection()
    conn.try_write(calib.tcp_send_buffer)
    assert conn.try_write(100) == 0
    assert conn.stats.zero_writes == 1


def test_try_write_counts_per_request(env, make_connection, calib):
    conn = make_connection()
    request = Request(env, "x", 100)
    conn.try_write(calib.tcp_send_buffer, request)
    conn.try_write(100, request)
    assert request.write_calls == 2
    assert request.zero_writes == 1


def test_small_response_single_write(env, cpu, make_connection):
    conn = make_connection()
    request = Request(env, "small", 102)
    conn.open_transfer(102, request)

    def writer(env):
        written = conn.try_write(102, request)
        assert written == 102
        yield request.completed

    env.process(writer(env))
    env.run()
    assert request.write_calls == 1
    assert request.completed_at is not None


def test_nonblocking_large_response_spins(env, cpu, make_connection, calib):
    conn = make_connection()
    size = 100 * 1024
    request = Request(env, "big", size)
    conn.open_transfer(size, request)
    thread = cpu.thread()

    def writer(env):
        remaining = size
        while remaining:
            n = conn.try_write(remaining, request)
            yield thread.syscall(bytes_copied=n)
            remaining -= n
            if remaining and n == 0:
                yield conn.wait_writable()
        yield request.completed

    env.process(writer(env))
    env.run()
    # Write-spin: roughly response/ack-granularity calls (paper Table IV).
    assert request.write_calls >= 40
    assert conn.stats.bytes_delivered == size


def test_blocking_write_is_single_syscall(env, cpu, make_connection):
    conn = make_connection()
    size = 100 * 1024
    request = Request(env, "big", size)
    conn.open_transfer(size, request)
    thread = cpu.thread()

    def writer(env):
        yield from conn.blocking_write(thread, size, request)
        yield request.completed

    env.process(writer(env))
    env.run()
    assert request.write_calls == 1
    assert cpu.counters.syscalls == 1
    assert conn.stats.bytes_delivered == size


def test_blocking_write_returns_before_final_delivery(env, cpu, make_connection, calib):
    """blocking write returns once all bytes are in the kernel buffer; the
    last buffer-full of data is still in flight."""
    conn = make_connection()
    size = 100 * 1024
    thread = cpu.thread()
    returned_at = {}

    def writer(env):
        yield from conn.blocking_write(thread, size)
        returned_at["t"] = env.now

    request = Request(env, "big", size)
    conn.open_transfer(size, request)
    env.process(writer(env))
    env.run(request.completed)
    assert returned_at["t"] < env.now


def test_open_transfer_zero_bytes_completes_immediately(env, make_connection):
    conn = make_connection()
    request = Request(env, "empty", 0)
    transfer = conn.open_transfer(0, request)
    assert transfer.completed_at == env.now
    assert request.completed.triggered


def test_transfers_complete_in_fifo_order(env, cpu, make_connection):
    conn = make_connection()
    thread = cpu.thread()
    t1 = conn.open_transfer(2000)
    t2 = conn.open_transfer(3000)

    def writer(env):
        yield from conn.blocking_write(thread, 2000)
        yield from conn.blocking_write(thread, 3000)

    env.process(writer(env))
    env.run()
    assert t1.completed_at <= t2.completed_at
    assert t1.delivered == 2000
    assert t2.delivered == 3000


def test_closed_connection_rejects_operations(env, make_connection):
    conn = make_connection()
    conn.close()
    with pytest.raises(ConnectionClosedError):
        conn.try_write(10)
    with pytest.raises(ConnectionClosedError):
        conn.open_transfer(10)
    with pytest.raises(ConnectionClosedError):
        conn.read_request()


def test_negative_transfer_rejected(env, make_connection):
    with pytest.raises(ValueError):
        make_connection().open_transfer(-1)
