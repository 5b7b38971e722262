"""Property-based tests of the TCP model (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import default_calibration
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.sim.core import Environment


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=6),
    buffer_kb=st.integers(min_value=4, max_value=128),
    latency_us=st.integers(min_value=10, max_value=5000),
)
@settings(max_examples=40, deadline=None)
def test_every_byte_written_is_delivered_once(sizes, buffer_kb, latency_us):
    calib = default_calibration()
    env = Environment()
    link = Link(one_way_latency=latency_us * 1e-6, bandwidth=calib.link_bandwidth)
    conn = Connection(env, link, calib, send_buffer_size=buffer_kb * 1024)
    transfers = [conn.open_transfer(size) for size in sizes]

    def writer(env):
        for size in sizes:
            remaining = size
            while remaining:
                n = conn.try_write(remaining)
                remaining -= n
                if remaining and n == 0:
                    yield conn.wait_writable()

    env.process(writer(env))
    env.run()
    assert conn.stats.bytes_delivered == sum(sizes)
    assert all(t.remaining == 0 for t in transfers)
    assert conn.buffer.used == 0
    # FIFO completion order.
    times = [t.completed_at for t in transfers]
    assert times == sorted(times)


@given(
    size=st.integers(min_value=1, max_value=300_000),
    buffer_kb=st.integers(min_value=4, max_value=64),
)
@settings(max_examples=40, deadline=None)
def test_buffer_occupancy_never_exceeds_capacity(size, buffer_kb):
    calib = default_calibration()
    env = Environment()
    conn = Connection(env, Link.lan(calib), calib, send_buffer_size=buffer_kb * 1024)
    conn.open_transfer(size)
    violations = []

    def writer(env):
        remaining = size
        while remaining:
            n = conn.try_write(remaining)
            if conn.buffer.used > conn.buffer.capacity:
                violations.append(conn.buffer.used)
            remaining -= n
            if remaining and n == 0:
                yield conn.wait_writable()

    env.process(writer(env))
    env.run()
    assert not violations


@given(size=st.integers(min_value=1, max_value=150_000))
@settings(max_examples=30, deadline=None)
def test_blocking_write_equals_nonblocking_delivery_total(size):
    """Blocking and non-blocking paths deliver identical byte counts."""
    calib = default_calibration()

    def total_delivered(blocking: bool) -> int:
        from repro.cpu.scheduler import CPU

        env = Environment()
        conn = Connection(env, Link.lan(calib), calib)
        conn.open_transfer(size)
        cpu = CPU(env, calib)
        thread = cpu.thread()

        def writer(env):
            if blocking:
                yield from conn.blocking_write(thread, size)
            else:
                remaining = size
                while remaining:
                    n = conn.try_write(remaining)
                    remaining -= n
                    if remaining and n == 0:
                        yield conn.wait_writable()

        env.process(writer(env))
        env.run()
        return conn.stats.bytes_delivered

    assert total_delivered(True) == total_delivered(False) == size


@given(
    size=st.integers(min_value=20_000, max_value=200_000),
    buffer_kb=st.sampled_from([8, 16, 32]),
)
@settings(max_examples=30, deadline=None)
def test_write_call_count_scales_with_size_over_granularity(size, buffer_kb):
    """Non-blocking writes per response are bounded below by the number of
    ACK-granularity chunks beyond the initial buffer fill."""
    calib = default_calibration()
    env = Environment()
    conn = Connection(env, Link.lan(calib), calib, send_buffer_size=buffer_kb * 1024)
    conn.open_transfer(size)

    def writer(env):
        remaining = size
        while remaining:
            n = conn.try_write(remaining)
            remaining -= n
            if remaining and n == 0:
                yield conn.wait_writable()

    env.process(writer(env))
    env.run()
    overflow = max(0, size - buffer_kb * 1024)
    min_calls = 1 + overflow // (conn.ack_granularity * 4)
    assert conn.stats.write_calls >= min_calls


# ----------------------------------------------------------------------
# Differential: the flow-level fast path against the per-segment path
# ----------------------------------------------------------------------
# One writer runs a drawn schedule of responses on one connection: each
# op waits (not at all, a little, until the previous drain is over, or
# past the idle-restart threshold) and then declares a response and
# writes it non-blocking (parking on wait_writable or on a selector
# watcher whenever a write is refused) or blocking, or declares a
# zero-byte response.  A closer may close the connection mid-schedule.
# The one-way latency starts at 1 us: at zero latency the paths order a
# parked writer's wake-up and a same-time completion differently, which
# the strict xfail below pins.

_GAPS = st.one_of(
    st.just(("now",)),
    st.tuples(st.just("sleep"), st.integers(min_value=1, max_value=4000)),
    st.just(("drain",)),
    st.just(("idle",)),
)
_OPS = st.one_of(
    st.tuples(st.just("try"), st.integers(min_value=1, max_value=200_000),
              st.sampled_from(("wait", "select"))),
    st.tuples(st.just("block"), st.integers(min_value=1, max_value=200_000)),
    st.just(("zero",)),
)
_SCHEDULES = st.tuples(
    st.integers(min_value=4, max_value=64),  # send buffer, KB
    st.integers(min_value=1, max_value=5000),  # one-way latency, us
    st.lists(st.tuples(_GAPS, _OPS), min_size=1, max_size=6),
    st.one_of(st.none(), st.integers(min_value=0, max_value=40_000)),  # close, us
)


def _run_schedule(buffer_kb, latency_us, ops, close_us):
    """Everything the schedule observes, in order, plus the final stats."""
    from repro.cpu.scheduler import CPU
    from repro.errors import ConnectionClosedError
    from repro.net.selector import EVENT_WRITE, Selector
    from repro.net.tcp import TCPStats

    calib = default_calibration()
    env = Environment()
    latency = latency_us * 1e-6
    link = Link(one_way_latency=latency, bandwidth=calib.link_bandwidth)
    conn = Connection(env, link, calib, send_buffer_size=buffer_kb * 1024)
    thread = CPU(env, calib).thread()
    selector = Selector(env)
    requests = []
    transfers = []
    log = []

    def declare(size):
        index = len(requests)
        request = Request(env, "response", size)
        requests.append(request)
        transfers.append(conn.open_transfer(size, request))
        request.completed.callbacks.append(
            lambda _event: log.append(("done", index, env.now))
        )

    def writer():
        try:
            for gap, op in ops:
                if gap[0] == "sleep":
                    yield env.timeout(gap[1] * 1e-6)
                elif gap[0] == "drain" and requests:
                    yield requests[-1].completed
                    # Let the final ACK land too: the plan is fully applied.
                    yield env.timeout(2 * latency + 1e-4)
                elif gap[0] == "idle":
                    yield env.timeout(0.25)  # past IDLE_RESET_THRESHOLD
                if op[0] == "zero":
                    declare(0)
                elif op[0] == "block":
                    declare(op[1])
                    yield from conn.blocking_write(thread, op[1])
                    # Occupancy is read at writes only: here the fast path
                    # may not have applied ACKs that landed since.
                    log.append(("returned", env.now))
                else:
                    declare(op[1])
                    remaining = op[1]
                    while remaining:
                        accepted = conn.try_write(remaining)
                        log.append(("write", env.now, accepted, conn.buffer.used))
                        remaining -= accepted
                        if remaining and accepted == 0:
                            if op[2] == "wait":
                                yield conn.wait_writable()
                                log.append(("woken", env.now))
                            else:
                                selector.register(conn, EVENT_WRITE)
                                ready = yield selector.poll()
                                selector.unregister(conn)
                                log.append(("selected", env.now, ready == [(conn, EVENT_WRITE)]))
        except ConnectionClosedError:
            log.append(("refused", env.now))

    def closer():
        yield env.timeout(close_us * 1e-6)
        conn.close()
        log.append(("closed", env.now))

    env.process(writer())
    if close_us is not None:
        env.process(closer())
    env.run()
    stats = conn.stats
    return (
        log,
        [transfer.completed_at for transfer in transfers],
        {name: getattr(stats, name) for name in TCPStats.__slots__},
    )


@pytest.mark.tcpfast
def test_fast_path_matches_segment_path(monkeypatch):
    """Every drawn schedule observes the same on both TCP paths: bytes
    accepted and buffer occupancy at each write, writer wake times,
    completion times and order, and the final ``TCPStats``.  Both
    branches of ``_fp_extend`` must have planned writes."""
    from collections import Counter

    shapes = Counter()
    extend = Connection._fp_extend

    def counting_extend(self):
        pending_sends = self._fp_sends_i < len(self._fp_sends)
        if not pending_sends and self._unsent <= self._cwnd - self._in_flight:
            shapes["short"] += 1
        else:
            shapes["general"] += 1
            shapes["replan"] += pending_sends
        extend(self)

    monkeypatch.setattr(Connection, "_fp_extend", counting_extend)

    @given(schedule=_SCHEDULES)
    @settings(max_examples=150, deadline=None)
    def check(schedule):
        monkeypatch.setenv("REPRO_TCP_FASTPATH", "1")
        fast = _run_schedule(*schedule)
        monkeypatch.setenv("REPRO_TCP_FASTPATH", "0")
        slow = _run_schedule(*schedule)
        assert fast == slow

    check()
    assert shapes["short"] > 0
    assert shapes["general"] > 0
    assert shapes["replan"] > 0


@pytest.mark.tcpfast
@pytest.mark.xfail(
    strict=True,
    reason="zero latency: the fast path wakes a parked writer before a "
    "completion at the same instant; the segment path completes first",
)
def test_zero_latency_wake_and_completion_order(monkeypatch):
    """A 1-byte response, then a 4 KB one that fills a 4 KB buffer, on a
    zero-latency link: the writer parks on ``wait_writable``.  The first
    response's final byte lands at the instant its ACK frees the buffer.
    The segment path runs the completion, then the ACK that wakes the
    writer.  The fast path's armed wake-up was pushed at park time, so it
    pops before the completion its boundary event succeeds."""
    schedule = (4, 0, [(("now",), ("try", 1, "wait")), (("now",), ("try", 4096, "wait"))], None)
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "1")
    fast = _run_schedule(*schedule)
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "0")
    slow = _run_schedule(*schedule)
    assert fast == slow
