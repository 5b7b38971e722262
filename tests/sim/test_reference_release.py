"""A finished request, a fired condition and a finished process are freed
by reference counting alone: with the cyclic garbage collector off, each
dies as soon as the test drops its own references."""

import gc
import weakref

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.sim.core import Condition, Environment, Process


class _Condition(Condition):
    """A condition that takes weak references (the kernel's slots do not)."""


class _Process(Process):
    """A process that takes weak references."""


@pytest.fixture(autouse=True)
def no_cycle_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.tcpfast
def test_completed_request_is_freed():
    """One request/response exchange over a connection, served and awaited
    by processes; the connection and environment stay alive."""
    env = Environment()
    conn = Connection(env, Link.lan(DEFAULT_CALIBRATION))

    def server(env):
        yield conn.wait_readable()
        request = conn.read_request()
        conn.open_transfer(request.response_size, request)
        assert conn.try_write(request.response_size, request) == request.response_size

    def client(env):
        request = Request(env, "light", 100)
        conn.send_request(request)
        yield request.completed
        return weakref.ref(request)

    env.process(server(env))
    exchange = env.process(client(env))
    env.run()
    assert exchange.value() is None


def test_fired_condition_is_freed(env):
    long_lived = env.event()
    condition = _Condition(env, [long_lived, env.timeout(1)], Condition.any_event)
    env.run()
    assert condition.processed
    ref = weakref.ref(condition)
    del condition
    assert ref() is None


def test_finished_process_is_freed(env):
    def body(env):
        yield env.timeout(1)
        return "done"

    process = _Process(env, body(env))
    env.run()
    assert process.value == "done"
    ref = weakref.ref(process)
    del process
    assert ref() is None
