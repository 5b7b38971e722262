"""Server graceful degradation: load shedding, refusal, abort accounting."""

import pytest

from repro.errors import ServerError
from repro.net.messages import Request
from repro.servers.base import Application, ServerLimits
from repro.servers.threaded import ThreadedServer


class SlowApplication(Application):
    """Holds every admitted request in service for a fixed duration."""

    def __init__(self, duration=0.1):
        self.duration = duration

    def service(self, server, thread, request):
        yield server.env.timeout(self.duration)
        return request.response_size


def test_limits_validation():
    with pytest.raises(ServerError):
        ServerLimits(max_inflight=0)
    with pytest.raises(ServerError):
        ServerLimits(rejection_size=0)


def test_requests_beyond_max_inflight_are_rejected(env, cpu, make_connection):
    server = ThreadedServer(
        env, cpu, app=SlowApplication(0.1), limits=ServerLimits(max_inflight=2)
    )
    connections = [make_connection() for _ in range(5)]
    requests = []
    for conn in connections:
        server.attach(conn)
        request = Request(env, "x", 10_000)
        conn.send_request(request)
        requests.append(request)
    env.run(until=0.05)  # admitted requests are still inside the slow app
    rejected = [r for r in requests if r.metadata.get("rejected")]
    assert len(rejected) == 3
    assert server.stats.requests_rejected == 3
    # Shed requests were answered immediately with the tiny rejection
    # response; admitted ones are still in service.
    assert all(r.completed_at is not None for r in rejected)
    env.run(until=0.3)
    assert all(r.completed_at is not None for r in requests)
    assert server.stats.requests_completed == 5


def test_admission_slots_are_released(env, cpu, make_connection):
    server = ThreadedServer(
        env, cpu, app=SlowApplication(0.01), limits=ServerLimits(max_inflight=1)
    )
    conn = make_connection()
    server.attach(conn)
    for _ in range(3):  # sequential requests all fit through the one slot
        request = Request(env, "x", 1000)
        conn.send_request(request)
        env.run(request.completed)
    assert server.stats.requests_rejected == 0
    assert server._inflight == 0


def test_attach_to_a_down_server_is_refused(env, cpu, make_connection):
    server = ThreadedServer(env, cpu)
    accepted = make_connection()
    server.attach(accepted)
    server.down = True
    refused = make_connection()
    server.attach(refused)
    assert refused.closed
    assert not accepted.closed
    assert server.stats.connections_refused == 1
    assert server.connections == [accepted]


def test_midservice_disconnect_counts_an_abort(env, cpu, make_connection):
    server = ThreadedServer(
        env, cpu, app=SlowApplication(0.1), limits=ServerLimits(max_inflight=4)
    )
    conn = make_connection()
    server.attach(conn)
    request = Request(env, "x", 10_000)
    conn.send_request(request)
    env.run(until=0.05)  # mid-service
    conn.close()
    env.run(until=0.3)
    assert server.stats.requests_aborted == 1
    assert request.metadata.get("aborted")
    assert request.completed_at is None
    assert server._inflight == 0  # the admission slot was released


def test_no_limits_leaves_requests_unmarked(env, cpu, make_connection):
    server = ThreadedServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    request = Request(env, "x", 1000)
    conn.send_request(request)
    env.run(request.completed)
    assert "admitted" not in request.metadata
    assert "rejected" not in request.metadata


def test_ncopy_aggregates_degradation_counters(env, cpu, make_connection):
    """An abort on one copy shows in the wrapper's stats."""
    from repro.servers.ncopy import NCopyServer

    server = NCopyServer(env, cpu, app=SlowApplication(0.1), copies=2)
    idle, busy = make_connection(), make_connection()
    server.attach(idle)
    server.attach(busy)
    request = Request(env, "x", 10_000)
    busy.send_request(request)
    env.run(until=0.05)  # mid-service on the second copy
    busy.close()
    env.run(until=0.3)
    assert request.metadata.get("aborted")
    assert server.stats.requests_aborted == 1
    assert server.stats.requests_rejected == 0
    assert server.stats.connections_refused == 0
