"""A closed connection leaves its server and is freed by reference counting.

Each architecture serves six connections, loses two while idle and two
while their next response is being computed, then keeps serving the two
survivors.  With the cyclic collector off, every closed connection must be
gone, the registry must list the survivors in attach order, and each close
during service must count one abort.
"""

import gc
import weakref

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.cpu.scheduler import CPU
from repro.experiments.micro import SERVER_FACTORIES, MicroConfig, make_server
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.servers.base import ComputeApplication
from repro.sim.core import Environment


class _ResetInService(ComputeApplication):
    """Closes a listed request's connection while its response is computed."""

    def __init__(self, resets: dict):
        super().__init__(DEFAULT_CALIBRATION)
        #: request id -> connection; an entry is dropped when served.
        self.resets = resets

    def service(self, server, thread, request):
        connection = self.resets.pop(request.id, None)
        if connection is not None:
            connection.close()
        return (yield from super().service(server, thread, request))


def _exchange(env, connections, size):
    """Send one request on each connection; return the requests."""
    requests = [Request(env, "x", size) for _ in connections]
    for connection, request in zip(connections, requests):
        connection.send_request(request)
    return requests


def _complete(env, requests):
    env.run(env.all_of([request.completed for request in requests]))


def _churn(name):
    """Run the scenario; return the server, the survivors and weakrefs to
    the four closed connections."""
    env = Environment()
    server = make_server(
        name, env, CPU(env, DEFAULT_CALIBRATION), MicroConfig(server=name, concurrency=6)
    )
    resets = {}
    app = _ResetInService(resets)
    for each in [server, *getattr(server, "copies", ())]:
        each.app = app
    link = Link.lan(DEFAULT_CALIBRATION)
    connections = [Connection(env, link) for _ in range(6)]
    for connection in connections:
        server.attach(connection)
    # 20 KB responses outgrow the 16 KB send buffer: writers park.
    _complete(env, _exchange(env, connections, 20 * 1024))
    assert server.stats.requests_aborted == 0
    connections[1].close()
    connections[4].close()
    busy = [connections[i] for i in (0, 2, 3, 5)]
    requests = _exchange(env, busy, 20 * 1024)
    resets[requests[1].id] = connections[2]
    resets[requests[3].id] = connections[5]
    _complete(env, [requests[0], requests[2]])
    survivors = [connections[0], connections[3]]
    closed = [weakref.ref(connections[i]) for i in (1, 2, 4, 5)]
    del connections, busy, connection
    # Keep serving until every handler has moved on to other work.
    for _ in range(10):
        _complete(env, _exchange(env, survivors, 2 * 1024))
    env.run(until=env.now + 1.0)
    assert not resets
    return server, survivors, closed


@pytest.mark.parametrize("name", sorted(SERVER_FACTORIES))
def test_closed_connections_leave_the_server_and_are_freed(name):
    enabled = gc.isenabled()
    gc.disable()
    try:
        server, survivors, closed = _churn(name)
        assert [ref() for ref in closed] == [None] * 4
        assert server.connections == survivors
        assert server.stats.requests_aborted == 2
        assert all(not connection.closed for connection in survivors)
    finally:
        if enabled:
            gc.enable()
