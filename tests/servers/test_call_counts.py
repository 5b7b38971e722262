"""Python calls into ``repro.servers`` on sTomcat-Async's light path, pinned.

Counted with :func:`tests.helpers.count_calls`, as
``tests/net/test_call_counts.py`` counts the per-response net path.
"""

import gc

import repro.servers
from repro.calibration import DEFAULT_CALIBRATION
from repro.cpu.scheduler import CPU
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.servers.reactor import ReactorServer
from repro.sim.core import Environment

from tests.helpers import count_calls


def _light_response_calls(n_responses: int) -> int:
    """Calls for ``n_responses`` back-to-back 102-byte responses on one
    connection, each run until the client has it, with no tracer."""
    env = Environment()
    server = ReactorServer(env, CPU(env, DEFAULT_CALIBRATION))
    conn = Connection(env, Link.lan(DEFAULT_CALIBRATION), DEFAULT_CALIBRATION)
    server.attach(conn)

    def serve(count):
        for _ in range(count):
            request = Request(env, "small", 102)
            conn.send_request(request)
            env.run(request.completed)

    serve(2)  # warm-up: every worker and the reactor are parked
    # Finalise an earlier run's suspended workers now: closing them
    # re-enters their generators, which would count as calls.
    gc.collect()
    calls = count_calls(repro.servers, lambda: serve(n_responses))
    assert server.tracer is None
    assert server.stats.requests_completed == n_responses + 2
    return calls


def test_light_response_servers_call_count():
    """One light response on sTomcat-Async makes 42 calls into
    ``repro.servers`` (46 while every milestone called ``_trace``, which
    returned at once with no tracer attached): each mark site now tests
    ``tracer`` itself."""
    per_ten = _light_response_calls(20) - _light_response_calls(10)
    assert per_ten == 10 * 42
