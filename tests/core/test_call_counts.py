"""Python calls into ``repro.core`` on HybridNetty's light path, pinned.

Counted with :func:`tests.helpers.count_calls`, as
``tests/net/test_call_counts.py`` counts the per-response net path.
"""

import repro.core
from repro.calibration import DEFAULT_CALIBRATION
from repro.core.hybrid import HybridServer, PathCategory
from repro.cpu.scheduler import CPU
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.sim.core import Environment

from tests.helpers import count_calls


def _light_response_calls(n_responses: int) -> int:
    """Calls for ``n_responses`` back-to-back 102-byte responses of one
    type on a warmed server, each run until the client has it."""
    env = Environment()
    server = HybridServer(env, CPU(env, DEFAULT_CALIBRATION))
    conn = Connection(env, Link.lan(DEFAULT_CALIBRATION), DEFAULT_CALIBRATION)
    server.attach(conn)
    requests = []

    def serve(count):
        for _ in range(count):
            request = Request(env, "small", 102)
            conn.send_request(request)
            env.run(request.completed)
            requests.append(request)

    serve(2)  # warm-up: the first response profiles the type light
    calls = count_calls(repro.core, lambda: serve(n_responses))
    assert server.path_map == {"small": PathCategory.LIGHT}
    assert [r.metadata["path"] for r in requests[1:]] == ["light"] * (n_responses + 1)
    return calls


def test_light_response_core_call_count():
    """One light response makes 9 calls into ``repro.core`` (14 while a
    write-only profiler and a hysteresis classifier sat beside the map):
    five entries of the ``_handle_readable`` generator, three of
    ``_light_path`` and one ``_observe``, which reads and keeps the map
    inline."""
    per_ten = _light_response_calls(20) - _light_response_calls(10)
    assert per_ten == 10 * 9
