"""Python calls into ``repro.net`` on the per-response path, pinned.

Counted with :func:`tests.helpers.count_calls`, as
``test_sticky_burst_python_call_count`` counts the CPU burst path.
"""

import repro.net
from repro.calibration import DEFAULT_CALIBRATION
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.selector import EVENT_READ, Selector
from repro.net.tcp import Connection
from repro.sim.core import Environment

from tests.helpers import count_calls


def _light_response_calls(monkeypatch, n_responses: int) -> int:
    """Calls for ``n_responses`` 100-byte request/response exchanges, one
    at a time, each from ``send_request`` to the final ACK's release."""
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "1")
    env = Environment()
    conn = Connection(env, Link.lan(DEFAULT_CALIBRATION))
    requests = []

    def exchanges():
        for _ in range(n_responses):
            request = Request(env, "light", 100)
            conn.send_request(request)
            env.run()
            assert conn.read_request() is request
            conn.open_transfer(100, request)
            assert conn.try_write(100, request) == 100
            env.run()
            requests.append(request)

    calls = count_calls(repro.net, exchanges)
    assert conn._fp_active
    assert all(request.completed_at is not None for request in requests)
    assert conn.buffer.used == 0
    assert conn.stats.idle_resets == 0
    return calls


def test_light_response_net_call_count(monkeypatch):
    """One light response on an idle fast-path connection makes 19 calls
    into ``repro.net`` (30 before the lean per-response path):

    * the request: ``Request.__post_init__``, ``send_request`` with
      ``Link.transfer_delay`` and, at arrival, ``_request_arrival_cb``
      with ``_on_request_arrival`` (no watcher is parked, so no
      ``_notify_readable``);
    * the response: ``read_request``, ``open_transfer`` with
      ``ResponseTransfer.__init__``, and ``try_write`` with
      ``SendBuffer.reserve`` and ``_fp_extend``, which takes the short
      branch and covers the response's completion boundary with
      ``_fp_cover``;
    * the final byte's delivery: ``_fp_boundary_cb``, its
      ``_fp_advance``, ``_attribute_delivery`` and
      ``Request.mark_completed``;
    * the ACK: ``_fp_settle_cb``, its ``_fp_advance`` and
      ``SendBuffer.release``.
    """
    per_ten = _light_response_calls(monkeypatch, 20) - _light_response_calls(monkeypatch, 10)
    assert per_ten == 10 * 19


def test_ready_list_calls_are_per_scan():
    """A selector scan over 100 read-interest connections makes two calls,
    ``ready_list`` and ``_ready_among`` (201 before: one ``_readiness``
    and one ``readable`` call per connection)."""
    env = Environment()
    selector = Selector(env)
    conns = [Connection(env, Link.lan(DEFAULT_CALIBRATION)) for _ in range(100)]
    for conn in conns:
        selector.register(conn, EVENT_READ)
    for conn in conns[::40]:
        conn.send_request(Request(env, "light", 100))
    env.run()
    ready = []
    assert count_calls(repro.net, lambda: ready.extend(selector.ready_list())) == 2
    assert ready == [(conn, EVENT_READ) for conn in conns[::40]]
