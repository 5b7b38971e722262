"""Thread-per-connection server specifics."""

from repro.net.messages import Request
from repro.servers.threaded import ThreadedServer


def test_one_live_thread_per_connection(env, cpu, make_connection):
    server = ThreadedServer(env, cpu)
    before = cpu.live_threads
    connections = [make_connection() for _ in range(5)]
    for conn in connections:
        server.attach(conn)
    env.run(until=0.001)
    assert cpu.live_threads == before + 5


def test_unlimited_threads_by_default(env, cpu, make_connection):
    server = ThreadedServer(env, cpu)
    connections = [make_connection() for _ in range(20)]
    for conn in connections:
        server.attach(conn)
    requests = []
    for conn in connections:
        request = Request(env, "x", 500)
        conn.send_request(request)
        requests.append(request)
    env.run(env.all_of([r.completed for r in requests]))
    assert all(r.completed_at is not None for r in requests)


def test_wake_cost_charged_per_blocking_wake(env, cpu, make_connection, calib):
    server = ThreadedServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    request = Request(env, "x", 100)
    conn.send_request(request)
    env.run(request.completed)
    # The blocking-read wake charged at least one wake cost as system time.
    assert cpu.counters.busy_system >= calib.thread_wake_cost
