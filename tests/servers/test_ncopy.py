"""N-copy single-threaded server (extension)."""

import pytest

from repro.calibration import default_calibration
from repro.cpu.scheduler import CPU
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.servers.ncopy import NCopyServer
from repro.sim.core import Environment


def test_copies_validation(env, cpu):
    with pytest.raises(ValueError):
        NCopyServer(env, cpu, copies=0)


def test_connections_sharded_round_robin(env, cpu, make_connection):
    server = NCopyServer(env, cpu, copies=3)
    for _ in range(7):
        server.attach(make_connection())
    counts = sorted(copy.selector.registered for copy in server.copies)
    assert counts == [2, 2, 3]


def test_requests_served_by_owning_copy(env, cpu, make_connection):
    server = NCopyServer(env, cpu, copies=2)
    connections = [make_connection() for _ in range(4)]
    for conn in connections:
        server.attach(conn)
    requests = []
    for conn in connections:
        request = Request(env, "x", 500)
        conn.send_request(request)
        requests.append(request)
    env.run(env.all_of([r.completed for r in requests]))
    assert [copy.connections for copy in server.copies] == [
        connections[0::2], connections[1::2]
    ]
    # The copies count into the wrapper's one ServerStats.
    assert all(copy.stats is server.stats for copy in server.copies)
    assert server.stats.requests_completed == 4


def test_scales_with_cores():
    def throughput(cores):
        calib = default_calibration(cores=cores)
        env = Environment()
        cpu = CPU(env, calib)
        server = NCopyServer(env, cpu, copies=cores)
        link = Link.lan(calib)
        from repro.workload.mixes import FixedMix
        from repro.workload.population import build_population
        from repro.metrics.collector import RunRecorder
        from repro.sim.rng import SeedStreams

        recorder = RunRecorder(env, warmup=0.2)
        build_population(env, server, size=16, mix=FixedMix(102), link=link,
                         calibration=calib, seeds=SeedStreams(1), recorder=recorder)
        env.run(until=0.7)
        return recorder.report().throughput

    assert throughput(2) > 1.7 * throughput(1)


def test_zero_switches_per_copy(env, cpu, make_connection):
    server = NCopyServer(env, cpu, copies=1)
    conn = make_connection()
    server.attach(conn)
    warm = Request(env, "w", 100)
    conn.send_request(warm)
    env.run(warm.completed)
    before = cpu.counters.context_switches
    for _ in range(10):
        request = Request(env, "x", 100)
        conn.send_request(request)
        env.run(request.completed)
    assert cpu.counters.context_switches - before <= 1
