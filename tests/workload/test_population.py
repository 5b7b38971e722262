"""Population builder."""

import pytest

from repro.metrics.collector import RunRecorder
from repro.servers.threaded import ThreadedServer
from repro.sim.rng import SeedStreams
from repro.workload.mixes import FixedMix
from repro.workload.population import ConnectionOptions, build_population


def build(env, cpu, lan, calib, size=4, **kwargs):
    server = ThreadedServer(env, cpu)
    return build_population(
        env,
        server,
        size=size,
        mix=FixedMix(100),
        link=lan,
        calibration=calib,
        seeds=SeedStreams(1),
        **kwargs,
    )


def test_size_validation(env, cpu, lan, calib):
    with pytest.raises(ValueError):
        build(env, cpu, lan, calib, size=0)


def test_population_wires_clients_and_connections(env, cpu, lan, calib):
    population = build(env, cpu, lan, calib, size=6)
    assert len(population.clients) == 6
    assert len(population.connections) == 6
    env.run(until=0.01)
    assert sum(c.requests_completed for c in population.clients) > 0


def test_connection_options_applied(env, cpu, lan, calib):
    population = build(
        env, cpu, lan, calib,
        options=ConnectionOptions(send_buffer_size=4096),
    )
    assert all(c.buffer.capacity == 4096 for c in population.connections)


def test_autotune_option_applied(env, cpu, lan, calib):
    population = build(env, cpu, lan, calib, options=ConnectionOptions(autotune=True))
    assert all(c.autotune for c in population.connections)


def test_ramp_up_staggers_clients(env, cpu, lan, calib):
    population = build(env, cpu, lan, calib, size=4, ramp_up=1.0)
    delays = [c.initial_delay for c in population.clients]
    assert delays == [0.0, 0.25, 0.5, 0.75]


def test_recorder_shared_across_clients(env, cpu, lan, calib):
    recorder = RunRecorder(env, warmup=0.0)
    build(env, cpu, lan, calib, recorder=recorder)
    env.run(until=0.01)
    assert recorder.response_times.count > 0


def test_clients_use_distinct_rng_streams(env, cpu, lan, calib):
    population = build(env, cpu, lan, calib, size=3)
    rngs = [c.rng for c in population.clients]
    assert len({id(r) for r in rngs}) == 3
