"""Population counter sweeps."""

import pytest

from repro.servers.threaded import ThreadedServer
from repro.sim.rng import SeedStreams
from repro.workload.mixes import FixedMix
from repro.workload.population import build_population

pytestmark = pytest.mark.cohort


def _build(env, cpu, lan, calib, **kwargs):
    server = ThreadedServer(env, cpu)
    return build_population(
        env,
        server,
        size=kwargs.pop("size", 6),
        mix=FixedMix(100),
        link=lan,
        calibration=calib,
        seeds=SeedStreams(1),
        **kwargs,
    )


def test_client_stat_totals_single_pass(env, cpu, lan, calib):
    population = _build(env, cpu, lan, calib)
    env.run(until=0.05)
    totals = population.client_stat_totals()
    assert totals["successes"] == sum(c.stats.successes for c in population.clients)
    assert totals["attempts"] == sum(c.stats.attempts for c in population.clients)
    assert population.cohort_stats() == {}
