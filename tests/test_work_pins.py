"""Exact work pins for three end-to-end shapes.

Kernel events and completed requests are host-independent: they move only
when the simulator does different work, so every change to these pins must
be deliberate and explained.  Wall-clock speed is the job of the repo
benchmark (``python3 bench/run.py``); these pins keep the work counters in
the tier-1 suite.

The three shapes are the write-spin micro run (SingleT-Async, 50 users,
100 KB responses), a 200k-member lazy cohort that is mostly idle (think
400 s against a 6 s run) and a 3-leaf ``wait_all`` DAG compose.  A fourth
pin holds a lazy cohort with a constant think time, built directly with
``build_population``: no runner sends ``FixedThink``, so no other test
pins the sampled-heap engine's event sequence for it.

The runs are serial and take the default TCP path on purpose: both
``REPRO_SHARDS`` and ``REPRO_TCP_FASTPATH`` change ``kernel_events``, so
the test clears them and carries neither the ``shard`` nor the
``tcpfast`` marker.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.calibration import default_calibration
from repro.cohort import CohortConfig
from repro.cpu.scheduler import CPU
from repro.dag import DagConfig, Edge, ServiceNode
from repro.experiments.micro import MicroConfig, run_micro
from repro.metrics.collector import RunRecorder
from repro.net.link import Link
from repro.ntier.topology import NTierConfig, run_ntier
from repro.servers.reactor import ReactorServer
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams
from repro.workload.client import FixedThink
from repro.workload.mixes import SIZE_LARGE, BimodalMix, FixedMix
from repro.workload.population import build_population

_LEAVES = ("text", "media", "graph")

_SHAPES = {
    "micro": lambda: run_micro(MicroConfig(
        server="SingleT-Async",
        concurrency=50,
        response_size=SIZE_LARGE,
        duration=0.54,
        warmup=0.2,
    )),
    "cohort": lambda: run_micro(MicroConfig(
        server="SingleT-Async",
        concurrency=200_000,
        duration=6.0,
        warmup=2.0,
        think_mean=400.0,
        cohort=CohortConfig(materialize="lazy", max_inflight=2048, first_think=True),
    )),
    "dag": lambda: run_ntier(NTierConfig(
        tomcat_variant="async",
        users=40,
        think_mean=0.05,
        duration=1.0,
        warmup=0.3,
        mix=FixedMix(2048),
        dag=DagConfig(
            entry="compose",
            nodes=(
                ServiceNode(
                    name="compose",
                    edges=tuple(Edge(leaf) for leaf in _LEAVES),
                    fan_in="wait_all",
                    service_cpu=100.0e-6,
                ),
            ) + tuple(
                ServiceNode(name=leaf, service_cpu=200.0e-6) for leaf in _LEAVES
            ),
        ),
        seed=11,
    )),
}

#: ``(kernel_events, completed)`` per shape.
PINNED = {
    "micro": (34050, 138),
    "cohort": (30344, 1950),
    "dag": (64105, 534),
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_work_is_pinned(shape, monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_TCP_FASTPATH", raising=False)
    result = _SHAPES[shape]()
    assert (result.kernel_events, result.report.completed) == PINNED[shape]


#: ``(kernel_events, completed, report digest)`` of the fixed-think cohort,
#: recorded when ``FixedThink`` still had a FIFO arrival engine of its own:
#: the sampled-heap engine that now carries it must do the same work.
FIXED_THINK_PINNED = (184366, 5621, "acd7b25ae62300d5")


def test_fixed_think_cohort_work_is_pinned():
    calib = default_calibration()
    env = Environment()
    cpu = CPU(env, calib)
    recorder = RunRecorder(env)
    recorder.watch_cpu(cpu)
    build_population(
        env,
        ReactorServer(env, cpu, workers=8),
        size=500,
        mix=BimodalMix(0.05),
        link=Link.lan(calib, added_latency=0.001),
        calibration=calib,
        seeds=SeedStreams(3),
        recorder=recorder,
        think=FixedThink(0.02),
        ramp_up=0.05,
        cohort=CohortConfig(first_think=True, max_inflight=32),
    )
    env.run(until=1.0)
    report = recorder.report()
    digest = hashlib.sha256(
        repr(dataclasses.asdict(report)).encode("utf-8")
    ).hexdigest()[:16]
    assert (env.events_processed, report.completed, digest) == FIXED_THINK_PINNED
