"""Cohort engine: accounting, determinism, episodes and fold-back."""

import pytest

from repro.cohort import Cohort, CohortConfig
from repro.experiments.micro import MicroConfig, run_micro
from repro.faults import FaultPlan
from repro.servers.threaded import ThreadedServer
from repro.sim.rng import SeedStreams
from repro.workload.client import (
    ExponentialThink,
    FixedThink,
    NoThink,
    RetryPolicy,
    ThinkTime,
)
from repro.workload.mixes import FixedMix
from repro.workload.population import build_population

pytestmark = pytest.mark.cohort


def _build(env, cpu, lan, calib, size=60, **kwargs):
    server = ThreadedServer(env, cpu)
    cohort = kwargs.pop(
        "cohort", CohortConfig(first_think=True, max_inflight=8)
    )
    return build_population(
        env,
        server,
        size=size,
        mix=FixedMix(100),
        link=lan,
        calibration=calib,
        seeds=SeedStreams(1),
        think=kwargs.pop("think", ExponentialThink(0.05)),
        cohort=cohort,
        **kwargs,
    )


def test_lazy_build_returns_cohort_population(env, cpu, lan, calib):
    """A lazy config builds the cohort itself as the population."""
    cohort = _build(env, cpu, lan, calib)
    assert isinstance(cohort, Cohort)
    assert cohort.size == 60
    assert cohort.unstarted == 60
    assert cohort.materialized == {}


class _UniformThink(ThinkTime):
    """A think-time class the engine has no closed form for, so the
    generic sampled-heap arrival engine carries it."""

    def sample(self, rng):
        return rng.uniform(0.01, 0.09)


@pytest.mark.parametrize(
    "think",
    [ExponentialThink(0.05), FixedThink(0.05), NoThink(), _UniformThink()],
    ids=["exponential", "fixed", "none", "sampled"],
)
def test_member_accounting_sums_to_size(env, cpu, lan, calib, think):
    """Every arrival engine keeps the member ledger closed.

    ``FixedThink`` has no engine of its own: like ``_UniformThink`` it
    runs on the sampled-heap engine, so ``[fixed]`` and ``[sampled]``
    both exercise it (a constant think time pops in completion order).
    """
    cohort = _build(env, cpu, lan, calib, think=think)
    for until in (0.01, 0.1, 0.3):
        env.run(until=until)
        accounting = cohort.member_accounting()
        assert sum(accounting.values()) == cohort.size, accounting
        assert all(v >= 0 for v in accounting.values()), accounting
    assert cohort.stats.completed > 0
    assert cohort.stats.entered == cohort.size


def test_bundle_respects_max_inflight(env, cpu, lan, calib):
    cohort = _build(
        env, cpu, lan, calib,
        cohort=CohortConfig(first_think=True, max_inflight=3),
        think=ExponentialThink(0.001),
    )
    env.run(until=0.3)
    assert cohort.stats.connections_opened <= 3
    assert cohort.stats.inflight_peak <= 3


def _episode_config(concurrency=400):
    return MicroConfig(
        "SingleT-Async",
        concurrency,
        duration=1.5,
        warmup=0.3,
        think_mean=0.5,
        fault_plan=FaultPlan(
            reset_request_prob=0.005,
            client_abort_prob=0.02,
            rto=0.05,
        ),
        retry=RetryPolicy(timeout=0.1, max_retries=2, backoff_base=0.01),
        cohort=CohortConfig(first_think=True, max_inflight=64),
    )


def test_fold_back_invariants_under_faults():
    result = run_micro(_episode_config())
    stats = result.cohort_stats
    assert stats["episodes"] > 0
    # Every episode either folded back or is still live at run end.
    assert stats["folded"] + stats["materialized_now"] == stats["episodes"]
    assert stats["materialized_peak"] >= stats["materialized_now"]
    assert stats["entered"] == stats["size"]
    # Aggregate + episode successes are what the population reports.
    totals = result.client_stats
    assert totals["successes"] >= stats["completed"]


def test_lazy_engine_deterministic_across_runs():
    first = run_micro(_episode_config())
    second = run_micro(_episode_config())
    assert first.report == second.report
    assert first.kernel_events == second.kernel_events
    assert first.cohort_stats == second.cohort_stats
    assert first.client_stats == second.client_stats
