"""One closed-loop run of a built system: the skeleton every runner shares.

The paper runs one experiment on two setups: JMeter-style clients against
one server (:func:`repro.experiments.micro.run_micro`) and the same
clients against the RUBBoS chain or a service DAG
(:func:`repro.ntier.topology.run_ntier`).  A runner builds its system and
hands it to :func:`run_system`, which owns everything around it: the
recorder, the seed streams and the fault injector, the resilience budget
and deadline, the client population, the timed ``env.run`` and the
result.

A built system answers:

* ``front_server`` — the server the clients connect to;
* ``app_cpu`` — the CPU the recorder watches and stall windows seize;
* ``crash_targets()`` — the instances crash and degrade windows index;
* ``start(policy, budget, mix)`` — arm the system, before the clients;
* ``watch()`` — start its own accounting, after the clients;
* ``resilience_counters()`` — its breakers and limiters, after the run;
* ``finish(reported)`` — its result fields, after the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cohort.config import STREAMING_THRESHOLD
from repro.faults import FaultInjector, FaultReport
from repro.metrics.collector import RunRecorder, RunReport
from repro.resilience import RetryBudget
from repro.sim.rng import SeedStreams
from repro.workload.population import build_population

__all__ = ["RunResult", "run_system"]


@dataclass(frozen=True)
class RunResult:
    """Measurements of one run: the report plus per-layer counters.

    A counter dict is empty unless its layer ran, so a result compares
    equal to one of a run without that layer.
    """

    #: The run's ``MicroConfig`` or ``NTierConfig``.
    config: Any
    report: RunReport
    #: Server counters: a micro run's one server; a multi-tier run's
    #: shed/expired/aborted requests per tier (only when ``client_stats``
    #: is filled).
    server_stats: Dict[str, float] = field(default_factory=dict)
    #: Summed client resilience counters (filled under faults, retries, a
    #: resilience policy or a lazy cohort).
    client_stats: Dict[str, float] = field(default_factory=dict)
    #: Fault-injection report (``None`` for clean runs).
    faults: Optional[FaultReport] = None
    #: Retry budget, breaker, admission limiter and expiry counters (empty
    #: unless a resilience policy ran).
    resilience: Dict[str, float] = field(default_factory=dict)
    #: Aggregate-cohort counters (empty unless a lazy cohort ran).
    cohort_stats: Dict[str, float] = field(default_factory=dict)
    #: Simulation events the kernel processed.  A pure function of the
    #: config, so serial, parallel and cached runs must agree on it.
    kernel_events: int = 0
    #: Tier name → CPU utilisation in [0, 1] after warm-up.
    tier_utilization: Dict[str, float] = field(default_factory=dict)
    #: Tier name → context switches per second after warm-up.
    tier_switch_rate: Dict[str, float] = field(default_factory=dict)
    #: Cache-tier counters (hits, fetches, coalesced flights).
    cache_stats: Dict[str, float] = field(default_factory=dict)
    #: Replica-group counters: balancer picks and ejections, health
    #: probes, crashes, hedging.
    replica_stats: Dict[str, float] = field(default_factory=dict)
    #: DAG counters: degraded requests, per-edge outcomes, per-node
    #: replica groups.
    dag_stats: Dict[str, float] = field(default_factory=dict)
    #: Successful completions per timeline bucket of absolute sim time
    #: (empty when the run keeps no timeline).
    goodput_timeline: "tuple" = ()
    #: Host wall-clock seconds inside ``env.run``.  Wall clock is not
    #: deterministic, so it is excluded from equality.
    sim_wall_s: float = field(default=0.0, compare=False)
    #: Per-shard kernel accounting (:class:`repro.shard.ShardStats`);
    #: empty for serial runs.  Island event counts include cut-edge
    #: bookkeeping and stall times are wall clock, so it is excluded from
    #: equality.
    shard_events: "tuple" = field(default=(), compare=False)

    @property
    def events_per_sec(self) -> float:
        """Kernel events per wall-clock second (0 when unmeasurable)."""
        if self.sim_wall_s <= 0.0:
            return 0.0
        return self.kernel_events / self.sim_wall_s

    @property
    def throughput(self) -> float:
        return self.report.throughput

    @property
    def response_time(self) -> float:
        return self.report.response_time_mean


def run_system(config, env, system, size, mix, link, think, options,
               timeline_bucket, result):
    """Drive ``size`` closed-loop clients against ``system`` on ``env``.

    ``config`` is the runner's config; the fields read here (``warmup``,
    ``duration``, ``seed``, ``calibration``, ``fault_plan``, ``retry``,
    ``resilience``, ``cohort``) mean the same in both.  ``mix``, ``link``,
    ``think`` and ``options`` shape the clients.  Returns a ``result``
    (:class:`RunResult` or a subclass) holding the recorder's report, the
    run's counters and ``system.finish``'s fields.

    Statement order is load-bearing: each step may schedule events, and
    same-time events run in insertion order.
    """
    policy = config.resilience
    if policy is not None and not policy.enabled:
        policy = None
    cohort = config.cohort
    lazy_cohort = cohort is not None and cohort.lazy_active()
    recorder = RunRecorder(
        env,
        warmup=config.warmup,
        # Bounded-heap measurement for bounded-heap populations.
        streaming=lazy_cohort and size >= STREAMING_THRESHOLD,
        timeline_bucket=timeline_bucket,
    )
    recorder.watch_cpu(system.app_cpu)
    seeds = SeedStreams(config.seed)
    injector: Optional[FaultInjector] = None
    if config.fault_plan is not None and config.fault_plan.enabled:
        injector = FaultInjector(env, config.fault_plan, seeds.fork("faults"))
        injector.start_stalls(system.app_cpu)
        # A window naming an instance the system does not have raises
        # here, before anything runs.
        targets = system.crash_targets()
        injector.start_crashes(targets)
        injector.start_degrades(targets)
    budget: Optional[RetryBudget] = None
    deadline: Optional[float] = None
    if policy is not None:
        deadline = policy.deadline
        if policy.retry_budget is not None:
            budget = RetryBudget(policy.retry_budget)
    system.start(policy, budget, mix)
    population = build_population(
        env,
        system.front_server,
        size=size,
        mix=mix,
        link=link,
        calibration=config.calibration,
        seeds=seeds,
        recorder=recorder,
        think=think,
        options=options,
        ramp_up=config.warmup * 0.8,
        faults=injector,
        retry=config.retry,
        budget=budget,
        deadline=deadline,
        cohort=cohort,
    )
    system.watch()
    sim_start = time.perf_counter()
    env.run(until=config.duration)
    sim_wall = time.perf_counter() - sim_start

    reported = (
        injector is not None
        or config.retry is not None
        or policy is not None
        or lazy_cohort
    )
    resilience: Dict[str, float] = {}
    if policy is not None:
        if budget is not None:
            resilience.update(budget.counters())
        resilience.update(system.resilience_counters())
    return result(
        config=config,
        report=recorder.report(),
        client_stats=population.client_stat_totals() if reported else {},
        faults=injector.report() if injector is not None else None,
        resilience=resilience,
        cohort_stats=population.cohort_stats(),
        kernel_events=env.events_processed,
        goodput_timeline=recorder.timeline(),
        sim_wall_s=sim_wall,
        **system.finish(reported),
    )
