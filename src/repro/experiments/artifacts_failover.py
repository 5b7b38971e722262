"""Replica-failover artifact: crash–restart vs the failover stack.

The robustness question PR 7 exists to answer: the paper's testbed is
one Apache, one Tomcat, one MySQL — so what does a production deployment
actually buy by running the Tomcat tier as N replicas behind the proxy?
This artifact crashes one instance mid-run (kill at t=6s, restart at
t=9s, brief cold warm-up) and compares three postures under the same
workload, retry policy and seed:

* **no-failover** — the classic single-instance topology with nothing
  but a retry budget.  Goodput collapses to ~zero for the *entire*
  downtime (every request lands on the corpse), and after the restart
  the un-health-checked cold instance serves the backlog slowly, so the
  run's p99 degrades by two orders of magnitude;
* **ejection** — three replicas behind the balancing proxy with passive
  outlier ejection.  The balancer needs ``ejection_threshold``
  consecutive failures to notice the crash, so the goodput dip is
  bounded by the detection window instead of the downtime; the two
  survivors absorb the load and the tail stays flat;
* **ejection+hedge** — the same, plus budget-bounded request hedging:
  a request whose primary attempt is slower than the learned p95 gets
  one backup attempt on a different replica, first response wins.
  Hedge amplification is capped by the retry budget (denied hedges are
  counted, not silently dropped).

A **cold-restart cache pair** reruns the crash with the PR 6 hot-report
cache workload: the restarted replica comes back with an *empty* cache
(that is what a process restart means) and active health probes return
traffic to it immediately — re-triggering the PR 6 stampede: without
single-flight every concurrent miss of a hot key issues its own
database fetch (duplicate-fetch amplification), while single-flight
coalesces the followers onto one leader flight per key.  Passive
ejection contains the *goodput* damage either way; the duplicate
fetches the database eats are the difference.

A zero-impact probe proves the whole replica layer is inert unless
asked for: ``replicas=1`` is bit-identical to a config with no
``ReplicaConfig`` at all.  Everything is seeded: the artifact
reproduces exactly for a fixed seed regardless of ``--jobs``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.cache import CacheConfig
from repro.experiments.artifacts_cache import HotReportMix, STAMPEDE_RETRY
from repro.experiments.parallel import SweepExecutor
from repro.experiments.results import ArtifactResult
from repro.faults import CrashWindow, FaultPlan
from repro.ntier.topology import NTierConfig, NTierResult
from repro.replica import ReplicaConfig
from repro.resilience import (
    BreakerConfig,
    HedgeConfig,
    ResiliencePolicy,
    RetryBudgetConfig,
)
from repro.workload.client import RetryPolicy

__all__ = ["replica_failover"]

#: Emulated users / think time for the load-balancing cells (~400 rps
#: against a three-replica Tomcat tier that can comfortably serve it
#: from two replicas — failover has headroom to hide the crash).
_USERS = 400
_THINK_MEAN = 1.0
_WARMUP = 3.0
#: The fault: one Tomcat instance dies at 6s and restarts at 9s with a
#: 1s cold warm-up (JIT, connection re-establishment) on its cores.
_CRASH_START = 6.0
_CRASH_END = 9.0
_CRASH_WARMUP = 1.0
#: Post-restart grace before the recovery window opens.
_GRACE = 1.0
_BUCKET = 0.5
_SEED = 7
#: Retry budget ratio shared by all resilient cells (also the cap on
#: hedge amplification: hedges spend from the same bucket).
_BUDGET_RATIO = 0.1

#: Patient client retries: the 2s timeout is far above the healthy p99,
#: so post-restart slowness lands in the latency population instead of
#: being censored by client timeouts — the honest way to see the
#: un-health-checked cold instance in the tail.
_RETRY = RetryPolicy(
    timeout=2.0, max_retries=4, backoff_base=0.05,
    backoff_factor=1.0, jitter=0.25,
)

#: The no-failover baseline carries *only* the retry budget: no breaker,
#: no replicas — the pre-PR 4 posture plus loop-safety.
_PLAIN = ResiliencePolicy(retry_budget=RetryBudgetConfig(ratio=_BUDGET_RATIO))
#: The failover cells add the per-replica-edge circuit breaker.
_RESILIENT = replace(_PLAIN, breaker=BreakerConfig(open_duration=0.5))
#: ...and the hedged cell adds budget-bounded hedging at the learned p95.
_HEDGED = replace(
    _RESILIENT,
    hedge=HedgeConfig(
        quantile=0.95, min_delay=0.02, initial_delay=0.05, min_samples=50
    ),
)

#: Three replicas, round-robin, Envoy-style passive ejection: 5
#: consecutive failures take an instance out for 0.25s, doubling per
#: failed probation up to 2s.  No active probes here — detection cost
#: is the thing being measured.
_EJECT = ReplicaConfig(
    replicas=3,
    policy="round_robin",
    ejection_threshold=5,
    ejection_duration=0.25,
    ejection_backoff=2.0,
    ejection_max_duration=2.0,
)

#: Cold-restart cache cells: the PR 6 hot-report mix (30ms of database
#: CPU per uncached fetch, 8 hot keys) with probes on — the prober
#: returns traffic to the restarted replica immediately, maximising the
#: cold-cache miss burst.
_CACHE_USERS = 500
_CACHE_THINK = 1.5
_CACHE_SEED = 11
_CACHE_KEYS = 8
_CACHE_WARM_RESTART = 0.5
_EJECT_PROBED = replace(_EJECT, probe_interval=0.25)
_CACHE_RESILIENT = replace(_RESILIENT, deadline=0.5)


def _lb_config(variant_replica: Optional[ReplicaConfig],
               resilience: ResiliencePolicy,
               instance: int, scale: float) -> NTierConfig:
    post_window = max(2.0, 6.0 * scale)
    return NTierConfig(
        tomcat_variant="async",
        users=_USERS,
        think_mean=_THINK_MEAN,
        duration=_CRASH_END + _GRACE + post_window,
        warmup=_WARMUP,
        retry=_RETRY,
        resilience=resilience,
        timeline_bucket=_BUCKET,
        seed=_SEED,
        fault_plan=FaultPlan(crash_windows=(
            CrashWindow(_CRASH_START, _CRASH_END, instance, _CRASH_WARMUP),
        )),
        replica=variant_replica,
    )


def _cold_config(single_flight: bool, scale: float) -> NTierConfig:
    post_window = max(3.0, 9.0 * scale)
    return NTierConfig(
        tomcat_variant="async",
        users=_CACHE_USERS,
        think_mean=_CACHE_THINK,
        duration=_CRASH_END + post_window,
        warmup=_WARMUP,
        retry=STAMPEDE_RETRY,
        resilience=_CACHE_RESILIENT,
        timeline_bucket=_BUCKET,
        seed=_CACHE_SEED,
        cache=CacheConfig(
            policy="cache_aside",
            # The hot set never expires on its own: the only cold misses
            # in the run are the restarted replica's.
            ttl=60.0,
            capacity=64,
            keys_per_class=_CACHE_KEYS,
            single_flight=single_flight,
            prewarm=True,
        ),
        mix=HotReportMix(),
        fault_plan=FaultPlan(crash_windows=(
            CrashWindow(_CRASH_START, _CRASH_END, 1, _CACHE_WARM_RESTART),
        )),
        replica=_EJECT_PROBED,
    )


def _dip_duration(result: NTierResult, pre: float) -> float:
    """Seconds of consecutive goodput below 50% of the pre-crash rate,
    measured from the crash instant to the end of the run — the outage
    as a client sees it."""
    bucket = result.config.timeline_bucket
    seconds = 0.0
    for index in range(
        int(_CRASH_START / bucket), int(round(result.config.duration / bucket))
    ):
        if result.goodput_rate(index * bucket, (index + 1) * bucket) >= 0.5 * pre:
            break
        seconds += bucket
    return seconds


def replica_failover(
    scale: float = 1.0, jobs: Optional[int] = None
) -> ArtifactResult:
    """Crash–restart failover: no-LB vs passive ejection vs
    ejection+hedging, plus the cold-cache restart stampede."""
    result = ArtifactResult(
        artifact="failover",
        title="Replica failover: crash-restart of one Tomcat instance "
        "under no-failover vs outlier ejection vs ejection+hedging, "
        "and the cold-cache restart stampede",
        paper_claim="Extension beyond the paper: a single-instance tier "
        "loses the entire crash window (goodput ~0 for the full "
        "downtime, p99 degraded by the un-health-checked cold restart); "
        "three replicas with passive outlier ejection bound the dip to "
        "the detection window (>=90% of pre-crash goodput through the "
        "downtime), hedging stays inside the retry budget, and a cold "
        "cache restart re-triggers the duplicate-fetch stampede unless "
        "single-flight coalescing is on",
        headers=[
            "config",
            "pre rps",
            "down rps",
            "post rps",
            "dip s",
            "p99 ms",
            "fetches",
            "coalesced",
        ],
    )
    # The tuned seed *is* the scenario (collapse/containment thresholds
    # were validated against it), so sweep-key seed derivation stays off.
    sweep = SweepExecutor("failover", scale=scale, jobs=jobs,
                          derive_seeds=False)
    cells: Dict[tuple, NTierConfig] = {
        # Crash instance 0 (the only instance) in the classic topology;
        # instance 1 of three in the replicated cells, so the balancer's
        # replica-0 aliases stay on a survivor.
        ("lb", "no-failover"): _lb_config(None, _PLAIN, 0, scale),
        ("lb", "ejection"): _lb_config(_EJECT, _RESILIENT, 1, scale),
        ("lb", "ejection+hedge"): _lb_config(_EJECT, _HEDGED, 1, scale),
        ("cold", "duplicates"): _cold_config(False, scale),
        ("cold", "single-flight"): _cold_config(True, scale),
    }
    # Zero-impact probe: no ReplicaConfig at all vs a single replica.
    # Both must be bit-identical.
    clean = NTierConfig(
        tomcat_variant="async",
        users=_USERS,
        think_mean=_THINK_MEAN,
        duration=_WARMUP + 2.0,
        warmup=_WARMUP,
        timeline_bucket=_BUCKET,
        seed=_SEED,
    )
    cells[("zero", "plain")] = clean
    cells[("zero", "single")] = replace(clean, replica=ReplicaConfig(replicas=1))
    runs = sweep.map_ntier(cells)

    pre: Dict[tuple, float] = {}
    down: Dict[tuple, float] = {}
    post: Dict[tuple, float] = {}
    dip: Dict[tuple, float] = {}
    for key, config in cells.items():
        if key[0] == "zero":
            continue
        run = runs[key]
        grace = _GRACE if key[0] == "lb" else _CACHE_WARM_RESTART + 0.5
        pre[key] = run.goodput_rate(_WARMUP, _CRASH_START)
        down[key] = run.goodput_rate(_CRASH_START, _CRASH_END)
        post[key] = run.goodput_rate(_CRASH_END + grace, run.config.duration)
        dip[key] = _dip_duration(run, pre[key])
        stats = run.cache_stats
        result.add_row(
            " ".join(key),
            pre[key],
            down[key],
            post[key],
            dip[key],
            1e3 * run.report.response_time_p99,
            int(stats["cache_fetches"]) if stats else None,
            int(stats["cache_coalesced"]) if stats else None,
        )
        for name in ("lb_ejections", "lb_panic_picks", "probe_failures",
                     "hedges_issued", "hedges_denied"):
            result.add_counter(name, run.replica_stats.get(name, 0.0))
        result.add_counter("pool_evictions",
                           run.resilience.get("pool_evictions", 0.0))
        for name in ("cache_fetches", "cache_coalesced"):
            result.add_counter(name, stats.get(name, 0.0))

    zero_plain = runs[("zero", "plain")]
    zero = runs[("zero", "single")]
    result.check(
        "zero-impact: ReplicaConfig(single) is bit-identical to no "
        "replica config at all",
        zero_plain.report == zero.report
        and zero_plain.goodput_timeline == zero.goodput_timeline
        and zero_plain.kernel_events == zero.kernel_events
        and zero.replica_stats == {},
        f"throughput {zero_plain.report.throughput:.1f} == "
        f"{zero.report.throughput:.1f} rps, "
        f"{zero_plain.kernel_events:,} == {zero.kernel_events:,} events",
    )

    nofail = ("lb", "no-failover")
    eject = ("lb", "ejection")
    hedge = ("lb", "ejection+hedge")
    downtime = _CRASH_END - _CRASH_START
    result.check(
        "no-failover: goodput collapses for the full downtime "
        "(down-window rate <= 10% of pre-crash)",
        down[nofail] <= 0.1 * pre[nofail],
        f"{pre[nofail]:.0f} rps before, {down[nofail]:.0f} rps during "
        f"the {downtime:g}s crash window",
    )
    result.check(
        "no-failover: the outage outlasts the crash window itself "
        "(restart + cold warm-up before goodput returns)",
        dip[nofail] >= downtime,
        f"dip lasted {dip[nofail]:g}s vs {downtime:g}s of downtime",
    )
    result.check(
        "no-failover: p99 degraded post-restart — the un-health-checked "
        "cold instance serves the backlog slowly (>= 3x ejection's p99)",
        runs[nofail].report.response_time_p99
        >= 3.0 * runs[eject].report.response_time_p99,
        f"{1e3 * runs[nofail].report.response_time_p99:.0f}ms vs "
        f"{1e3 * runs[eject].report.response_time_p99:.1f}ms",
    )
    result.check(
        "ejection: the dip is bounded by the detection window, not the "
        "downtime (>= 90% of pre-crash goodput through the crash, dip "
        "<= 1s)",
        down[eject] >= 0.9 * pre[eject] and dip[eject] <= 1.0,
        f"{down[eject]:.0f}/{pre[eject]:.0f} rps through the crash "
        f"window, dip {dip[eject]:g}s",
    )
    hedged_run = runs[hedge]
    hedges_issued = hedged_run.replica_stats.get("hedges_issued", 0.0)
    picks = hedged_run.replica_stats.get("lb_picks", 0.0)
    result.check(
        "ejection+hedge: >= 90% of pre-crash goodput through downtime "
        "and recovery",
        down[hedge] >= 0.9 * pre[hedge] and post[hedge] >= 0.9 * pre[hedge],
        f"{down[hedge]:.0f} rps during / {post[hedge]:.0f} rps after vs "
        f"{pre[hedge]:.0f} rps before",
    )
    result.check(
        "hedging engaged and stayed inside the retry budget "
        f"(issued <= {_BUDGET_RATIO:g} of routed attempts; over-budget "
        "hedges denied, not issued)",
        hedges_issued > 0 and hedges_issued <= _BUDGET_RATIO * picks,
        f"{hedges_issued:.0f} hedges over {picks:.0f} routed attempts, "
        f"{hedged_run.replica_stats.get('hedges_denied', 0.0):.0f} denied",
    )

    cold_dup = runs[("cold", "duplicates")].cache_stats
    cold_sf = runs[("cold", "single-flight")].cache_stats
    result.check(
        "cold-cache restart re-triggers the stampede: duplicate refill "
        f"fetches >= 3x the {_CACHE_KEYS}-key hot set",
        cold_dup.get("cache_fetches", 0.0) >= 3 * _CACHE_KEYS,
        f"{cold_dup.get('cache_fetches', 0):.0f} fetches to refill "
        f"{_CACHE_KEYS} keys",
    )
    result.check(
        "single-flight coalesces the restart stampede (<= half the "
        "duplicate-cell fetches; followers parked on leader flights)",
        cold_sf.get("cache_fetches", 0.0)
        <= 0.5 * cold_dup.get("cache_fetches", 0.0)
        and cold_sf.get("cache_coalesced", 0.0) > 0,
        f"{cold_sf.get('cache_fetches', 0):.0f} vs "
        f"{cold_dup.get('cache_fetches', 0):.0f} fetches, "
        f"{cold_sf.get('cache_coalesced', 0):.0f} misses coalesced",
    )
    result.note(
        f"{_USERS} users, think ~{_THINK_MEAN:g}s; one Tomcat instance "
        f"crashes at t={_CRASH_START:g}s, restarts at t={_CRASH_END:g}s "
        f"with a {_CRASH_WARMUP:g}s cold warm-up; replicated cells run "
        f"{_EJECT.replicas} replicas, ejection after "
        f"{_EJECT.ejection_threshold} consecutive failures "
        f"({_EJECT.ejection_duration:g}s sit-out, x"
        f"{_EJECT.ejection_backoff:g} backoff); hedging fires at the "
        "learned p95 and spends from the shared retry budget"
    )
    result.note(
        "cold-restart cells rerun the crash with the PR 6 hot-report "
        f"cache workload ({_CACHE_USERS} users, {_CACHE_KEYS} hot keys, "
        "prewarmed, non-expiring): the restarted replica's cache is "
        "empty and active probes return traffic to it immediately, so "
        "every fetch beyond one per key is stampede amplification; "
        "windows: pre = post-warmup..crash, down = crash window, post = "
        "grace after restart..run end (timeline zero-padded: empty "
        "buckets are the outage, not missing data)"
    )
    return result
