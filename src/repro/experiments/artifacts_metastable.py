"""Metastable-failure extension artifact: naive retries vs full resilience.

The scenario the paper's healthy testbed never exercises: a transient
stop-the-world stall hits the bottleneck (Tomcat) tier of the 3-tier
RUBBoS deployment while clients retry on timeout.  With *naive* retries
(tight timeout, effectively unbounded attempts, constant backoff) the
stall tips the system into a **metastable failure**: the retry storm
alone exceeds the tier's capacity, every admitted request is doomed work
whose client has already timed out, and goodput stays at zero long after
the stall has ended — the trigger is gone but the failure sustains
itself.  With the full cross-tier resilience stack from
:mod:`repro.resilience` — deadline propagation, a shared retry budget,
circuit breakers on both inter-tier pools, and AIMD admission control on
the Tomcat tier — the same stall produces a bounded dip and the system
returns to its pre-stall goodput within a couple of seconds.

Both cells run the *same* retry policy; the only difference is the
resilience policy, so the comparison isolates what the machinery buys.
Everything is driven by seeded streams: the artifact is bit-identical
for a fixed seed regardless of ``--jobs``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.experiments.parallel import SweepExecutor
from repro.experiments.results import ArtifactResult, breaker_totals
from repro.faults import FaultPlan, StallWindow
from repro.ntier.topology import NTierConfig
from repro.resilience import (
    AdmissionConfig,
    BreakerConfig,
    ResiliencePolicy,
    RetryBudgetConfig,
)
from repro.workload.client import RetryPolicy

__all__ = ["metastable_failure", "METASTABLE_RETRY", "METASTABLE_RESILIENCE"]

#: Emulated users.  The collapse must be *self-sustaining*: with every
#: client stuck in its timeout/backoff loop the storm arrival rate is
#: roughly ``users / (timeout + backoff)`` ≈ 3000 rps, comfortably above
#: the Tomcat tier's ~1250 rps capacity — so once the stall fills the
#: queues, the storm alone keeps them full.
_USERS = 1200
_THINK_MEAN = 2.5
_WARMUP = 3.0
#: The trigger: a 2-second stop-the-world stall on the Tomcat tier.
_STALL = StallWindow(start=6.0, duration=2.0)
#: Post-stall grace before the recovery window opens (lets the resilient
#: system drain its backlog; the naive system gets the same headstart).
_GRACE = 2.0
#: Goodput-timeline bucket width (seconds of sim time).
_BUCKET = 0.5
_SEED = 3

#: The *same* client retry policy for both cells: tight timeout,
#: effectively unbounded attempts, constant jittered backoff — the naive
#: configuration every retry post-mortem warns about.
METASTABLE_RETRY = RetryPolicy(
    timeout=0.35, max_retries=100, backoff_base=0.05,
    backoff_factor=1.0, jitter=0.25,
)

#: The full resilience stack under test (see repro.resilience).
METASTABLE_RESILIENCE = ResiliencePolicy(
    deadline=0.7,
    retry_budget=RetryBudgetConfig(ratio=0.1),
    breaker=BreakerConfig(open_duration=0.5),
    admission=AdmissionConfig(target_latency=0.1, min_limit=8, max_limit=512),
)


def _metastable_config(
    resilience: Optional[ResiliencePolicy], scale: float
) -> NTierConfig:
    """One 3-tier cell: stalled mid-tier, retrying clients."""
    stall_end = _STALL.start + _STALL.duration
    post_window = max(2.0, 8.0 * scale)
    return NTierConfig(
        tomcat_variant="async",
        users=_USERS,
        think_mean=_THINK_MEAN,
        duration=stall_end + _GRACE + post_window,
        warmup=_WARMUP,
        fault_plan=FaultPlan(server_stalls=(_STALL,)),
        retry=METASTABLE_RETRY,
        resilience=resilience,
        timeline_bucket=_BUCKET,
        seed=_SEED,
    )


def metastable_failure(
    scale: float = 1.0, jobs: Optional[int] = None
) -> ArtifactResult:
    """Metastable failure: a transient mid-tier stall under naive retries
    vs the full cross-tier resilience stack."""
    result = ArtifactResult(
        artifact="metastable",
        title="Metastable failure: transient Tomcat stall under naive "
        "retries vs deadline propagation + retry budget + circuit "
        "breakers + adaptive admission control",
        paper_claim="Extension beyond the paper: with naive retries a "
        "2s stall tips the 3-tier system into a self-sustaining collapse "
        "(goodput ~0 long after the stall ends); the resilience stack "
        "bounds retry amplification and restores >=90% of pre-stall "
        "goodput within seconds",
        headers=[
            "config",
            "pre rps",
            "stall rps",
            "post rps",
            "post/pre %",
            "attempts",
            "retries",
            "amp %",
            "breaker opens",
        ],
    )
    # The tuned seed *is* the scenario (the collapse threshold was
    # validated against it), so sweep-key seed derivation stays off.
    sweep = SweepExecutor("metastable", scale=scale, jobs=jobs,
                          derive_seeds=False)
    naive_cfg = _metastable_config(None, scale)
    resilient_cfg = _metastable_config(METASTABLE_RESILIENCE, scale)
    # Zero-impact probe: a clean (stall-free, retry-free) run specified
    # with no resilience machinery at all vs. an explicitly disabled
    # policy.  Their measurements must be bit-identical.
    clean = NTierConfig(
        tomcat_variant="async",
        users=_USERS,
        think_mean=_THINK_MEAN,
        duration=_WARMUP + 3.0,
        warmup=_WARMUP,
        timeline_bucket=_BUCKET,
        seed=_SEED,
    )
    runs = sweep.map_ntier({
        "naive": naive_cfg,
        "resilient": resilient_cfg,
        ("zero", "plain"): clean,
        ("zero", "disabled"): replace(clean, resilience=ResiliencePolicy()),
    })

    stall_end = _STALL.start + _STALL.duration
    pre = {}
    post = {}
    for name in ("naive", "resilient"):
        run = runs[name]
        pre[name] = run.goodput_rate(_WARMUP, _STALL.start)
        stall_rate = run.goodput_rate(_STALL.start, stall_end)
        post[name] = run.goodput_rate(stall_end + _GRACE, run.config.duration)
        attempts = run.client_stats.get("attempts", 0.0)
        retries = run.client_stats.get("retries", 0.0)
        result.add_row(
            name,
            pre[name],
            stall_rate,
            post[name],
            100.0 * post[name] / pre[name] if pre[name] else float("nan"),
            int(attempts),
            int(retries),
            100.0 * retries / attempts if attempts else float("nan"),
            int(breaker_totals(runs[name].resilience)["breaker_opens"]),
        )
        result.add_run_counters(run)

    zero_plain = runs[("zero", "plain")]
    zero_disabled = runs[("zero", "disabled")]
    result.check(
        "a disabled ResiliencePolicy is provably zero-impact "
        "(bit-identical measurements)",
        zero_plain.report == zero_disabled.report
        and zero_plain.goodput_timeline == zero_disabled.goodput_timeline
        and zero_plain.kernel_events == zero_disabled.kernel_events,
        f"throughput {zero_plain.report.throughput:.1f} == "
        f"{zero_disabled.report.throughput:.1f} rps, "
        f"{zero_plain.kernel_events:,} == "
        f"{zero_disabled.kernel_events:,} events",
    )
    result.check(
        "naive retries sustain the collapse after the stall ends "
        "(post-stall goodput <= 50% of pre-stall)",
        post["naive"] <= 0.5 * pre["naive"],
        f"{pre['naive']:.0f} rps before, {post['naive']:.0f} rps after",
    )
    result.check(
        "the resilience stack recovers >= 90% of pre-stall goodput",
        post["resilient"] >= 0.9 * pre["resilient"],
        f"{pre['resilient']:.0f} rps before, "
        f"{post['resilient']:.0f} rps after",
    )
    res_attempts = runs["resilient"].client_stats.get("attempts", 0.0)
    res_retries = runs["resilient"].client_stats.get("retries", 0.0)
    budget_cfg = METASTABLE_RESILIENCE.retry_budget
    bound = budget_cfg.ratio * res_attempts + budget_cfg.initial
    naive_amp = (
        runs["naive"].client_stats.get("retries", 0.0)
        / runs["naive"].client_stats.get("attempts", 1.0)
    )
    result.check(
        "the retry budget bounds amplification (retries <= "
        f"{budget_cfg.ratio:.0%} of attempts + initial tokens)",
        res_retries <= bound,
        f"{res_retries:.0f} retries vs bound {bound:.0f} "
        f"(naive: {naive_amp:.0%} of attempts were retries)",
    )
    res = runs["resilient"].resilience
    totals = breaker_totals(res)
    opens = totals["breaker_opens"]
    shed = totals["breaker_fast_failures"] + res.get("budget_denied", 0)
    result.check(
        "the machinery engaged: a breaker opened and work was shed "
        "cheaply (fast-fails + denied retry tokens)",
        opens >= 1 and shed > 0,
        f"{opens:.0f} breaker opens, {shed:.0f} requests shed",
    )
    result.note(
        f"{_USERS} users, think ~{_THINK_MEAN:g}s; stall seizes the "
        f"Tomcat CPU for {_STALL.duration:g}s at t={_STALL.start:g}s; "
        f"both cells retry with timeout {METASTABLE_RETRY.timeout:g}s, "
        f"constant {METASTABLE_RETRY.backoff_base:g}s jittered backoff, "
        f"max {METASTABLE_RETRY.max_retries} retries; resilient cell "
        f"adds {METASTABLE_RESILIENCE.deadline:g}s deadlines, a "
        f"{budget_cfg.ratio:.0%} retry budget, breakers and AIMD "
        "admission control"
    )
    result.note(
        "goodput windows: pre-stall = post-warmup..stall start; post = "
        f"{_GRACE:g}s after stall end..run end (timeline zero-padded: "
        "buckets with no successes are the collapse, not missing data)"
    )
    return result
