"""Cache-stampede extension artifact: duplicate fetches vs single-flight.

The production failure mode the cache tier exists to study: the 3-tier
RUBBoS deployment serves a small set of *hot* reports straight out of the
cache — the database only sees the periodic refills — until every cached
entry expires at the same instant (a deploy, a flush, a synchronized
TTL).  The resulting **miss storm** hits a database that was sized for
the trickle, not the flood:

* **without single-flight**, every concurrent miss of a key issues its
  own database fetch.  The duplicate fetches saturate the database, the
  refill latency blows past the request deadline, expired fetches fill
  nothing, and the cache *stays* empty — a self-sustaining collapse in
  which goodput pins near zero long after the expiry instant;
* **with single-flight**, concurrent misses of a key elect one leader
  whose single fetch refills the entry while the followers wait on the
  leader's flight.  The database sees at most ``keys`` concurrent
  refills, every refill beats the deadline, and goodput recovers within
  a couple of TTL cycles.

Both cells run the same workload, deadline and retry policy; the *only*
difference is ``CacheConfig.single_flight``.  A cold-start pair measures
the same mechanism from an empty cache.  Everything is seeded: the
artifact reproduces exactly for a fixed seed regardless of ``--jobs``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cache import CacheConfig
from repro.experiments.parallel import SweepExecutor
from repro.experiments.results import ArtifactResult
from repro.net.messages import Request
from repro.ntier.topology import NTierConfig
from repro.resilience import ResiliencePolicy
from repro.sim.core import Environment
from repro.workload.client import RetryPolicy
from repro.workload.mixes import RequestMix
from repro.workload.rubbos import Interaction

__all__ = ["cache_stampedes", "HotReportMix", "STAMPEDE_RETRY"]

KB = 1024

#: The hot-report workload: one expensive aggregation query per page.
#: The database cost is deliberately heavy (a reporting query, not an
#: indexed point lookup) — the whole point of caching it.
_HOT_REPORT = Interaction(
    "HotReport", 24 * KB, 180.0e-6, ((12 * KB, 30.0e-3),)
)

#: Emulated users / think time: ~330 requests/s against a database that
#: can sustain ~33 uncached fetches/s — a healthy 10x cache leverage
#: that turns fatal the moment misses fan out as duplicates.
_USERS = 500
_THINK_MEAN = 1.5
_WARMUP = 3.0
#: The trigger: every prewarmed entry expires at this sim instant.
_EXPIRY = 6.0
#: Post-expiry grace before the recovery window opens.
_GRACE = 2.0
#: Refill lifetime.  Short enough that the hot set keeps churning after
#: the storm — the sustained load under which the two policies diverge.
_TTL = 0.4
#: Hot keys per query class (the whole working set of the mix).
_KEYS = 8
_BUCKET = 0.5
_SEED = 11
#: End-to-end request deadline; a refill that cannot beat it fills
#: nothing, which is what lets the duplicate-fetch storm sustain itself.
_DEADLINE = 0.5

#: Client retries (timeout just under the deadline): the impatient-user
#: amplification every stampede post-mortem features.
STAMPEDE_RETRY = RetryPolicy(
    timeout=0.45, max_retries=8, backoff_base=0.05,
    backoff_factor=1.0, jitter=0.25,
)


class HotReportMix(RequestMix):
    """Every request is the same hot report (module-level: picklable)."""

    def sample(self, env: Environment, rng: random.Random) -> Request:
        request = Request(
            env,
            kind=_HOT_REPORT.name,
            response_size=_HOT_REPORT.response_size,
            request_size=512,
        )
        request.metadata["interaction"] = _HOT_REPORT
        return request

    def kinds(self) -> List[str]:
        return [_HOT_REPORT.name]

    def interactions(self) -> List[Interaction]:
        """The catalog (used by cache-tier prewarming)."""
        return [_HOT_REPORT]


def _cache_config(single_flight: bool, prewarm: bool) -> CacheConfig:
    return CacheConfig(
        policy="cache_aside",
        ttl=_TTL,
        capacity=64,
        keys_per_class=_KEYS,
        single_flight=single_flight,
        prewarm=prewarm,
        prewarm_expiry=_EXPIRY if prewarm else 0.0,
    )


def _stampede_config(
    variant: str, single_flight: bool, prewarm: bool, scale: float
) -> NTierConfig:
    post_window = max(3.0, 8.0 * scale)
    return NTierConfig(
        tomcat_variant=variant,
        users=_USERS,
        think_mean=_THINK_MEAN,
        duration=_EXPIRY + _GRACE + post_window,
        warmup=_WARMUP,
        retry=STAMPEDE_RETRY,
        resilience=ResiliencePolicy(deadline=_DEADLINE),
        timeline_bucket=_BUCKET,
        seed=_SEED,
        cache=_cache_config(single_flight, prewarm),
        mix=HotReportMix(),
    )


def _hit_ratio(stats: Dict[str, float]) -> float:
    lookups = stats.get("cache_l1_hits", 0.0) + stats.get("cache_l1_misses", 0.0)
    hits = stats.get("cache_l1_hits", 0.0) + stats.get("cache_l2_hits", 0.0)
    return hits / lookups if lookups else 0.0


def cache_stampedes(
    scale: float = 1.0, jobs: Optional[int] = None
) -> ArtifactResult:
    """Cache stampedes (mass TTL expiry + cold start) with and without
    single-flight request coalescing, across both Tomcat variants."""
    result = ArtifactResult(
        artifact="cache",
        title="Cache stampede: synchronized TTL expiry of the hot set "
        "with duplicate fetches vs single-flight request coalescing",
        paper_claim="Extension beyond the paper: a cache tier gives the "
        "3-tier system ~10x leverage over its database; when the hot set "
        "expires at once, duplicate miss fetches collapse the database "
        "(goodput <=50% of pre-storm, sustained), while single-flight "
        "coalescing bounds refills to one fetch per key and recovers "
        ">=50% of pre-storm goodput",
        headers=[
            "config",
            "pre rps",
            "post rps",
            "post/pre %",
            "hit %",
            "fetches",
            "coalesced",
            "flight t/o",
            "db util %",
        ],
    )
    # The tuned seed *is* the scenario (the collapse threshold was
    # validated against it), so sweep-key seed derivation stays off.
    sweep = SweepExecutor("cache", scale=scale, jobs=jobs, derive_seeds=False)
    cells = {}
    for variant in ("async", "sync"):
        for flag, label in ((True, "single-flight"), (False, "duplicates")):
            cells[("expiry", variant, label)] = _stampede_config(
                variant, flag, prewarm=True, scale=scale
            )
    for flag, label in ((True, "single-flight"), (False, "duplicates")):
        cells[("cold", "async", label)] = _stampede_config(
            "async", flag, prewarm=False, scale=scale
        )
    runs = sweep.map_ntier(cells)

    pre: Dict[tuple, float] = {}
    post: Dict[tuple, float] = {}
    duration = next(iter(runs.values())).config.duration
    for key in cells:
        run = runs[key]
        pre[key] = run.goodput_rate(_WARMUP, _EXPIRY)
        post[key] = run.goodput_rate(_EXPIRY + _GRACE, run.config.duration)
        stats = run.cache_stats
        coalesced = stats.get("cache_coalesced", 0.0)
        result.add_row(
            " ".join(key),
            pre[key],
            post[key],
            100.0 * post[key] / pre[key] if pre[key] else float("nan"),
            100.0 * _hit_ratio(stats),
            int(stats.get("cache_fetches", 0.0)),
            int(coalesced) if run.config.cache.single_flight else None,
            int(stats.get("cache_flight_timeouts", 0.0)),
            100.0 * run.tier_utilization.get("mysql", 0.0),
        )
        result.add_counter("timeouts", run.client_stats.get("timeouts", 0.0))
        result.add_counter("rejected", run.report.rejected)
        # Surface the cache-tier counters in the rendered report next to
        # the resilience counters (not just inside the shape checks).
        for name in ("cache_fetches", "cache_coalesced",
                     "cache_flight_timeouts", "cache_invalidations"):
            result.add_counter(name, stats.get(name, 0.0))
        result.add_counter(
            "expired",
            sum(run.server_stats.get(f"{tier}_expired", 0.0)
                for tier in ("apache", "tomcat", "mysql")),
        )

    for variant in ("async", "sync"):
        dup = ("expiry", variant, "duplicates")
        result.check(
            f"[{variant}] duplicate fetches sustain the collapse after "
            "the mass expiry (post <= 50% of pre-storm goodput)",
            post[dup] <= 0.5 * pre[dup],
            f"{pre[dup]:.0f} rps before, {post[dup]:.0f} rps after",
        )
        sf = ("expiry", variant, "single-flight")
        result.check(
            f"[{variant}] single-flight recovers >= 50% of pre-storm "
            "goodput",
            post[sf] >= 0.5 * pre[sf],
            f"{pre[sf]:.0f} rps before, {post[sf]:.0f} rps after "
            f"({100.0 * post[sf] / pre[sf]:.0f}%)" if pre[sf] else "no pre",
        )
    sf_key = ("expiry", "async", "single-flight")
    dup_key = ("expiry", "async", "duplicates")
    sf_stats = runs[sf_key].cache_stats
    dup_stats = runs[dup_key].cache_stats
    result.check(
        "coalescing engaged: followers parked on leader flights instead "
        "of fetching",
        sf_stats.get("cache_coalesced", 0.0) > 0
        and sf_stats.get("cache_flights", 0.0) > 0,
        f"{sf_stats.get('cache_flights', 0):.0f} flights absorbed "
        f"{sf_stats.get('cache_coalesced', 0):.0f} duplicate misses",
    )
    result.check(
        "single-flight suppresses database fetches vs duplicates "
        "(same workload, same deadline)",
        sf_stats.get("cache_fetches", 0.0) < dup_stats.get("cache_fetches", 0.0),
        f"{sf_stats.get('cache_fetches', 0):.0f} vs "
        f"{dup_stats.get('cache_fetches', 0):.0f} fetches",
    )
    cold_sf = runs[("cold", "async", "single-flight")].cache_stats
    cold_dup = runs[("cold", "async", "duplicates")].cache_stats
    result.check(
        "cold start: coalescing suppresses duplicate fill fetches from "
        "the first request on",
        cold_sf.get("cache_fetches", 0.0) < cold_dup.get("cache_fetches", 0.0),
        f"{cold_sf.get('cache_fetches', 0):.0f} vs "
        f"{cold_dup.get('cache_fetches', 0):.0f} fetches",
    )
    result.note(
        f"{_USERS} users, think ~{_THINK_MEAN:g}s, one {_KEYS}-key hot "
        f"report ({_HOT_REPORT.queries[0][1] * 1e3:g}ms of database CPU "
        f"per uncached fetch); prewarmed entries all expire at "
        f"t={_EXPIRY:g}s, refills live {_TTL:g}s; both cells carry "
        f"{_DEADLINE:g}s deadlines and client retries (timeout "
        f"{STAMPEDE_RETRY.timeout:g}s, max {STAMPEDE_RETRY.max_retries})"
    )
    result.note(
        "goodput windows: pre = post-warmup..expiry; post = "
        f"{_GRACE:g}s after the expiry instant..run end "
        f"(duration {duration:g}s; timeline zero-padded: empty buckets "
        "are the collapse, not missing data)"
    )
    return result
