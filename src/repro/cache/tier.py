"""The cache tier: multi-level lookup, fill policies, single-flight.

:class:`CacheTier` sits between the servlet tier and the database pool.
A query's key is drawn from the tier's own seeded RNG stream (uniform
over ``keys_per_class`` keys per (interaction, query-slot) class), then
resolved through the fallback chain

    L1 (in-process, CPU-cost probe)
      → L2 (shared, network round trip + result copy)
        → database (the caller-supplied ``fetch`` generator: the full
          pooled exchange, breaker accounting included)

with hit-ratio-driven service times: an L1 hit costs microseconds of
servlet CPU, an L2 hit a sub-millisecond hop, a miss the real DB round.

**Single-flight coalescing** is the stampede mitigation: concurrent
misses of one key elect a leader (the first misser) whose fetch fills
the cache; followers park on the leader's flight event — bounded by
their own deadline — instead of issuing duplicate database fetches.
With ``single_flight=False`` every miss fetches, which is exactly the
miss-storm amplification the ``repro-bench run cache`` artifact measures.

Determinism: key/write draws come from one seeded stream consumed in
simulation-event order, flights resolve through ordinary kernel events,
and nothing reads the wall clock — so jobs=1 == jobs=N holds.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, Hashable, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.cache.store import MISS, TtlLruStore
from repro.calibration import Calibration
from repro.errors import ExperimentError
from repro.sim.core import Environment, Event

__all__ = ["CacheTier"]

#: Statuses a cached query resolves to (mirrors the servlet's view of a
#: pooled exchange): "ok", "expired" (deadline/timeout family) or
#: "rejected" (breaker fast-fail or downstream shed).
_OK = "ok"
_EXPIRED = "expired"


class CacheTier:
    """Deterministic two-level cache with single-flight request coalescing."""

    def __init__(
        self,
        env: Environment,
        config: CacheConfig,
        rng: random.Random,
        calibration: Calibration,
    ):
        config.validate()
        self.env = env
        self.config = config
        self.rng = rng
        self.calibration = calibration
        self.l1 = TtlLruStore(config.capacity)
        self.l2: Optional[TtlLruStore] = (
            TtlLruStore(config.l2_capacity) if config.l2_capacity > 0 else None
        )
        #: key -> in-progress leader flight (single-flight table).
        self._flights: Dict[Hashable, Event] = {}
        #: Database fetches issued (leaders + uncoalesced misses + writes).
        self.fetches = 0
        #: Single-flight leaders elected.
        self.flights = 0
        #: Misses that coalesced onto an existing flight.
        self.coalesced = 0
        #: Write-path queries (invalidate or write-through).
        self.writes = 0
        #: Keys invalidated by cache-aside writes.
        self.invalidations = 0
        #: Followers whose flight outlived their deadline budget.
        self.flight_timeouts = 0

    # ------------------------------------------------------------------
    # Lookup/fill state machine
    # ------------------------------------------------------------------
    def query(
        self,
        thread,
        klass: Tuple[str, int],
        result_size: int,
        deadline: Optional[float],
        fetch: Callable[[], Generator],
    ) -> Generator[object, object, str]:
        """Resolve one query through the cache (generator, ``yield from``).

        ``klass`` identifies the query class (interaction name, query
        slot); the concrete key adds a seeded draw over
        ``keys_per_class``.  ``fetch`` is a generator function performing
        the real database round trip and returning a status string.
        Returns ``"ok"``, ``"expired"`` or ``"rejected"``.
        """
        cfg = self.config
        env = self.env
        key = klass + (self.rng.randrange(cfg.keys_per_class),)
        if cfg.write_ratio > 0.0 and self.rng.random() < cfg.write_ratio:
            return (yield from self._write(key, result_size, fetch))

        # L1 probe: in-process lookup, pure CPU.
        yield thread.run(cfg.l1_hit_cpu)
        if self.l1.get(key, env.now) is not MISS:
            return _OK
        if self.l2 is not None:
            # L2 probe: a network hop to the shared tier.
            yield env.timeout(cfg.l2_latency)
            value = self.l2.get(key, env.now)
            if value is not MISS:
                # Copy the result out of the shared tier and promote it.
                yield thread.syscall(
                    bytes_copied=result_size,
                    extra_kernel=self.calibration.tx_kernel_cost(result_size),
                )
                self.l1.put(key, value, env.now + cfg.ttl)
                return _OK
        if not cfg.single_flight:
            return (yield from self._fetch_and_fill(key, result_size, fetch))

        flight = self._flights.get(key)
        if flight is not None:
            return (yield from self._follow(thread, flight, deadline))
        flight = env.event()
        self._flights[key] = flight
        self.flights += 1
        status = "rejected"
        try:
            status = yield from self._fetch_and_fill(key, result_size, fetch)
        finally:
            # Resolve the flight *after* the fill so followers observing
            # "ok" find the entry already present; pop-then-succeed even
            # when the fetch raised, so followers never hang.
            self._flights.pop(key, None)
            flight.succeed(status)
        return status

    def clear(self) -> None:
        """Empty both levels, as after a cold process restart.

        Cumulative counters survive (they describe the whole run), and the
        single-flight table is left alone: in-flight leaders belong to the
        crashing server's request handling, which fails on its own terms —
        popping their entries here would strand followers forever.
        """
        self.l1.clear()
        if self.l2 is not None:
            self.l2.clear()

    def _fetch_and_fill(
        self, key: Hashable, result_size: int, fetch: Callable[[], Generator]
    ) -> Generator[object, object, str]:
        """Run the database fetch; fill both levels on success."""
        self.fetches += 1
        status = yield from fetch()
        if status == _OK:
            self._fill(key, result_size)
        return status

    def _follow(
        self, thread, flight: Event, deadline: Optional[float]
    ) -> Generator[object, object, str]:
        """Coalesce onto a leader's in-progress fetch of the same key."""
        self.coalesced += 1
        env = self.env
        if deadline is None:
            yield flight
        else:
            remaining = deadline - env.now
            if remaining <= 0:
                self.flight_timeouts += 1
                return _EXPIRED
            timer = env.timeout(remaining)
            yield env.any_of([flight, timer])
            if not flight.triggered:
                self.flight_timeouts += 1
                return _EXPIRED
        status = flight.value
        if status == _OK:
            # Read the freshly filled entry (it is in L1 now).
            yield thread.run(self.config.l1_hit_cpu)
        return status

    def _write(
        self, key: Hashable, result_size: int, fetch: Callable[[], Generator]
    ) -> Generator[object, object, str]:
        """Write path: always a DB round trip; the policy decides the rest.

        Cache-aside invalidates up front (the next read refills);
        write-through refreshes both levels after a successful write.
        """
        self.writes += 1
        if self.config.policy == "cache_aside":
            dropped = self.l1.invalidate(key)
            if self.l2 is not None:
                dropped = self.l2.invalidate(key) or dropped
            if dropped:
                self.invalidations += 1
        self.fetches += 1
        status = yield from fetch()
        if status == _OK and self.config.policy == "write_through":
            self._fill(key, result_size)
        return status

    def _fill(self, key: Hashable, result_size: int) -> None:
        now = self.env.now
        self.l1.put(key, result_size, now + self.config.ttl)
        if self.l2 is not None:
            self.l2.put(key, result_size, now + self.config.l2_ttl)

    # ------------------------------------------------------------------
    # Prewarm + reporting
    # ------------------------------------------------------------------
    def prewarm_from_mix(self, mix) -> int:
        """Fill every key of the mix's interaction catalog; returns count.

        All prewarmed entries share one expiry — ``prewarm_expiry`` when
        set (the synchronized mass-TTL-expiry stampede), else ``ttl``.
        """
        interactions = getattr(mix, "interactions", None)
        if interactions is None:
            raise ExperimentError(
                f"cache prewarm needs a mix exposing interactions(); "
                f"{type(mix).__name__} does not"
            )
        cfg = self.config
        expires = cfg.prewarm_expiry if cfg.prewarm_expiry > 0 else cfg.ttl
        count = 0
        for interaction in interactions():
            for index, (result_size, _db_cpu) in enumerate(interaction.queries):
                for draw in range(cfg.keys_per_class):
                    key = (interaction.name, index, draw)
                    self.l1.put(key, result_size, expires)
                    if self.l2 is not None:
                        self.l2.put(key, result_size, expires)
                    count += 1
        return count

    @property
    def misses(self) -> int:
        """L1 misses not answered by L2 (i.e. misses that reached a fetch
        decision: leader, follower or uncoalesced)."""
        l2_hits = self.l2.hits if self.l2 is not None else 0
        return self.l1.misses - l2_hits

    def hit_ratio(self) -> float:
        """Fraction of read lookups answered by either cache level."""
        lookups = self.l1.hits + self.l1.misses
        if lookups == 0:
            return 0.0
        l2_hits = self.l2.hits if self.l2 is not None else 0
        return (self.l1.hits + l2_hits) / lookups

    def counters(self) -> Dict[str, float]:
        """Flat counter dict for :class:`~repro.ntier.topology.NTierResult`."""
        out = {
            "cache_l1_hits": float(self.l1.hits),
            "cache_l1_misses": float(self.l1.misses),
            "cache_l1_expired": float(self.l1.expired),
            "cache_l1_evictions": float(self.l1.evictions),
            "cache_fetches": float(self.fetches),
            "cache_flights": float(self.flights),
            "cache_coalesced": float(self.coalesced),
            "cache_flight_timeouts": float(self.flight_timeouts),
            "cache_writes": float(self.writes),
            "cache_invalidations": float(self.invalidations),
        }
        if self.l2 is not None:
            out["cache_l2_hits"] = float(self.l2.hits)
            out["cache_l2_expired"] = float(self.l2.expired)
            out["cache_l2_evictions"] = float(self.l2.evictions)
        return out

    def __repr__(self) -> str:
        return (
            f"<CacheTier l1={self.l1.size}/{self.config.capacity} "
            f"fetches={self.fetches} coalesced={self.coalesced}>"
        )
