"""Cache-tier configuration.

:class:`CacheConfig` is a frozen value object so it participates in
experiment cache keys (:func:`repro.experiments.parallel.point_digest`
walks dataclasses) and golden-digest configs, exactly like
:class:`~repro.resilience.policy.ResiliencePolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError

__all__ = ["CacheConfig", "POLICIES"]

#: Supported write policies.
POLICIES = ("cache_aside", "write_through")


@dataclass(frozen=True)
class CacheConfig:
    """One cache tier between the servlet tier and the database.

    Service times are hit-ratio-driven: an L1 hit costs ``l1_hit_cpu`` of
    servlet CPU, an L2 hit costs a shared-tier round trip plus the result
    copy, and a miss costs the full pooled database exchange.
    """

    #: ``"cache_aside"`` — writes invalidate, next read refills; or
    #: ``"write_through"`` — writes refill both levels after the DB round.
    policy: str = "cache_aside"
    #: L1 (in-process) entry lifetime in seconds of sim time.
    ttl: float = 60.0
    #: L1 capacity in entries (LRU eviction beyond it).
    capacity: int = 4096
    #: L2 (shared, memcached-style) capacity; 0 disables the level.
    l2_capacity: int = 0
    #: L2 entry lifetime in seconds.
    l2_ttl: float = 300.0
    #: One-way-ish delay of an L2 access (network hop to the shared tier).
    l2_latency: float = 250.0e-6
    #: Servlet CPU burned probing/reading the in-process level.
    l1_hit_cpu: float = 2.0e-6
    #: Coalesce concurrent misses of one key into a single DB fetch.
    single_flight: bool = True
    #: Fraction of queries that are writes (invalidate or write through).
    write_ratio: float = 0.0
    #: Distinct cache keys per (interaction, query-slot) class; the key
    #: drawn per query is uniform over them.
    keys_per_class: int = 16
    #: Fill every key of the workload's catalog before the run starts.
    prewarm: bool = False
    #: Absolute sim time at which *all* prewarmed entries expire at once
    #: (the mass-TTL-expiry stampede trigger); 0 falls back to ``ttl``.
    prewarm_expiry: float = 0.0

    def validate(self) -> "CacheConfig":
        """Raise :class:`ExperimentError` on nonsensical settings."""
        if self.policy not in POLICIES:
            raise ExperimentError(
                f"unknown cache policy {self.policy!r}; known: {POLICIES}"
            )
        if self.ttl <= 0:
            raise ExperimentError(f"ttl must be > 0, got {self.ttl!r}")
        if self.capacity < 1:
            raise ExperimentError(f"capacity must be >= 1, got {self.capacity!r}")
        if self.l2_capacity < 0:
            raise ExperimentError(
                f"l2_capacity must be >= 0, got {self.l2_capacity!r}"
            )
        if self.l2_ttl <= 0:
            raise ExperimentError(f"l2_ttl must be > 0, got {self.l2_ttl!r}")
        if self.l2_latency < 0 or self.l1_hit_cpu < 0:
            raise ExperimentError("cache access costs must be >= 0")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ExperimentError(
                f"write_ratio must be in [0, 1], got {self.write_ratio!r}"
            )
        if self.keys_per_class < 1:
            raise ExperimentError(
                f"keys_per_class must be >= 1, got {self.keys_per_class!r}"
            )
        if self.prewarm_expiry < 0:
            raise ExperimentError(
                f"prewarm_expiry must be >= 0, got {self.prewarm_expiry!r}"
            )
        return self
