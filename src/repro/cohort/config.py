"""Cohort configuration.

:class:`CohortConfig` is a frozen value object so it participates in
experiment cache keys (:func:`repro.experiments.parallel.point_digest`
walks dataclasses) and golden-digest configs, exactly like
:class:`~repro.cache.config.CacheConfig`.

The ``materialize`` mode picks the engine:

* ``materialize="always"`` runs the classic eager builder — bit-identical
  to ``cohort=None`` by construction (same loop, same RNG draws).
* ``materialize="lazy"`` runs the aggregate :class:`~repro.cohort.engine.
  Cohort` engine — deterministic (serial == parallel) but *not* digest-
  compatible with the classic path; it has its own golden rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError

__all__ = [
    "CohortConfig",
    "EPISODE_REQUESTS",
    "MATERIALIZE_MODES",
    "RAMP_SLICES",
    "STREAMING_THRESHOLD",
]

#: Supported materialization modes.
MATERIALIZE_MODES = ("lazy", "always")

#: Ramp-up staggering granularity: member start times are bucketed into
#: this many uniform slices instead of one timer per member, so startup
#: costs O(slices) events regardless of population size.
RAMP_SLICES = 256
#: Logical requests a materialized episode client serves before it folds
#: back into the aggregate.
EPISODE_REQUESTS = 1
#: Population size at which a lazy cohort's run recorder streams
#: (fixed-memory P² samplers) so measurement heap stays bounded.
STREAMING_THRESHOLD = 100_000


@dataclass(frozen=True)
class CohortConfig:
    """One homogeneous behaviour class of closed-loop clients.

    A cohort aggregates N identical clients (same mix, think time, retry
    policy, link, socket options) into counting state plus a bounded
    bundle of live connections; memory and event count scale with
    *activity*, not with N.  Individual clients materialize only for
    special episodes (timeouts, rejections, connection loss, injected
    aborts) and fold back afterwards.
    """

    #: ``"lazy"`` — aggregate engine with episodic materialization; or
    #: ``"always"`` — the classic eager builder (the A/B baseline).
    materialize: str = "lazy"
    #: Upper bound on live connections the aggregate keeps open at once;
    #: members beyond it wait in an (anonymous, zero-cost) launch queue.
    max_inflight: int = 4096
    #: Members enter through a think-time draw *before* their first
    #: request (a mostly-idle connected population — the million-client
    #: scouting regime) instead of firing immediately on start (JMeter).
    first_think: bool = False
    #: Open the full ``max_inflight`` connection bundle at build time (a
    #: provisioned pool, like JMeter's pre-opened sockets) instead of
    #: growing it on demand.  Required for sharded execution against
    #: thread-per-connection servers, whose attach spawns a handler
    #: thread: a provisioned bundle attaches before the clock starts, so
    #: no connection ever crosses a shard cut mid-run.
    eager_connections: bool = False

    def validate(self) -> "CohortConfig":
        """Raise :class:`ExperimentError` on nonsensical settings."""
        if self.materialize not in MATERIALIZE_MODES:
            raise ExperimentError(
                f"unknown materialize mode {self.materialize!r}; "
                f"known: {MATERIALIZE_MODES}"
            )
        if self.max_inflight < 1:
            raise ExperimentError(
                f"max_inflight must be >= 1, got {self.max_inflight!r}"
            )
        return self

    def lazy_active(self) -> bool:
        """True when this config selects the aggregate engine."""
        return self.materialize == "lazy"
