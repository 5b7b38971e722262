"""Cache tier between Tomcat and MySQL (the n-tier stack's missing layer).

A deterministic application cache with the production failure modes the
paper's healthy testbed never exercises: cold-start and mass-TTL-expiry
**stampedes**, where a miss storm multiplies load on the database tier,
and **single-flight request coalescing** as the mitigation.  The design
follows the multi-level ``CacheManager`` fallback idiom — a fast
in-process level backed by a slower shared level backed by the database —
with TTL + LRU eviction driven entirely by the simulation clock.

Layout:

* :mod:`repro.cache.config` — :class:`CacheConfig` (frozen, digest-stable);
* :mod:`repro.cache.store` — :class:`TtlLruStore`, one cache level;
* :mod:`repro.cache.tier` — :class:`CacheTier`, the lookup/fill state
  machine with single-flight coalescing.

The config is the only switch: with no :class:`CacheConfig` on the
:class:`~repro.ntier.topology.NTierConfig` nothing in this package is
instantiated, no RNG stream is forked and no simulation event exists.
"""

from repro.cache.config import CacheConfig
from repro.cache.store import TtlLruStore
from repro.cache.tier import CacheTier

__all__ = ["CacheConfig", "CacheTier", "TtlLruStore"]
