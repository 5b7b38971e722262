"""A cache config is the cache tier's only switch.

With a :class:`CacheConfig` the tier engages (counters appear and the run
diverges from the cacheless baseline); without one nothing is built.
"""

import dataclasses

import pytest

from repro.cache import CacheConfig
from repro.ntier.topology import NTierConfig, run_ntier

pytestmark = pytest.mark.cache

_BASE = dict(
    tomcat_variant="async",
    users=15,
    think_mean=0.5,
    duration=1.0,
    warmup=0.4,
    timeline_bucket=0.25,
    seed=9,
)

#: A config that visibly changes behaviour when the tier is live.
_CACHE = CacheConfig(ttl=0.5, capacity=64, keys_per_class=2, prewarm=True)


def _fingerprint(result):
    return (
        dataclasses.asdict(result.report),
        sorted(result.server_stats.items()),
        sorted(result.client_stats.items()),
        sorted(result.resilience.items()),
        sorted(result.cache_stats.items()),
    )


@pytest.fixture
def baseline():
    result = run_ntier(NTierConfig(**_BASE))
    assert result.cache_stats == {}
    return _fingerprint(result)


def test_enabled_tier_actually_engages(baseline):
    """A cache config must diverge from the cacheless baseline and
    report counters."""
    result = run_ntier(NTierConfig(cache=_CACHE, **_BASE))
    assert result.cache_stats  # counters present
    assert result.cache_stats["cache_l1_hits"] > 0
    assert _fingerprint(result) != baseline
