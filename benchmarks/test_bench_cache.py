"""Cache-stampede extension: duplicate fetches vs single-flight.

Regenerates artifact ``cache`` from the experiment registry and asserts
its shape checks (sustained duplicate-fetch collapse after the mass TTL
expiry on both Tomcat variants, >=50% single-flight recovery,
coalescing engagement, fetch suppression on cold start).
"""

import pytest


@pytest.mark.cache
def test_bench_cache_stampedes(regenerate):
    regenerate("cache")
