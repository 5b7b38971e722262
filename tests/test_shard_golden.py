"""Golden shard-parity rows: sharded runs reproduce serial digests.

The sharded kernel's whole contract is that partitioning a run into
forked kernel islands with conservative sync changes *nothing* about
the results — same report floats, same counters, same digests.  These
rows pin that contract over the accepted partition envelope:

* a classic micro workload with think time and added latency (the cut
  carries both directions of every request);
* a *demand-grown* cohort over a passive front (dynamic ``conn``
  messages cross the cut mid-run);
* the 3-tier chain at 2 and 4 islands with nonzero client latency
  (every pool cut is exercised);
* a provisioned (``eager_connections``) cohort bundle through the full
  chain — the million-client scouting shape in miniature;
* the chain with a cache tier, whose counters must survive the trip
  back from the island that owns the Tomcat tier.

Each row must match the serial digest *and* prove the sharded kernel
actually engaged (``result.shard_events`` non-empty) — a silent serial
fallback would make the parity vacuous.  The sweep-executor row runs
the same matrix under ``REPRO_SHARDS=2`` with ``jobs=4``, proving the
process fan-out and the island fan-out compose.

The module carries the ``tcpfast`` marker too: the tcpfast CI tier
re-runs it under ``REPRO_TCP_FASTPATH=0``, where serial rows take the
per-segment TCP path while cut edges still force the flow fast path —
pinning the cross-path equivalence the cut protocol relies on.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.cohort import CohortConfig
from repro.experiments.micro import MicroConfig, run_micro
from repro.experiments.parallel import SweepExecutor
from repro.ntier.topology import NTierConfig, run_ntier

from tests.helpers import result_digest

pytestmark = [pytest.mark.shard, pytest.mark.tcpfast]

_MICRO_CONFIGS = {
    # Think time + added latency: the cut carries request and response
    # serialization on top of the base RTT.
    "think-latency": MicroConfig(
        "sTomcat-Async", 48, duration=1.2, warmup=0.3,
        added_latency=0.002, think_mean=5.0,
    ),
    # Demand-grown cohort bundle over a passive (selector-only) front:
    # connection creation crosses the cut as dynamic "conn" messages.
    "cohort-dynamic": MicroConfig(
        "SingleT-Async", 5000, duration=0.8, warmup=0.2, think_mean=30.0,
        cohort=CohortConfig(max_inflight=128, first_think=True),
    ),
}

_NTIER_CONFIGS = {
    # Nonzero client latency so all three pool cuts have distinct
    # lookahead; 4 shards slices [clients | apache | tomcat | mysql].
    "latency": NTierConfig(
        "async", users=100, duration=2.0, warmup=0.8, client_latency=0.005,
    ),
    # Provisioned cohort bundle through the full chain: the 1M scouting
    # shape in miniature (eager_connections shards over the threaded
    # apache front).
    "cohort-eager": NTierConfig(
        "async", users=5000, duration=2.0, warmup=0.8, think_mean=4.0,
        client_latency=0.005,
        cohort=CohortConfig(
            max_inflight=128, first_think=True, eager_connections=True
        ),
    ),
    # Cache tier on the Tomcat island: ``cache_stats`` must come back
    # through the backend island at 2 shards and the tomcat island at 4.
    "cache": NTierConfig(
        "async", users=100, duration=2.0, warmup=0.8, client_latency=0.005,
        cache=CacheConfig(
            policy="write_through", ttl=0.5, capacity=32, l2_capacity=128,
            write_ratio=0.1, keys_per_class=4, prewarm=True,
        ),
    ),
}


def _micro_digests(shards: int) -> dict:
    """Digest every micro row at ``shards``, asserting engagement."""
    digests = {}
    for name, config in _MICRO_CONFIGS.items():
        result = run_micro(config, shards=shards)
        if shards > 1:
            assert len(result.shard_events) == 2, (
                f"{name}: expected 2 islands, the sharded kernel "
                "fell back to serial"
            )
        else:
            assert not result.shard_events
        digests[name] = result_digest(result)
    return digests


def _ntier_digests(shards: int) -> dict:
    """Digest every n-tier row at ``shards``, asserting engagement."""
    digests = {}
    for name, config in _NTIER_CONFIGS.items():
        result = run_ntier(config, shards=shards)
        if shards > 1:
            assert len(result.shard_events) == shards, (
                f"{name}: expected {shards} islands, got "
                f"{len(result.shard_events)}"
            )
        else:
            assert not result.shard_events
        digests[name] = result_digest(result)
    return digests


@pytest.fixture(scope="module")
def serial_micro() -> dict:
    return _micro_digests(shards=1)


@pytest.fixture(scope="module")
def serial_ntier() -> dict:
    return _ntier_digests(shards=1)


def test_micro_sharded_matches_serial(serial_micro):
    assert _micro_digests(shards=2) == serial_micro


def test_ntier_two_islands_match_serial(serial_ntier):
    assert _ntier_digests(shards=2) == serial_ntier


def test_ntier_four_islands_match_serial(serial_ntier):
    assert _ntier_digests(shards=4) == serial_ntier


def _sweep_digests(jobs: int, shards: str | None) -> dict:
    """Digest the full matrix through the sweep executor.

    The executor derives a per-point seed (a pure function of the point,
    not of fan-out), so its rows are compared executor-to-executor, not
    against the direct-run fixtures above.
    """
    with pytest.MonkeyPatch.context() as patch:
        if shards is None:
            patch.delenv("REPRO_SHARDS", raising=False)
        else:
            patch.setenv("REPRO_SHARDS", shards)
        executor = SweepExecutor("shard-golden", scale=1.0, jobs=jobs,
                                 cache_dir=None)
        results = dict(executor.map_micro(dict(_MICRO_CONFIGS)))
        results.update(executor.map_ntier(dict(_NTIER_CONFIGS)))
    for name, result in results.items():
        engaged = bool(result.shard_events)
        assert engaged == (shards is not None), (
            f"{name}: sharding engaged={engaged}, expected the opposite"
        )
    return {name: result_digest(r) for name, r in results.items()}


def test_sweep_fanout_composes_with_sharding():
    """REPRO_SHARDS=2 under jobs=4: worker processes shard their points.

    The sweep executor forks sweep points over worker processes; each
    worker then forks its own island processes.  The digests must still
    be the serial-executor ones — the two fan-outs are independent
    layers.
    """
    assert _sweep_digests(jobs=4, shards="2") == _sweep_digests(
        jobs=1, shards=None
    )
