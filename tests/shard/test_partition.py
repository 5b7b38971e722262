"""Partition validators: the proven-safe envelope, as unit rules.

Every rule here mirrors a divergence mode the partitioner must refuse
to shard (see :mod:`repro.shard.partition`); the golden shard rows in
``tests/test_shard_golden.py`` prove the *accepted* envelope is
bit-identical, these prove the rejections stay rejections.
"""

from __future__ import annotations

import pytest

from repro.cohort import CohortConfig
from repro.experiments.micro import MicroConfig
from repro.faults import FaultPlan
from repro.ntier.topology import NTierConfig
from repro.shard.partition import micro_islands, ntier_islands
from repro.workload.client import RetryPolicy

pytestmark = pytest.mark.shard


def _micro(**kw) -> MicroConfig:
    return MicroConfig("sTomcat-Async", 8, duration=0.4, warmup=0.1, **kw)


def _ntier(**kw) -> NTierConfig:
    return NTierConfig("async", users=40, duration=1.0, warmup=0.3, **kw)


class TestMicroRules:
    def test_plain_config_cuts_into_two_islands(self):
        assert micro_islands(_micro(), 2) == 2
        assert micro_islands(_micro(), 8) == 2  # bounded by the topology

    def test_single_shard_request_is_serial(self):
        assert micro_islands(_micro(), 1) == 0
        assert micro_islands(_micro(), 0) == 0

    @pytest.mark.parametrize(
        "kw",
        [
            {"fault_plan": FaultPlan(segment_loss_prob=0.05)},
            {"retry": RetryPolicy(timeout=0.05)},
            {"autotune": True},
        ],
        ids=["faults", "retry", "autotune"],
    )
    def test_teardown_sources_fall_back_serial(self, kw):
        assert micro_islands(_micro(**kw), 4) == 0

    def test_inert_fault_plan_still_shards(self):
        """An all-zero plan instantiates no fault machinery — shardable."""
        assert micro_islands(_micro(fault_plan=FaultPlan()), 2) == 2

    def test_dynamic_cohort_needs_a_passive_front(self):
        """Demand-grown bundles only shard over selector-only attaches.

        A mid-run ``attach`` on a thread-per-connection front spawns a
        handler thread one cut latency later than serial, shifting the
        live-thread footprint window — so sTomcat-Sync must run serial
        while SingleT-Async (selector registration only) may shard.
        """
        dynamic = CohortConfig(max_inflight=64, first_think=True)
        passive = MicroConfig(
            "SingleT-Async", 2000, duration=0.4, warmup=0.1,
            think_mean=10.0, cohort=dynamic,
        )
        threaded = MicroConfig(
            "sTomcat-Sync", 2000, duration=0.4, warmup=0.1,
            think_mean=10.0, cohort=dynamic,
        )
        assert micro_islands(passive, 2) == 2
        assert micro_islands(threaded, 2) == 0

    def test_eager_cohort_shards_over_any_front(self):
        """A provisioned bundle attaches before the clock starts."""
        eager = CohortConfig(
            max_inflight=64, first_think=True, eager_connections=True
        )
        config = MicroConfig(
            "sTomcat-Sync", 2000, duration=0.4, warmup=0.1,
            think_mean=10.0, cohort=eager,
        )
        assert micro_islands(config, 2) == 2


class TestNTierRules:
    def test_island_count_is_bounded_by_the_tier_chain(self):
        assert ntier_islands(_ntier(), 2) == 2
        assert ntier_islands(_ntier(), 3) == 3
        assert ntier_islands(_ntier(), 4) == 4
        assert ntier_islands(_ntier(), 16) == 4

    @pytest.mark.parametrize(
        "kw",
        [
            {"fault_plan": FaultPlan(segment_loss_prob=0.05)},
            {"retry": RetryPolicy(timeout=0.05)},
        ],
        ids=["faults", "retry"],
    )
    def test_teardown_sources_fall_back_serial(self, kw):
        assert ntier_islands(_ntier(**kw), 4) == 0

    def test_dynamic_cohort_falls_back_serial(self):
        """The n-tier front (apache) is thread-per-connection."""
        config = _ntier(
            think_mean=4.0,
            cohort=CohortConfig(max_inflight=64, first_think=True),
        )
        assert ntier_islands(config, 2) == 0

    def test_eager_cohort_shards(self):
        config = _ntier(
            think_mean=4.0,
            cohort=CohortConfig(
                max_inflight=64, first_think=True, eager_connections=True
            ),
        )
        assert ntier_islands(config, 4) == 4

    def test_always_cohort_is_not_dynamic(self):
        """``materialize="always"`` runs the classic builder, so the
        dynamic-bundle exclusion does not apply."""
        config = _ntier(
            think_mean=4.0,
            cohort=CohortConfig(
                materialize="always", max_inflight=64, first_think=True
            ),
        )
        assert ntier_islands(config, 2) == 2
