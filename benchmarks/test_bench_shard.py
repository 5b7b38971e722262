"""Sharded parallel kernel: wall clock vs. shard count.

Regenerates artifact ``shard`` from the experiment registry and asserts
its shape checks (sharded runs bit-identical to the serial kernel on the
1M-cohort n-tier shape and a wide DAG, bounded barrier-sync overhead —
or a >=1.5x speedup where the host has a core per island — and the
serial fallback for configs outside the proven-safe envelope).
"""

import pytest


@pytest.mark.shard
def test_bench_shard_speedup(regenerate):
    regenerate("shard")
