"""Million-client scale: cohort aggregation vs the per-client builder.

Regenerates artifact ``million`` from the experiment registry and
asserts its shape checks (bit-identical zero-impact of
``materialize="always"``, fixed-seed determinism of the lazy engine,
>=10x clients-per-wall-second over per-client simulation in an
interleaved A/B, and a flat-heap-bound million-client run).
"""

import pytest


@pytest.mark.cohort
def test_bench_million_clients(regenerate):
    regenerate("million")
