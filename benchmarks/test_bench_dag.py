"""Service-dependency DAG: fan-out tails and graceful degradation.

Regenerates artifact ``dag`` from the experiment registry and asserts
its shape checks (p99 amplifies multiplicatively with async fan-out
while sync edges grow the mean additively; a single-branch gray failure
collapses ``wait_all`` goodput while ``quorum``/``best_effort`` recover
>=90% of healthy goodput as counted degraded responses; latency-aware
ejection removes a slow-but-alive replica without a single hard
failure).
"""

import pytest


@pytest.mark.dag
def test_bench_dag_workloads(regenerate):
    regenerate("dag")
