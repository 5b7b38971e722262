"""A DAG config is the DAG layer's only switch.

With a :class:`DagConfig` the run builds the service graph and diverges
from the classic linear chain; without one the chain is built exactly as
before the layer existed.
"""

import dataclasses

import pytest

from repro.dag import DagConfig, Edge, ServiceNode
from repro.ntier.topology import NTierConfig, run_ntier

pytestmark = pytest.mark.dag

_BASE = dict(
    tomcat_variant="async",
    users=15,
    think_mean=0.5,
    duration=1.0,
    warmup=0.4,
    timeline_bucket=0.25,
    seed=9,
)

#: A config that visibly changes behaviour when the layer is live.
_DAG = DagConfig(
    entry="front",
    nodes=(
        ServiceNode(
            name="front",
            edges=(Edge("left"), Edge("right")),
            fan_in="wait_all",
            service_cpu=100.0e-6,
        ),
        ServiceNode(name="left", service_cpu=200.0e-6, service_jitter=0.5),
        ServiceNode(name="right", service_cpu=200.0e-6),
    ),
)


def _fingerprint(result):
    return (
        dataclasses.asdict(result.report),
        sorted(result.server_stats.items()),
        sorted(result.client_stats.items()),
        sorted(result.resilience.items()),
        result.kernel_events,
    )


@pytest.fixture
def baseline():
    result = run_ntier(NTierConfig(**_BASE))
    assert result.dag_stats == {}
    return _fingerprint(result)


def test_enabled_config_actually_changes_the_run(baseline):
    """Sanity for the contract: the live layer must NOT be a no-op."""
    result = run_ntier(NTierConfig(dag=_DAG, **_BASE))
    assert _fingerprint(result) != baseline
    assert result.dag_stats["dag_requests"] > 0
