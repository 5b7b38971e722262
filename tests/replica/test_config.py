"""ReplicaConfig validation and the ``active`` property."""

import pytest

from repro.errors import ExperimentError
from repro.replica import ReplicaConfig

pytestmark = pytest.mark.failover


@pytest.mark.parametrize(
    "kwargs",
    [
        {"replicas": 0},
        {"replicas": -1},
        {"policy": "random"},
        {"ejection_threshold": -1},
        {"ejection_duration": 0.0},
        {"ejection_backoff": 0.5},
        {"ejection_duration": 2.0, "ejection_max_duration": 1.0},
        {"probe_interval": -0.1},
    ],
)
def test_validate_rejects_nonsense(kwargs):
    with pytest.raises(ExperimentError):
        ReplicaConfig(**kwargs).validate()


def test_validate_returns_self_for_chaining():
    config = ReplicaConfig(replicas=3, policy="least_outstanding")
    assert config.validate() is config


def test_zero_threshold_is_legal_and_disables_ejection():
    assert ReplicaConfig(ejection_threshold=0).validate().ejection_threshold == 0


def test_active_requires_more_than_one_replica():
    assert not ReplicaConfig().active                      # replicas=1
    assert ReplicaConfig(replicas=2).active


def test_config_is_hashable_and_value_comparable():
    assert ReplicaConfig(replicas=3) == ReplicaConfig(replicas=3)
    assert hash(ReplicaConfig()) == hash(ReplicaConfig())
    assert ReplicaConfig() != ReplicaConfig(policy="least_outstanding")

