"""CacheConfig validation."""

import pytest

from repro.cache import CacheConfig
from repro.errors import ExperimentError

pytestmark = pytest.mark.cache


def test_default_config_validates():
    config = CacheConfig()
    assert config.validate() is config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"policy": "write_back"},
        {"ttl": 0.0},
        {"ttl": -1.0},
        {"capacity": 0},
        {"l2_capacity": -1},
        {"l2_ttl": 0.0},
        {"l2_latency": -1.0e-6},
        {"l1_hit_cpu": -1.0e-6},
        {"write_ratio": -0.1},
        {"write_ratio": 1.5},
        {"keys_per_class": 0},
        {"prewarm_expiry": -1.0},
    ],
)
def test_invalid_settings_raise(kwargs):
    with pytest.raises(ExperimentError):
        CacheConfig(**kwargs).validate()

