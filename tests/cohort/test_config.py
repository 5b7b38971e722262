"""CohortConfig validation and engine selection."""

import pytest

from repro.cohort import CohortConfig
from repro.errors import ExperimentError

pytestmark = pytest.mark.cohort


def test_default_config_validates():
    config = CohortConfig()
    assert config.validate() is config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"materialize": "sometimes"},
        {"max_inflight": 0},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ExperimentError):
        CohortConfig(**kwargs).validate()


def test_lazy_active_follows_materialize():
    assert CohortConfig().lazy_active()
    assert not CohortConfig(materialize="always").lazy_active()
