"""``resolve_shards``: explicit count, ``REPRO_SHARDS``, malformed input."""

import pytest

from repro.errors import ExperimentError
from repro.shard import resolve_shards

pytestmark = pytest.mark.shard


def test_unset_means_serial(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert resolve_shards() == 1


@pytest.mark.parametrize(
    "raw, expected",
    [("2", 2), (" 4 ", 4), ("", 1), ("  ", 1)],
    ids=["plain", "padded", "empty", "blank"],
)
def test_environment_count_tolerates_spaces(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_SHARDS", raw)
    assert resolve_shards() == expected


def test_explicit_count_wins_over_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "4")
    assert resolve_shards(2) == 2
    assert resolve_shards(" 3 ") == 3


@pytest.mark.parametrize("raw", ["two", "0", "-3", "1.5"])
def test_malformed_environment_count_raises(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SHARDS", raw)
    with pytest.raises(ExperimentError, match="shards"):
        resolve_shards()


@pytest.mark.parametrize("explicit", [0, -3, "two"])
def test_malformed_explicit_count_raises(explicit):
    with pytest.raises(ExperimentError, match="shards"):
        resolve_shards(explicit)
