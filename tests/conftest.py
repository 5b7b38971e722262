"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.calibration import default_calibration
from repro.cpu.scheduler import CPU
from repro.net.link import Link
from repro.net.tcp import Connection
from repro.sim.core import Environment


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def calib():
    """The default calibration (shared, immutable)."""
    return default_calibration()


@pytest.fixture
def cpu(env, calib):
    """A single-core CPU on the fresh environment."""
    return CPU(env, calib)


@pytest.fixture
def lan(calib):
    """A plain LAN link."""
    return Link.lan(calib)


@pytest.fixture
def make_connection(env, lan, calib):
    """Factory for connections on the shared env/link."""

    def _make(**kwargs) -> Connection:
        return Connection(env, lan, calib, **kwargs)

    return _make
