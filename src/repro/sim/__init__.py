"""Discrete-event simulation kernel used by every substrate in this repo.

Public surface:

* :class:`~repro.sim.core.Environment` and the event/process machinery,
* :class:`~repro.sim.resources.Store`, the kernel's FIFO queue,
* :class:`~repro.sim.rng.SeedStreams` deterministic RNG streams.
"""

from repro.sim.core import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Condition,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.resources import Store
from repro.sim.rng import SeedStreams, derive_seed

__all__ = [
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Condition",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Store",
    "SeedStreams",
    "derive_seed",
]
