"""What an idle connection costs, pinned."""

import tracemalloc

from repro.calibration import DEFAULT_CALIBRATION
from repro.net.link import Link
from repro.net.tcp import Connection
from repro.sim.core import Environment


def test_idle_connection_costs_at_most_1500_bytes():
    """1,000 fresh connections take at most 1,500 bytes each (5,928 while
    ``Connection`` and ``SendBuffer`` had instance dicts, the four FIFOs
    were deques and both fast-path sets were made up front)."""
    env = Environment()
    link = Link.lan(DEFAULT_CALIBRATION)
    Connection(env, link)
    connections = [None] * 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(len(connections)):
            connections[index] = Connection(env, link)
        per_connection = (tracemalloc.get_traced_memory()[0] - before) / len(connections)
    finally:
        tracemalloc.stop()
    assert per_connection <= 1500
