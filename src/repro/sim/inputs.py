"""The environment inputs that change what a run computes.

A run is a pure function of its config and of :func:`run_inputs`:

* the shard count (``REPRO_SHARDS``): a sharded run's ``kernel_events``
  sums every island's kernel, cut bookkeeping included;
* the TCP path (``REPRO_TCP_FASTPATH=0`` forces the per-segment path):
  both paths give the same reports, but the per-segment one processes
  more kernel events.

This is the only place the simulator reads its environment, and the
sweep memo keys on it, so a result computed under one input is never
served to a run under another.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from repro.errors import ExperimentError

__all__ = ["RunInputs", "parse_shards", "run_inputs"]


class RunInputs(NamedTuple):
    """The result-changing environment inputs of a run."""

    #: Kernel islands a run may use (1 = the serial kernel).
    shards: int
    #: Whether new connections may take the flow-level TCP fast path.
    tcp_fastpath: bool


def parse_shards(value) -> int:
    """A shard count from ``value``; :class:`ExperimentError` on anything
    but a positive integer."""
    try:
        shards = int(value)
    except ValueError:
        raise ExperimentError(
            f"shards must be a positive integer, got {value!r}"
        ) from None
    if shards < 1:
        raise ExperimentError(f"shards must be >= 1, got {shards}")
    return shards


def run_inputs() -> RunInputs:
    """Read the run inputs from the environment, afresh on every call."""
    return RunInputs(
        shards=parse_shards(os.environ.get("REPRO_SHARDS", "").strip() or 1),
        tcp_fastpath=os.environ.get("REPRO_TCP_FASTPATH", "1") != "0",
    )
