"""Sharded parallel simulation kernel (conservative synchronization).

The serial kernel processes one global event heap.  This package
partitions a run's topology into *islands* — disjoint object graphs whose
only mutual references are network links with nonzero one-way latency —
and runs each island's :class:`~repro.sim.core.Environment` in its own
process.  The link latency is what makes that sound: an event on one
island can influence another island no earlier than one cut-link latency
after it happens, so every island may safely advance to
``min(peer horizons) + lookahead`` between barrier exchanges (classic
conservative PDES, Chandy–Misra style with a global window).

Determinism contract: a sharded run must be *bit-identical* to the serial
run — same digests over reports and counters.  Three mechanisms carry
that guarantee:

* cut connections exchange **timestamped messages** whose fire times are
  computed with exactly the serial expressions (``transfer_delay``,
  fast-path boundary times);
* incoming messages are scheduled with partition-stable tie-break keys
  (:meth:`~repro.sim.core.Environment.schedule_keyed`) far above any
  local insertion id, so same-time ordering does not depend on how many
  local events an island processed;
* per-island RNG streams are path-derived (``SeedStreams``), never
  shared, so the same seeds are drawn no matter which island draws them.

``REPRO_SHARDS=N`` (or the ``--shards`` CLI flag / ``shards=`` runner
argument) opts a run in; without it every run uses the serial kernel.
Configurations the partitioner cannot prove safe (fault plans, retries,
resilience policies, replica groups, server limits, autotuning) silently
fall back to the serial kernel — correctness first, speed second.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.inputs import parse_shards, run_inputs

__all__ = ["ShardStats", "resolve_shards"]


def resolve_shards(explicit=None) -> int:
    """Number of shards a run should use.

    An explicit runner/CLI argument wins; otherwise the ``REPRO_SHARDS``
    environment variable (:func:`~repro.sim.inputs.run_inputs`);
    otherwise 1 (serial).  Raises :class:`ExperimentError` on anything
    but a positive integer.
    """
    if explicit is None:
        return run_inputs().shards
    return parse_shards(explicit)


@dataclass(frozen=True)
class ShardStats:
    """Per-island kernel accounting for one sharded run."""

    #: Island name ("clients", "apache", "backend", ...).
    name: str
    #: Events the island's kernel processed (includes cut bookkeeping, so
    #: the sum across islands differs from the serial event count).
    events: int
    #: Barrier windows the island executed.
    barriers: int
    #: Wall-clock seconds the island spent blocked on barrier exchanges.
    stall_s: float
