"""The shared FIFO queue of the simulation kernel.

:class:`Store` is an unbounded (or bounded) FIFO queue of Python objects
with blocking ``get`` and ``put``, built on :mod:`repro.sim.core` events:
the event queues between a reactor thread and its workers, a SEDA
stage's queue, and a connection pool's idle list.  ``get``/``put``
return events; processes ``yield`` them.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.core import Environment, Event

__all__ = ["Store"]


class StorePut(Event):
    """Pending ``put`` into a bounded :class:`Store`."""

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._submit_put(self)


class StoreGet(Event):
    """Pending ``get`` from a :class:`Store`; succeeds with the item."""

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._submit_get(self)


class Store:
    """FIFO queue of arbitrary items with blocking ``get`` and optional
    bounded capacity (blocking ``put``).

    This is the building block for event queues between a reactor thread
    and worker threads in the simulated servers.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event succeeds once inserted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove the oldest item; the event succeeds with that item."""
        return StoreGet(self)

    def cancel(self, event: StoreGet) -> bool:
        """Withdraw a still-pending ``get`` claim.

        Returns True when the claim was removed from the wait queue.  A
        claim that already succeeded (the item is assigned to the event)
        cannot be cancelled — the caller owns the item and must decide
        what to do with it.
        """
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------
    def _submit_put(self, event: StorePut) -> None:
        self._putters.append(event)
        self._drain()

    def _submit_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._drain()

    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move queued puts into the store while capacity allows.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve queued gets while items are available.
            while self._getters and self.items:
                get = self._getters.pop(0)
                get.succeed(self.items.pop(0))
                progress = True

    def __repr__(self) -> str:
        return f"<Store size={self.size} getters={len(self._getters)} putters={len(self._putters)}>"
