"""The shared FIFO queue of the simulation kernel.

:class:`Store` is an unbounded FIFO queue of Python objects with a
blocking ``get``, built on :mod:`repro.sim.core` events: the event queues
between a reactor thread and its workers, a SEDA stage's queue, and a
connection pool's idle list.  ``get``/``put`` return events; processes
``yield`` them.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.core import Environment, Event

__all__ = ["Store"]


class StorePut(Event):
    """A ``put`` into a :class:`Store`; it succeeds at once."""

    __slots__ = ()


class StoreGet(Event):
    """Pending ``get`` from a :class:`Store`; succeeds with the item."""

    __slots__ = ()


class Store:
    """Unbounded FIFO queue of arbitrary items with a blocking ``get``.

    This is the building block for event queues between a reactor thread
    and worker threads in the simulated servers.  Each operation is one
    call: ``put`` stores the item, succeeds its own event and then serves
    the oldest waiting getter; ``get`` succeeds at once while an item is
    waiting, and otherwise queues.  So the insertion ids are drawn put
    first, then getters in FIFO order, and a getter waits only while the
    store is empty.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.items: List[Any] = []
        self._getters: List[StoreGet] = []

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event has already succeeded."""
        event = StorePut(self.env)
        items = self.items
        items.append(item)
        event.succeed()
        getters = self._getters
        while getters and items:
            getters.pop(0).succeed(items.pop(0))
        return event

    def get(self) -> StoreGet:
        """Remove the oldest item; the event succeeds with that item."""
        event = StoreGet(self.env)
        if self.items:
            event.succeed(self.items.pop(0))
        else:
            self._getters.append(event)
        return event

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

    def __repr__(self) -> str:
        return f"<Store size={self.size} getters={len(self._getters)}>"
