"""Kernel socket send-buffer model.

The send buffer is the crux of the paper's write-spin problem: a
non-blocking ``socket.write()`` can only copy as many bytes as the buffer
has free, and the buffer only frees when ACKs return from the peer (the TCP
wait-ACK mechanism, Figure 5 of the paper).

:class:`SendBuffer` tracks byte occupancy (we never shuffle payload bytes —
only counts matter to the simulation) and notifies registered waiters when
free space appears, which is what drives level-triggered writability in the
:mod:`repro.net.selector` and wakes blocked writers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.errors import BufferError_
from repro.sim.core import Event

__all__ = ["SendBuffer"]

#: A space waiter is either a one-shot callback or an Event to succeed.
#: Accepting events directly lets a blocked writer park one re-armable
#: event per blocking write instead of allocating a fresh closure + event
#: pair for every drain round (see Connection.blocking_write).
_Waiter = Union[Callable[[], None], Event]


class SendBuffer:
    """Byte-counting model of a TCP socket send buffer.

    ``capacity`` may be changed at runtime (kernel autotuning); shrinking
    below current occupancy is allowed — the buffer simply stays
    over-committed until ACKs drain it.
    """

    __slots__ = ("_capacity", "_used", "_closed", "_space_waiters", "on_park")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._used = 0
        self._closed = False
        self._space_waiters: List[_Waiter] = []
        #: Optional hook invoked whenever a waiter is actually *parked*
        #: (not fired immediately).  The owning connection's fast path uses
        #: it to schedule a wake-up tick at the next planned ACK time.
        self.on_park: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Current buffer capacity in bytes."""
        return self._capacity

    @capacity.setter
    def capacity(self, value: int) -> None:
        if value < 1:
            raise ValueError(f"capacity must be >= 1, got {value!r}")
        grew = value > self._capacity
        self._capacity = int(value)
        if grew and self.free > 0:
            self._notify_space()

    @property
    def used(self) -> int:
        """Bytes currently occupying the buffer (unsent + in flight)."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes of free space (zero when over-committed after a shrink)."""
        return max(0, self._capacity - self._used)

    @property
    def is_empty(self) -> bool:
        return self._used == 0

    @property
    def closed(self) -> bool:
        """True once the owning connection closed this buffer."""
        return self._closed

    # ------------------------------------------------------------------
    def reserve(self, nbytes: int) -> int:
        """Copy up to ``nbytes`` into the buffer; returns bytes accepted.

        This models the copy performed by ``socket.write()``: it accepts
        ``min(nbytes, free)`` and returns that count (possibly zero — the
        write-spin case).
        """
        if nbytes < 0:
            raise BufferError_(f"cannot reserve a negative byte count ({nbytes})")
        free = self._capacity - self._used
        if free < 0:
            free = 0
        accepted = nbytes if nbytes < free else free
        self._used += accepted
        return accepted

    def release(self, nbytes: int) -> None:
        """Free ``nbytes`` (ACK arrival) and wake space waiters."""
        used = self._used
        if nbytes < 0:
            raise BufferError_(f"cannot release a negative byte count ({nbytes})")
        if nbytes > used:
            raise BufferError_(f"releasing {nbytes} bytes but only {used} are buffered")
        used -= nbytes
        self._used = used
        # Inlined `free > 0`; skipping the call when nobody waits keeps the
        # per-ACK cost flat (this runs once per delayed-ACK granularity).
        if nbytes > 0 and used < self._capacity and self._space_waiters:
            self._notify_space()

    # ------------------------------------------------------------------
    def add_space_waiter(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback invoked when free space appears.

        If space is free right now the callback fires immediately.  On a
        closed buffer the callback also fires immediately: a closed buffer
        never drains (ACK processing stops at close), so a waiter parked
        here after close would otherwise sleep forever — the waker must
        observe the connection's closed state and unwind.
        """
        if self._closed or self._used < self._capacity:
            callback()
        else:
            self._space_waiters.append(callback)
            if self.on_park is not None:
                self.on_park()

    def add_space_event(self, event: Event) -> None:
        """Park ``event`` until free space appears (one-shot).

        Same wake-up semantics as :meth:`add_space_waiter` — fires
        immediately when space is free or the buffer is closed — but
        succeeds the event directly, saving the per-round closure of the
        blocked-writer path.  Waiters of both kinds share one FIFO list so
        wake-up (and therefore event-scheduling) order is registration
        order regardless of kind.
        """
        if self._closed or self._used < self._capacity:
            event.succeed()
        else:
            self._space_waiters.append(event)
            if self.on_park is not None:
                self.on_park()

    def _notify_space(self) -> None:
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            if isinstance(waiter, Event):
                waiter.succeed()
            else:
                waiter()

    def close(self) -> None:
        """Mark the buffer closed and wake every pending space waiter.

        After this, :meth:`add_space_waiter` fires immediately instead of
        parking callbacks that could never be woken.  Idempotent.
        """
        self._closed = True
        self._notify_space()

    def __repr__(self) -> str:
        return f"<SendBuffer {self._used}/{self._capacity} waiters={len(self._space_waiters)}>"
