"""Level-triggered readiness notification (epoll/select model).

Asynchronous servers monitor many connections with one thread by polling a
:class:`Selector`.  Semantics follow level-triggered ``epoll``:

* a connection is *read-ready* while it has at least one unread request;
* it is *write-ready* while its send buffer has free space;
* :meth:`Selector.poll` returns immediately if anything is ready, otherwise
  blocks until a registered connection becomes ready;
* connections may be registered/unregistered while a poll is outstanding
  (servers routinely deregister a connection during request processing and
  re-register it afterwards).

The CPU cost of the poll syscall itself is charged by the calling server
(``poll_cost + poll_cost_per_event * len(ready)``), because different
architectures amortise it differently — that is part of what the paper
measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.net.tcp import Connection
from repro.sim.core import Environment, Event

__all__ = ["Selector", "EVENT_READ", "EVENT_WRITE"]

#: Interest/readiness flag: connection has pending requests to read.
EVENT_READ = 0x1
#: Interest/readiness flag: connection send buffer has space.
EVENT_WRITE = 0x2


class Selector:
    """Monitors a set of connections for read/write readiness."""

    def __init__(self, env: Environment):
        self.env = env
        self._interest: Dict[Connection, int] = {}
        self._pending_poll: Optional[Event] = None
        #: (connection, flag) pairs that currently have an armed one-shot
        #: readiness watcher, to avoid arming duplicates.
        self._armed: Set[Tuple[Connection, int]] = set()
        #: Number of poll invocations that returned (for amortisation stats).
        self.polls = 0
        #: Total readiness events returned across all polls.
        self.events_returned = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, connection: Connection, events: int = EVENT_READ) -> None:
        """Start (or update) monitoring of ``connection`` for ``events``.

        Registering an already-registered connection updates its interest
        mask, like ``epoll_ctl(EPOLL_CTL_MOD)``.
        """
        if not events & (EVENT_READ | EVENT_WRITE):
            raise NetworkError(f"invalid interest mask {events!r}")
        self._interest[connection] = events
        if self._poll_outstanding():
            if self._ready_among((connection,)):
                self._complete_poll()
            else:
                self._watch(connection, events)

    def modify(self, connection: Connection, events: int) -> None:
        """Change the interest mask of a registered connection."""
        if connection not in self._interest:
            raise NetworkError("connection is not registered with this selector")
        self.register(connection, events)

    def unregister(self, connection: Connection) -> None:
        """Stop monitoring ``connection``.

        Any armed watcher becomes a no-op when it fires.
        """
        self._interest.pop(connection, None)

    @property
    def registered(self) -> int:
        """Number of connections being monitored."""
        return len(self._interest)

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------
    def ready_list(self) -> List[Tuple[Connection, int]]:
        """Connections ready right now, with their readiness masks."""
        # Copy: closed connections are dropped from the set mid-scan.
        return self._ready_among(list(self._interest))

    def _ready_among(self, connections) -> List[Tuple[Connection, int]]:
        """The ready ``(connection, mask)`` pairs among ``connections``.

        One call however many connections it checks: the read check reads
        the inbox directly, and only a write check calls into the
        connection.
        """
        out = []
        interests = self._interest
        for connection in connections:
            if connection.closed:
                # A closed fd reports nothing; lazily drop it from the set.
                interests.pop(connection, None)
                continue
            # Read when the connection is checked: a write check advances
            # a TCP plan, whose release can run watcher callbacks that
            # change the interest set mid-scan.
            interest = interests.get(connection, 0)
            ready = EVENT_READ if interest & EVENT_READ and connection.inbox else 0
            if interest & EVENT_WRITE and connection.writable:
                ready |= EVENT_WRITE
            if ready:
                out.append((connection, ready))
        return out

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(self) -> Event:
        """Event that succeeds with a non-empty ready list.

        Level-triggered: if anything is ready now, the event succeeds
        immediately.  Only one poll may be outstanding at a time — a
        selector belongs to exactly one event-loop thread.
        """
        if self._poll_outstanding():
            raise NetworkError("a poll is already outstanding on this selector")
        event = self.env.event()
        ready = self.ready_list()
        if ready:
            self._finish(event, ready)
            return event
        self._pending_poll = event
        self._arm_all()
        return event

    def _poll_outstanding(self) -> bool:
        return self._pending_poll is not None and not self._pending_poll.triggered

    def _arm_all(self) -> None:
        armed = self._armed
        for connection, interest in list(self._interest.items()):
            # Pairs armed already need no _watch call.
            if (interest & EVENT_READ and (connection, EVENT_READ) not in armed) or (
                interest & EVENT_WRITE and (connection, EVENT_WRITE) not in armed
            ):
                self._watch(connection, interest)

    def _watch(self, connection: Connection, interest: int) -> None:
        """Arm one-shot readiness watchers, deduplicated per connection."""
        if connection.closed:
            return
        if interest & EVENT_READ and (connection, EVENT_READ) not in self._armed:
            self._armed.add((connection, EVENT_READ))
            connection.add_readable_watcher(
                lambda c=connection: self._watch_fired(c, EVENT_READ)
            )
        if interest & EVENT_WRITE and (connection, EVENT_WRITE) not in self._armed:
            self._armed.add((connection, EVENT_WRITE))
            # Routed through the connection (not the raw buffer) so the
            # flow-level fast path sees the park and arms a wake-up tick.
            connection.add_writable_watcher(
                lambda c=connection: self._watch_fired(c, EVENT_WRITE)
            )

    def _watch_fired(self, connection: Connection, flag: int) -> None:
        self._armed.discard((connection, flag))
        if not self._poll_outstanding():
            return
        if not self._complete_poll():
            # Spurious (readiness consumed or connection unregistered);
            # keep waiting and re-arm whatever needs re-arming.
            self._arm_all()

    def _complete_poll(self) -> bool:
        """Finish the outstanding poll if something is ready."""
        ready = self.ready_list()
        if not ready:
            return False
        event = self._pending_poll
        self._pending_poll = None
        self._finish(event, ready)
        return True

    def _finish(self, event: Event, ready: List[Tuple[Connection, int]]) -> None:
        self.polls += 1
        self.events_returned += len(ready)
        event.succeed(ready)

    def __repr__(self) -> str:
        return f"<Selector registered={self.registered} polls={self.polls}>"
