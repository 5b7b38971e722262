"""Inter-tier connection pools.

An upstream tier (Apache, Tomcat) talks to its downstream tier (Tomcat,
MySQL) over a fixed pool of persistent connections, exactly like Apache's
AJP/proxy connection pool and Tomcat's JDBC pool.  The pool size is the
lever that bounds the downstream tier's workload concurrency — the paper
measures ~35 concurrent requests at Tomcat when the 3-tier system
saturates, which the Figure 1 reproduction inherits from the default
Apache→Tomcat pool of 40.

Resilience hooks (PR 4): :meth:`ConnectionPool.release` evicts dead
connections and lazily replaces them (a fault-injected reset used to
leave a closed connection in the pool, poisoning the next borrower);
:meth:`ConnectionPool.acquire_within` bounds the wait by a deadline
budget; and an optional :class:`~repro.resilience.breaker.CircuitBreaker`
rides on the pool so callers can fast-fail while the downstream tier is
sick.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.errors import SimulationError
from repro.net.tcp import Connection
from repro.resilience.breaker import CircuitBreaker
from repro.servers.base import BaseServer
from repro.sim.core import Environment, Event
from repro.sim.resources import Store

__all__ = ["ConnectionPool"]


class ConnectionPool:
    """A fixed set of persistent connections to a downstream server."""

    def __init__(
        self,
        env: Environment,
        downstream: BaseServer,
        size: int,
        link,
        calibration,
        breaker: Optional[CircuitBreaker] = None,
        connect=None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size!r}")
        self.env = env
        self.downstream = downstream
        self.size = size
        self._link = link
        self._calibration = calibration
        #: Optional connection factory override (``connect(index)``): the
        #: sharded kernel supplies one that returns a cut-edge stub when
        #: the downstream tier lives on another shard, in which case
        #: ``downstream`` may be ``None``.  Default ``None`` keeps the
        #: historical in-process wiring.
        self._connect = connect
        self._idle: Store = Store(env)
        self.connections: List[Connection] = []
        for _ in range(size):
            connection = self._fresh()
            self.connections.append(connection)
            self._idle.items.append(connection)
        #: Peak number of simultaneously checked-out connections.
        self.peak_in_use = 0
        self._in_use = 0
        #: Dead connections evicted at release (each one replaced).
        self.evictions = 0
        #: Optional circuit breaker guarding this upstream→downstream
        #: edge; callers consult it before acquiring and report outcomes.
        self.breaker = breaker

    def _fresh(self) -> Connection:
        """Open a new connection to the downstream tier."""
        if self._connect is not None:
            return self._connect(len(self.connections))
        connection = Connection(self.env, self._link, self._calibration)
        self.downstream.attach(connection)
        return connection

    @property
    def in_use(self) -> int:
        """Connections currently checked out."""
        return self._in_use

    @property
    def idle(self) -> int:
        """Connections currently available."""
        return self._idle.size

    def acquire(self) -> Event:
        """Event that succeeds with a checked-out connection."""
        event = self._idle.get()
        event.callbacks.append(self._on_acquired)
        return event

    def acquire_within(
        self, budget: float
    ) -> Generator[object, object, Optional[Connection]]:
        """Acquire a connection, waiting at most ``budget`` seconds.

        Generator (use ``yield from``); returns the connection, or
        ``None`` when the budget ran out first — the pending claim is
        withdrawn so a later free connection is not leaked to a caller
        that already gave up.
        """
        get = self.acquire()
        yield self.env.any_of([get, self.env.timeout(max(0.0, budget))])
        return self._withdraw(get)

    def acquire_unless(
        self, cancel: Event
    ) -> Generator[object, object, Optional[Connection]]:
        """Acquire a connection unless ``cancel`` triggers first.

        Generator (use ``yield from``); returns the connection, or
        ``None`` when ``cancel`` won the race — the hedging path's
        analogue of :meth:`acquire_within`.
        """
        get = self.acquire()
        yield self.env.any_of([get, cancel])
        return self._withdraw(get)

    def _withdraw(self, get: Event) -> Optional[Connection]:
        """The connection ``get`` was granted, or ``None`` after
        withdrawing the claim of a caller that gave up waiting."""
        if get.triggered:
            # Granted (possibly in the same tick the wait ended): take it.
            return get.value
        if not self._idle.cancel(get):
            # The grant raced the give-up tick: per Store.cancel, a claim
            # whose item was already assigned cannot be withdrawn — the
            # connection is ours now, so hand it straight back instead of
            # leaking it (and undercounting in_use forever).
            pending = get.callbacks
            if pending is not None and self._on_acquired in pending:
                # The grant has not been processed yet: drop our checkout
                # accounting hook and return the connection directly, so
                # it was never observed as in use.
                pending.remove(self._on_acquired)
                self._idle.put(get.value)
            else:
                self.release(get.value)
        return None

    def _on_acquired(self, _event) -> None:
        self._in_use += 1
        self.peak_in_use = max(self.peak_in_use, self._in_use)

    def evict_closed_idle(self) -> int:
        """Evict and replace every *idle* connection that has died.

        The lazy release-time eviction below is right for the occasional
        fault-killed connection, but after a server crash the whole pool
        is corpses and lazy replacement would drip-feed reconnects (one
        per borrower failure) for tens of seconds.  Real pools reconnect
        eagerly when the peer comes back — Apache retires stale proxy
        connections on checkout, JDBC pools validate on borrow — so the
        crash–restart path calls this to model the reconnection storm.
        Checked-out corpses are still evicted at release as usual.
        Returns the number of connections replaced.
        """
        replaced = 0
        items = self._idle.items
        for i, connection in enumerate(items):
            if connection.closed:
                slot = self.connections.index(connection)
                replacement = self._fresh()
                self.connections[slot] = replacement
                items[i] = replacement
                self.evictions += 1
                replaced += 1
        return replaced

    def release(self, connection: Connection) -> None:
        """Return a connection to the pool.

        A connection that died while checked out (fault-injected reset,
        deadline-triggered close) is evicted and replaced with a fresh
        one instead of being handed to the next borrower, keeping the
        pool at exactly ``size`` connections — the invariant that bounds
        the downstream tier's concurrency.

        The eviction deliberately records **no** outcome on the attached
        circuit breaker: a connection only dies checked-out as the tail
        end of a non-``"ok"`` pooled exchange, and the exchange's caller
        already reports that same incident via ``breaker.record_failure``
        — recording here too would double-count one sickness signal and
        shift every breaker state transition (verified against the
        golden-digest matrix, which pins breaker counters).
        """
        self._in_use -= 1
        if connection.closed:
            self.evictions += 1
            try:
                slot = self.connections.index(connection)
            except ValueError:
                # Appending a replacement here would silently grow the
                # pool past its fixed size; a foreign (or double-released)
                # connection is a caller bug, so fail loudly instead.
                raise SimulationError(
                    "released a connection this pool does not own"
                ) from None
            replacement = self._fresh()
            self.connections[slot] = replacement
            self._idle.put(replacement)
            return
        self._idle.put(connection)

    def __repr__(self) -> str:
        return (
            f"<ConnectionPool size={self.size} in_use={self._in_use} "
            f"evictions={self.evictions}>"
        )
