"""Tier application logic: proxying, servlet work with DB calls, queries.

These :class:`~repro.servers.base.Application` subclasses turn the generic
server architectures into the three tiers of the RUBBoS system:

* :class:`ProxyApplication` — Apache httpd: forward the request downstream
  over a pooled connection (to one Tomcat, or routed across a replica
  group with optional hedging), relay the response;
* :class:`ServletApplication` — Tomcat: per-interaction CPU work plus
  blocking JDBC-style queries against the database tier;
* :class:`QueryApplication` — MySQL: per-query CPU proportional to the
  result size.

All downstream calls are synchronous (the thread blocks until the full
downstream response arrives), matching JDBC and Apache's proxy workers;
this is true for *both* Tomcat variants — the paper's upgrade changes only
the client-facing connector.

Every inter-tier call, the DAG edges' included, is one :func:`route`
(breaker, and balancer for a replica group, consulted before the call)
plus one :func:`call_downstream` (pooled exchange, then both informed).
An expired request is refused before it takes a pooled connection, and
downstream calls wait at most the remaining deadline budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.errors import ConnectionClosedError
from repro.net.messages import Request
from repro.ntier.pool import ConnectionPool
from repro.servers.base import Application, BaseServer
from repro.workload.rubbos import Interaction

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a hard import)
    from repro.cache.tier import CacheTier
    from repro.replica.group import Replica, ReplicaGroup
    from repro.resilience.hedge import HedgePolicy

__all__ = ["ProxyApplication", "ServletApplication", "QueryApplication", "route",
           "call_downstream", "on_worker_thread", "expired_failure", "forward"]

#: CPU seconds Apache spends parsing and routing one client request.
PROXY_CPU = 60.0e-6
#: CPU seconds Tomcat spends on one query's result set (row mapping,
#: templating).
ROW_CPU = 15.0e-6
#: CPU seconds MySQL spends on a query whose plan names no cost.
QUERY_CPU = 90.0e-6
#: CPU seconds MySQL spends per result byte.
QUERY_BYTE_CPU = 2.0e-9

#: Size of the tiny error response relayed for expired / fast-failed work.
_REJECTION_SIZE = 128

#: Request-lifecycle annotations that must not leak to downstream copies
#: (they describe *this* tier's admission state, not the payload).
_LIFECYCLE_KEYS = frozenset({"admitted", "rejected", "expired", "aborted"})


def forward(
    request: Request, response_size: int, request_size: int,
    deadline: Optional[float],
) -> Callable[[], Request]:
    """Factory for the downstream copy of ``request``.

    The copy carries the request's kind and payload metadata (minus this
    tier's lifecycle annotations) with the given sizes and deadline; the
    pooled exchange calls the factory once it holds a connection.
    """

    def make_downstream() -> Request:
        downstream = Request(
            request.env,
            kind=request.kind,
            response_size=response_size,
            request_size=request_size,
            deadline=deadline,
        )
        downstream.metadata.update(
            {k: v for k, v in request.metadata.items() if k not in _LIFECYCLE_KEYS}
        )
        return downstream

    return make_downstream


def expired_failure(status: str, downstream: Optional[Request]) -> bool:
    """Whether a failed call pins the failure on a deadline.

    ``"busy"`` and ``"timeout"`` ran out of budget here; a downstream
    copy marked ``"expired"`` ran out of it further down the chain.
    """
    return status in ("busy", "timeout") or (
        downstream is not None and bool(downstream.metadata.get("expired"))
    )


def _reject(request: Request, expired: bool = False) -> int:
    """Mark ``request`` shed at this tier; returns the rejection size."""
    request.metadata["rejected"] = True
    if expired:
        request.metadata["expired"] = True
    return _REJECTION_SIZE


def _pooled_exchange(
    pool: ConnectionPool,
    server: BaseServer,
    thread,
    make_downstream: Callable[[], Request],
    deadline: Optional[float],
    cancel: Optional[object] = None,
) -> "Tuple[str, Optional[Request]]":
    """One synchronous call over a pooled connection, resilience-aware.

    Generator (``yield from``); returns ``(status, downstream)`` where
    status is ``"ok"`` (full response arrived), ``"busy"`` (no pooled
    connection within the deadline budget), ``"timeout"`` (deadline hit
    or connection died mid-call; the connection is closed so the pool
    evicts it), ``"rejected"`` (the downstream tier shed the call), or
    ``"cancelled"`` (the optional ``cancel`` event fired first — the
    hedging path's loser; its connection is closed/evicted, and the
    caller must record **no** breaker or balancer outcome for it).
    :func:`call_downstream` does the breaker and balancer accounting.
    With ``cancel=None`` the historical event sequence is taken
    untouched.
    """
    calib = server.calibration
    env = server.env
    if deadline is None:
        if cancel is None:
            connection = yield pool.acquire()
        else:
            connection = yield from pool.acquire_unless(cancel)
            if connection is None:
                return "cancelled", None
    else:
        connection = yield from pool.acquire_within(deadline - env.now)
        if connection is None:
            return "busy", None
        if cancel is not None and cancel.triggered:
            # Cancelled while queueing for the pool: the connection is
            # still pristine, hand it straight back.
            pool.release(connection)
            return "cancelled", None
    downstream: Optional[Request] = None
    try:
        downstream = make_downstream()
        # Forward the request (one write syscall on the pooled conn).
        yield thread.syscall(
            bytes_copied=downstream.request_size,
            extra_kernel=calib.tx_kernel_cost(downstream.request_size),
        )
        try:
            connection.send_request(downstream)
        except ConnectionClosedError:
            return "timeout", downstream
        if deadline is None:
            if cancel is None:
                yield downstream.completed
            else:
                yield env.any_of([downstream.completed, connection.on_close, cancel])
                if not downstream.completed.triggered:
                    connection.close()
                    status = "cancelled" if cancel.triggered else "timeout"
                    return status, downstream
        else:
            remaining = deadline - env.now
            if remaining <= 0 or connection.closed:
                # Too late to wait; the response (if any) would land on a
                # connection we are abandoning — close so the pool evicts.
                connection.close()
                return "timeout", downstream
            timer = env.timeout(remaining)
            waits = [downstream.completed, connection.on_close, timer]
            if cancel is not None:
                waits.append(cancel)
            yield env.any_of(waits)
            if not downstream.completed.triggered:
                connection.close()
                if cancel is not None and cancel.triggered:
                    return "cancelled", downstream
                return "timeout", downstream
        # Read the downstream response back into user space.
        delivered = (
            _REJECTION_SIZE
            if downstream.metadata.get("rejected")
            else downstream.response_size
        )
        yield thread.syscall(
            bytes_copied=delivered,
            extra_kernel=calib.tx_kernel_cost(delivered),
        )
        if downstream.metadata.get("rejected"):
            return "rejected", downstream
        return "ok", downstream
    finally:
        pool.release(connection)


def _admits(pool: ConnectionPool) -> bool:
    """Whether ``pool``'s circuit breaker (if any) lets one call through."""
    breaker = pool.breaker
    return breaker is None or breaker.allow()


def route(
    target: "ConnectionPool | ReplicaGroup",
) -> "Optional[ConnectionPool | Replica]":
    """Where one downstream call goes; ``None`` fast-fails it.

    ``target`` is a :class:`~repro.ntier.pool.ConnectionPool`, which is
    its own route unless its breaker refuses, or a
    :class:`~repro.replica.group.ReplicaGroup`, whose balancer picks a
    :class:`~repro.replica.group.Replica`.  When the pick's breaker
    refuses, one *other* replica gets a chance before the call fast-fails.
    The route goes to :func:`call_downstream`.
    """
    if isinstance(target, ConnectionPool):
        return target if _admits(target) else None
    balancer = target.balancer
    replica = balancer.pick()
    if not _admits(replica.pool):
        replica = balancer.pick(exclude=replica)
        if replica is None or not _admits(replica.pool):
            return None
    return replica


def call_downstream(
    server: BaseServer,
    thread,
    routed: "ConnectionPool | Replica",
    make_downstream: Callable[[], Request],
    deadline: Optional[float],
    cancel: Optional[object] = None,
) -> "Tuple[str, Optional[Request]]":
    """One call over a :func:`route`, with its outcome accounted.

    Generator (``yield from``); returns :func:`_pooled_exchange`'s
    ``(status, downstream)``.  A replica counts the call as
    ``outstanding`` while it runs.  Afterwards ``"ok"`` records a breaker
    success and, on a replica, a balancer success with the measured
    latency (latency-aware outlier ejection feeds on it); any other status
    records a breaker and a balancer failure — except ``"cancelled"``,
    which records no outcome (the attempt was abandoned, not judged) and
    only hands its breaker admission back.
    """
    replica = None if isinstance(routed, ConnectionPool) else routed
    pool = routed if replica is None else replica.pool
    if replica is not None:
        replica.outstanding += 1
    started = server.env.now
    try:
        status, downstream = yield from _pooled_exchange(
            pool, server, thread, make_downstream, deadline, cancel
        )
    finally:
        if replica is not None:
            replica.outstanding -= 1
    breaker = pool.breaker
    if status == "ok":
        if breaker is not None:
            breaker.record_success()
        if replica is not None:
            replica.balancer.on_success(replica, latency=server.env.now - started)
    elif status == "cancelled":
        if breaker is not None:
            breaker.release()
    else:
        if breaker is not None:
            breaker.record_failure()
        if replica is not None:
            replica.balancer.on_failure(replica)
    return status, downstream


def on_worker_thread(server: BaseServer, label: str, call, *args):
    """Run ``call(server, thread, *args)`` on a fresh worker thread.

    Generator (``yield from`` or a process body): the thread, named
    ``label``, exists only for this call, so calls on separate threads
    genuinely overlap, mod CPU contention.  Returns what ``call`` returns.
    """
    thread = server.cpu.thread(label)
    try:
        return (yield from call(server, thread, *args))
    finally:
        thread.close()


class ProxyApplication(Application):
    """Apache httpd as a reverse proxy to the application tier.

    ``target`` is the pool into one Tomcat or the
    :class:`~repro.replica.group.ReplicaGroup` of several.  With a
    :class:`~repro.resilience.hedge.HedgePolicy` attached (replica groups
    only), a request whose primary attempt is still outstanding after the
    hedge delay gets one budget-bounded backup attempt on a *different*
    replica whose breaker admits it; the first ``"ok"`` response wins and
    the loser is cancelled through :func:`call_downstream`'s ``cancel``
    event (its connection closes, the pool evicts it, and no breaker or
    balancer outcome is recorded for it).  Hedged attempts run on their
    own proxy-worker threads (:func:`on_worker_thread`).
    """

    def __init__(
        self,
        target: "ConnectionPool | ReplicaGroup",
        hedge: "Optional[HedgePolicy]" = None,
    ):
        self.target = target
        self.hedge = hedge
        #: Deterministic per-request sequence (names hedge threads/procs).
        self._seq = 0

    def service(self, server: BaseServer, thread, request: Request):
        env = server.env
        # Parse + route the client request.
        yield thread.run(PROXY_CPU)
        deadline = request.deadline
        if deadline is not None and env.now >= deadline:
            return _reject(request, expired=True)
        routed = route(self.target)
        if routed is None:
            # Downstream tier is sick: fast-fail instead of pinning this
            # worker on the pool queue.
            return _reject(request)
        make_downstream = forward(
            request, request.response_size, request.request_size, deadline
        )
        if self.hedge is None:
            status, downstream = yield from call_downstream(
                server, thread, routed, make_downstream, deadline
            )
            if status == "ok":
                return request.response_size
            return _reject(request, expired=expired_failure(status, downstream))
        return (
            yield from self._service_hedged(
                server, request, routed, make_downstream, deadline
            )
        )

    def _service_hedged(self, server: BaseServer, request: Request,
                        primary: "Replica", make_downstream, deadline):
        """Primary attempt + at most one delayed backup; first ok wins."""
        env = server.env
        hedge = self.hedge
        self._seq += 1
        seq = self._seq
        started = env.now

        primary_cancel = env.event()
        primary_proc = env.process(
            on_worker_thread(server, f"hedge-{seq}-p", call_downstream, primary,
                             make_downstream, deadline, primary_cancel),
            name=f"hedge-{seq}-primary",
        )
        yield env.any_of([primary_proc, env.timeout(hedge.delay())])

        attempts = [(primary_proc, primary_cancel)]
        if not primary_proc.triggered:
            # Primary is slow: hedge to a different replica, its breaker
            # and the budget willing.
            backup = self.target.balancer.pick(exclude=primary)
            if backup is not None and _admits(backup.pool):
                if hedge.try_hedge():
                    backup_cancel = env.event()
                    backup_proc = env.process(
                        on_worker_thread(server, f"hedge-{seq}-b", call_downstream,
                                         backup, make_downstream, deadline,
                                         backup_cancel),
                        name=f"hedge-{seq}-backup",
                    )
                    attempts.append((backup_proc, backup_cancel))
                elif backup.pool.breaker is not None:
                    # The budget said no after the breaker said yes.
                    backup.pool.breaker.release()

        while True:
            winner = next((proc for proc, _ in attempts
                           if proc.triggered and proc.value[0] == "ok"), None)
            pending = [proc for proc, _ in attempts if not proc.triggered]
            if winner is not None or not pending:
                break
            yield env.any_of(pending)

        if winner is not None:
            hedge.observe(env.now - started)
            if winner is not primary_proc:
                hedge.hedges_won += 1
            for proc, cancel in attempts:
                if proc is not winner and not proc.triggered:
                    cancel.succeed()
                    hedge.hedges_cancelled += 1
            return request.response_size

        # Every attempt resolved without an "ok": shed the request.
        expired = any(expired_failure(*proc.value) for proc, _ in attempts)
        return _reject(request, expired=expired)


class ServletApplication(Application):
    """Tomcat servlet work for RUBBoS interactions (with DB queries).

    With a :class:`~repro.cache.tier.CacheTier` attached, every query
    first consults the cache; only misses (and writes) reach the pooled
    database exchange.  Without one the historical event sequence is
    taken untouched.
    """

    def __init__(
        self,
        pool: Optional[ConnectionPool],
        cache: "Optional[CacheTier]" = None,
    ):
        self.pool = pool
        self.cache = cache

    def service(self, server: BaseServer, thread, request: Request):
        calib = server.calibration
        env = server.env
        interaction: Optional[Interaction] = request.metadata.get("interaction")
        if interaction is None:
            # Fall back to size-derived cost for non-RUBBoS requests.
            yield thread.run(calib.request_cpu_cost(request.response_size))
            return request.response_size

        yield thread.run(interaction.app_cpu)
        if self.pool is None:
            return interaction.response_size
        deadline = request.deadline
        for index, (result_size, db_cpu) in enumerate(interaction.queries):
            if deadline is not None and env.now >= deadline:
                return _reject(request, expired=True)
            fetch = self._db_fetch(
                server, thread, interaction, result_size, db_cpu, deadline
            )
            if self.cache is None:
                status = yield from fetch()
            else:
                status = yield from self.cache.query(
                    thread, (interaction.name, index), result_size, deadline,
                    fetch,
                )
            if status != "ok":
                return _reject(request, expired=(status == "expired"))
            # Result-set processing (row mapping, templating).
            yield thread.run(ROW_CPU)
        return interaction.response_size

    def _db_fetch(self, server: BaseServer, thread, interaction: Interaction,
                  result_size: int, db_cpu: float, deadline: Optional[float]):
        """One database round trip, as a generator *function*.

        The query loop runs it directly, or hands it to the cache tier as
        the backing fetch (a coalesced follower never runs it).  Returns
        ``"ok"``, ``"expired"`` (busy/timeout/downstream-expired) or
        ``"rejected"`` — the status vocabulary the cache tier propagates.
        """
        env = server.env

        def make_query() -> Request:
            query = Request(
                env,
                kind=f"{interaction.name}.sql",
                response_size=result_size,
                request_size=256,
                deadline=deadline,
            )
            query.metadata["db_cpu"] = db_cpu
            return query

        def fetch():
            routed = route(self.pool)
            if routed is None:
                return "rejected"
            status, query = yield from call_downstream(
                server, thread, routed, make_query, deadline
            )
            if status == "ok":
                return "ok"
            return "expired" if expired_failure(status, query) else "rejected"

        return fetch


class QueryApplication(Application):
    """MySQL: execute one query, cost given by the caller's query plan."""

    def service(self, server: BaseServer, thread, request: Request):
        cpu = request.metadata.get("db_cpu", QUERY_CPU)
        yield thread.run(cpu + QUERY_BYTE_CPU * request.response_size)
        return request.response_size
