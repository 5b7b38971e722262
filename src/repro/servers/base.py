"""Common machinery shared by all simulated server architectures.

A *server* in this package is a software architecture running on a
simulated :class:`~repro.cpu.scheduler.CPU` and serving requests arriving
over :class:`~repro.net.tcp.Connection` objects.  Concrete subclasses model
the architectures the paper studies:

=====================  ======================================  ===========
Class                  Paper name                              Switch/req
=====================  ======================================  ===========
ThreadedServer         sTomcat-Sync (Tomcat 7 connector)       0 (user)
ReactorServer          sTomcat-Async (Tomcat 8 connector)      4
ReactorFixServer       sTomcat-Async-Fix                       2
SingleThreadedServer   SingleT-Async                           0
NettyServer            NettyServer (Netty v4 style)            ~0
HybridServer           HybridNetty (the paper's contribution)  ~0
=====================  ======================================  ===========

The *application* that computes responses is pluggable (see
:class:`Application`) so the same architectures serve both the
micro-benchmarks (fixed-size in-memory responses) and the RUBBoS n-tier
macro-benchmark (Tomcat tier calling a MySQL tier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpu.scheduler import CPU, SimThread
from repro.errors import ServerError
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.resilience.admission import AdaptiveLimiter
from repro.resilience.policy import AdmissionConfig
from repro.sim.core import Environment, Event

__all__ = [
    "Application",
    "ComputeApplication",
    "BaseServer",
    "ServerLimits",
    "ServerStats",
    "naive_spin_write",
]


class Application:
    """Business logic run by a server for each request.

    Subclasses override :meth:`service`, a generator that yields simulation
    events (CPU bursts, downstream I/O) and returns the response size in
    bytes.  The *thread* argument is the server thread the work is charged
    to; blocking inside ``service`` blocks that thread (which is precisely
    the architectural property the paper studies).
    """

    def service(
        self, server: "BaseServer", thread: SimThread, request: Request
    ) -> Generator[object, object, int]:
        """Process ``request``; returns the response size in bytes."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator function


class ComputeApplication(Application):
    """Pure in-memory computation, as in the paper's micro-benchmarks.

    The server performs "some simple computation before responding with
    0.1 KB / 10 KB / 100 KB of in-memory data"; the CPU demand scales with
    the response size (content generation cost).
    """

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION):
        self.calibration = calibration

    def service(self, server, thread, request):
        yield thread.run(self.calibration.request_cpu_cost(request.response_size))
        return request.response_size


@dataclass(frozen=True)
class ServerLimits:
    """Graceful-degradation knobs for a server under overload.

    ``None`` for a knob means unlimited (the historical behaviour).  When
    ``max_inflight`` is exceeded the server *sheds load*: instead of
    running the application it immediately writes a tiny
    ``rejection_size``-byte error response (think HTTP 503), which the
    client-side retry policy can recognise and back off from.
    """

    #: Maximum requests allowed in service concurrently; extra requests
    #: receive a rejection response instead of being processed.
    max_inflight: Optional[int] = None
    #: Size in bytes of the rejection response written to shed requests.
    rejection_size: int = 128
    #: Adaptive (AIMD) admission control: when set, the admission gate
    #: uses a latency-discovered concurrency limit instead of the static
    #: ``max_inflight`` (see :mod:`repro.resilience.admission`).
    adaptive: Optional[AdmissionConfig] = None

    def __post_init__(self) -> None:
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ServerError(f"max_inflight must be >= 1, got {self.max_inflight!r}")
        if self.rejection_size < 1:
            raise ServerError(f"rejection_size must be >= 1, got {self.rejection_size!r}")


class ServerStats:
    """Aggregate counters maintained by every server."""

    __slots__ = (
        "requests_started",
        "requests_completed",
        "responses_written",
        "spin_jumpouts",
        "reclassifications",
        "requests_rejected",
        "requests_aborted",
        "requests_expired",
        "connections_refused",
    )

    def __init__(self) -> None:
        self.requests_started = 0
        self.requests_completed = 0
        self.responses_written = 0
        #: Times a bounded (Netty-style) write loop gave up and deferred.
        self.spin_jumpouts = 0
        #: Times the hybrid server's map moved a request type between
        #: paths (once per move).
        self.reclassifications = 0
        #: Requests shed with a rejection response (ServerLimits.max_inflight).
        self.requests_rejected = 0
        #: Requests abandoned mid-service because their connection closed.
        self.requests_aborted = 0
        #: Requests refused because their propagated deadline had already
        #: passed on arrival (cheap rejection instead of doomed service).
        self.requests_expired = 0
        #: Connections refused at attach because the server was down.
        self.connections_refused = 0


class BaseServer:
    """Base class: connection registry plus shared read/write helpers."""

    #: Architecture label used in reports; subclasses override.
    architecture = "base"

    #: True when :meth:`_on_attach` has no simulation side effects beyond
    #: pure bookkeeping (selector registration) — no CPU charges and, in
    #: particular, no ``cpu.thread()`` creation, which perturbs the
    #: thread-footprint factor every user-space charge is scaled by.
    #: Thread-per-connection architectures spawn a handler thread at
    #: attach time and must leave this False.  The sharded kernel only
    #: allows *dynamically created* connections (cohort growth) across a
    #: shard cut when the accepting server attaches passively, because
    #: the attach then lands one link latency later than serial's
    #: instantaneous attach and an active attach would shift CPU costs.
    passive_attach = False

    def __init__(
        self,
        env: Environment,
        cpu: CPU,
        app: Optional[Application] = None,
        calibration: Optional[Calibration] = None,
        name: str = "",
        limits: Optional[ServerLimits] = None,
    ):
        self.env = env
        self.cpu = cpu
        self.calibration = calibration or cpu.calibration
        self.app = app or ComputeApplication(self.calibration)
        self.name = name or self.architecture
        #: Open attached connections in attach order, keyed by their
        #: ``on_close`` event: :meth:`_forget` drops a connection when
        #: that event fires.
        self._open: Dict[Event, Connection] = {}
        #: The one ``on_close`` callback every attached connection shares.
        self._forget_cb = self._forget
        self.stats = ServerStats()
        #: Optional :class:`~repro.metrics.tracing.RequestTracer`; when
        #: set, the server marks request-lifecycle milestones on it.
        #: Every mark site tests it first, so no tracer costs no call.
        self.tracer = None
        #: AIMD limiter backing ``ServerLimits.adaptive`` (None otherwise);
        #: created by the ``limits`` setter so post-construction assignment
        #: (run_micro's pattern) arms it too.
        self._limiter: Optional[AdaptiveLimiter] = None
        #: Optional :class:`ServerLimits`; ``None`` disables shedding.
        self.limits = limits
        #: Requests currently admitted into application service.
        self._inflight = 0
        #: True while a crash window holds this instance down: new
        #: connection attempts are refused (closed immediately, like a
        #: connection reset against a dead port).  Only the crash–restart
        #: fault machinery flips this; the default path just reads one
        #: attribute per attach.
        self.down = False

    @property
    def limits(self) -> Optional[ServerLimits]:
        """Active :class:`ServerLimits` (``None`` disables shedding)."""
        return self._limits

    @limits.setter
    def limits(self, value: Optional[ServerLimits]) -> None:
        self._limits = value
        if value is not None and value.adaptive is not None:
            self._limiter = AdaptiveLimiter(self.env, value.adaptive)
        else:
            self._limiter = None

    @property
    def limiter(self) -> Optional[AdaptiveLimiter]:
        """The adaptive admission limiter, when one is configured."""
        return self._limiter

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @property
    def connections(self) -> List[Connection]:
        """The open attached connections, in attach order.

        A connection leaves when its ``on_close`` event fires, so a
        closed one is freed as soon as its handler lets go of it.
        """
        return list(self._open.values())

    def attach(self, connection: Connection) -> None:
        """Accept an established connection and start serving it.

        While the server is ``down`` the connection is *refused*: closed
        immediately (the client observes the close) and counted, not
        raised — refusal is an expected fault outcome, not a programming
        error.
        """
        on_close = connection.on_close
        if on_close in self._open:
            raise ServerError("connection already attached")
        if self.down:
            # Crashed instance: nothing is listening, the SYN is answered
            # with a reset.
            self.stats.connections_refused += 1
            connection.close()
            return
        self._open[on_close] = connection
        on_close.callbacks.append(self._forget_cb)
        self._on_attach(connection)

    def _forget(self, on_close: Event) -> None:
        """``on_close`` callback: drop the closed connection from the
        registry.  The request it was serving stays on it, for
        :meth:`_abort_connection`."""
        del self._open[on_close]

    def _on_attach(self, connection: Connection) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared request-handling steps
    # ------------------------------------------------------------------
    def _read_request(self, thread: SimThread, connection: Connection):
        """Read + parse one pending request; charged to ``thread``.

        Generator; returns the request (or ``None`` if inbox was empty).
        """
        request = connection.read_request()
        if request is None:
            return None
        yield thread.syscall(
            bytes_copied=request.request_size,
            extra_kernel=self.calibration.tx_kernel_cost(request.request_size),
        )
        request.service_started_at = self.env.now
        self.stats.requests_started += 1
        connection.in_service = request
        if self.tracer is not None:
            self.tracer.mark(request, "read", thread.name)
        return request

    def _charge_write(self, thread: SimThread, written: int):
        """CPU cost of one non-blocking ``socket.write()`` call.

        User side: syscall crossing plus JVM NIO bookkeeping.  Kernel
        side: syscall entry, user→kernel copy, and the TX path for the
        segments produced.  Returns the burst-completion event.
        """
        calib = self.calibration
        self.cpu.counters.syscalls += 1
        return thread.run_split(
            calib.syscall_user_cost + calib.nio_write_user_cost,
            calib.syscall_kernel_cost
            + calib.copy_cost_per_byte * written
            + calib.tx_kernel_cost(written),
        )

    def _admit(self, request: Request) -> Optional[int]:
        """Load-shedding gate: ``None`` admits, else the rejection size.

        Order matters: an *expired* deadline is refused first (even on an
        otherwise unlimited server — the cheap-rejection contract of
        deadline propagation), then the concurrency cap is enforced
        (static ``max_inflight`` or the adaptive limiter's current
        estimate).  With neither a deadline nor limits configured this
        performs no metadata writes and no counter updates, keeping the
        default path untouched.
        """
        limits = self._limits
        if request.deadline is not None and self.env.now >= request.deadline:
            self.stats.requests_expired += 1
            request.metadata["rejected"] = True
            request.metadata["expired"] = True
            if self.tracer is not None:
                self.tracer.mark(request, "expired")
            return limits.rejection_size if limits is not None else 128
        if limits is None:
            return None
        if self._limiter is not None:
            cap: Optional[int] = self._limiter.limit
        else:
            cap = limits.max_inflight
        if cap is None:
            return None
        if self._inflight >= cap:
            self.stats.requests_rejected += 1
            request.metadata["rejected"] = True
            if self.tracer is not None:
                self.tracer.mark(request, "rejected")
            return limits.rejection_size
        self._inflight += 1
        request.metadata["admitted"] = True
        return None

    def _service(self, thread: SimThread, request: Request):
        """Run the application logic; returns the response size.

        Under :class:`ServerLimits` the request first passes the admission
        gate; a shed request skips the application entirely and gets the
        small rejection response instead.
        """
        rejection_size = self._admit(request)
        if rejection_size is not None:
            response_size = rejection_size
        else:
            response_size = yield from self.app.service(self, thread, request)
            if response_size is None:
                response_size = request.response_size
        if self.tracer is not None:
            self.tracer.mark(request, "computed", thread.name)
        return response_size

    def _finish(self, request: Request) -> None:
        if request.metadata.pop("admitted", None):
            self._inflight = max(0, self._inflight - 1)
            if self._limiter is not None and request.service_started_at is not None:
                self._limiter.on_complete(self.env.now - request.service_started_at)
        self.stats.requests_completed += 1
        if self.tracer is not None:
            self.tracer.mark(request, "response-written")

    def _abort(self, request: Optional[Request]) -> None:
        """Account for a request abandoned because its connection died.

        Releases the admission slot (if the request held one) and counts
        the abort — unless the response actually reached the client before
        the close, in which case nothing was lost.
        """
        if request is None:
            return
        admitted = request.metadata.pop("admitted", None)
        if admitted:
            self._inflight = max(0, self._inflight - 1)
        if request.completed_at is not None:
            return
        if admitted and self._limiter is not None:
            self._limiter.on_failure()
        self.stats.requests_aborted += 1
        request.metadata["aborted"] = True
        if self.tracer is not None:
            self.tracer.mark(request, "aborted")

    def _abort_connection(self, connection: Connection) -> None:
        """Per-connection cleanup when a close interrupts service.

        Servers call this from their ``ConnectionClosedError`` handlers so
        a mid-request disconnect is accounted as an abort instead of
        silently vanishing.  It takes the request the connection last
        served: if that one's response already reached the client,
        :meth:`_abort` counts nothing.
        """
        request = connection.in_service
        connection.in_service = None
        self._abort(request)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} conns={len(self._open)}>"


def naive_spin_write(
    server: BaseServer,
    thread: SimThread,
    connection: Connection,
    request: Request,
    response_size: int,
) -> Generator[object, object, None]:
    """The naive asynchronous write path (the write-spin of Section IV).

    The handler runs the response to completion before returning to the
    event loop: it calls non-blocking ``write`` in a loop, and when the
    send buffer is full it waits for writability *of this one connection*
    — exactly the behaviour that (a) issues ~``response/ACK-granularity``
    syscalls for large responses and (b) occupies the handling thread for
    the whole wait-ACK drain, serialising the single-threaded server when
    network latency is non-zero (Figure 7).

    The loop always retries after a successful partial write and only
    waits once it observes a zero return, so both the non-zero and the
    zero ("spin") writes of the paper's Table IV occur.

    Under the flow-level TCP fast path the ``wait_writable`` park is
    answered by an armed wake-up at the next *planned* ACK time instead
    of a per-segment event cascade, but each wake-up still lands at every
    ACK granularity: the spin count here is a digest-pinned observable
    (it *is* Table IV), so the fast path may thin the kernel's event
    stream beneath this loop, never the loop's own syscall pattern.
    """
    transfer = connection.open_transfer(response_size, request)
    remaining = response_size
    while remaining > 0:
        written = connection.try_write(remaining, request)
        if server.tracer is not None:
            server.tracer.mark(request, "write", f"{written}B")
        yield server._charge_write(thread, written)
        remaining -= written
        if remaining > 0 and written == 0:
            yield connection.wait_writable()
    server.stats.responses_written += 1
    # The handler does NOT wait for delivery: once the last byte is in the
    # kernel buffer the handler returns; delivery completes asynchronously
    # and the transfer marks the request completed at the client.
    del transfer
