"""Reactor + worker-pool asynchronous servers (sTomcat-Async and -Fix).

:class:`ReactorServer` models the Tomcat 8 NIO connector's event processing
flow (the paper's Figure 3): a *reactor* thread monitors readiness and
dispatches every event to a worker pool, and — crucially — the read event
and the write event of the *same* request are dispatched separately, to
potentially different workers.  Handling one request therefore costs four
user-space context switches:

1. reactor → worker (read event dispatched);
2. worker → reactor (worker generated the write event and notified);
3. reactor → worker (write event dispatched);
4. worker → reactor (response sent, control returns).

:class:`ReactorFixServer` is the paper's first alternative design
(sTomcat-Async-Fix): the worker that read the request keeps going and
writes the response itself, merging steps 2–3 away and halving the
switches to two.

Both inherit the naive spinning write path — the event-processing-flow fix
is orthogonal to the write-spin problem, which is why sTomcat-Async-Fix
still collapses under network latency in Figure 7(a).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConnectionClosedError, ServerError
from repro.net.selector import EVENT_READ, Selector
from repro.net.tcp import Connection
from repro.servers.base import BaseServer, naive_spin_write
from repro.sim.resources import Store

__all__ = ["ReactorServer", "ReactorFixServer"]

#: Internal reactor-notification kinds.
_NOTE_WRITE = "write"
_NOTE_REREGISTER = "reregister"


class ReactorServer(BaseServer):
    """Reactor + worker pool, separate read/write dispatch (4 switches)."""

    architecture = "sTomcat-Async"
    passive_attach = True

    #: Whether the read-event worker also writes the response (the -Fix
    #: variant flips this to True).
    merge_read_write = False

    def __init__(self, *args, workers: int = 8, **kwargs):
        super().__init__(*args, **kwargs)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        self.selector = Selector(self.env)
        self._notes: Store = Store(self.env)
        self._work_queue: Store = Store(self.env)
        self.reactor_thread = self.cpu.thread(f"{self.name}-reactor")
        self.env.process(self._reactor_loop(), name=f"{self.name}-reactor")
        for index in range(workers):
            thread = self.cpu.thread(f"{self.name}-worker{index}")
            self.env.process(self._worker_loop(thread), name=f"{self.name}-worker{index}")

    def _on_attach(self, connection: Connection) -> None:
        self.selector.register(connection, EVENT_READ)

    # ------------------------------------------------------------------
    # Reactor thread: event monitoring phase
    # ------------------------------------------------------------------
    def _reactor_loop(self):
        calib = self.calibration
        thread = self.reactor_thread
        poll_ev = None
        note_ev = None
        while True:
            if poll_ev is None or poll_ev.triggered:
                poll_ev = self.selector.poll()
            if note_ev is None or note_ev.triggered:
                note_ev = self._notes.get()
            yield self.env.any_of([poll_ev, note_ev])

            if poll_ev.triggered:
                ready: List[Tuple[Connection, int]] = poll_ev.value
                yield thread.run_split(
                    calib.syscall_user_cost,
                    calib.poll_cost + calib.poll_cost_per_event * len(ready),
                )
                for connection, mask in ready:
                    yield from self._reactor_handle_ready(connection, mask)

            if note_ev.triggered:
                kind, payload = note_ev.value
                yield from self._reactor_note(kind, payload)

    def _reactor_handle_ready(self, connection: Connection, mask: int):
        """Dispatch one ready connection (reactor-thread context).

        One-event-one-handler: hand the read event to a worker; stop
        watching the connection until the request's processing flow
        finishes.  Subclasses extend this for write-interest handling.
        """
        self.selector.unregister(connection)
        yield self.reactor_thread.run(self.calibration.dispatch_cost)
        yield self._work_queue.put(("read", connection))

    def _reactor_note(self, kind: str, payload):
        """Handle one internal notification (reactor-thread context)."""
        if kind == _NOTE_WRITE:
            # Step 3 of Figure 3: dispatch the write event to a
            # (generally different) worker.
            yield self.reactor_thread.run(self.calibration.dispatch_cost)
            yield self._work_queue.put(("write", payload))
        elif kind == _NOTE_REREGISTER:
            yield self.reactor_thread.run(self.calibration.dispatch_cost)
            self.selector.register(payload, EVENT_READ)

    # ------------------------------------------------------------------
    # Worker threads: event handling phase
    # ------------------------------------------------------------------
    def _worker_loop(self, thread):
        while True:
            kind, payload = yield self._work_queue.get()
            try:
                if kind == "read":
                    yield from self._handle_read(thread, payload)
                elif kind == "write":
                    connection, request, response_size = payload
                    yield from self._handle_write(
                        thread, connection, request, response_size
                    )
                else:
                    yield from self._handle_extra(thread, kind, payload)
            except ConnectionClosedError:
                # Client disconnected mid-flow: account the abort; the
                # selector drops closed connections lazily, so there is
                # nothing to re-register.  No local keeps the connection:
                # this worker may idle long before its next item.
                self._abort_connection(
                    payload if isinstance(payload, Connection) else payload[0]
                )
                continue

    def _handle_extra(self, thread, kind, payload):
        """Hook for subclass-specific work-queue items."""
        raise ServerError(f"unknown work item kind {kind!r}")
        yield  # pragma: no cover - generator form

    def _handle_read(self, thread, connection: Connection):
        request = yield from self._read_request(thread, connection)
        if request is None:
            yield self._notes.put((_NOTE_REREGISTER, connection))
            return
        response_size = yield from self._service(thread, request)
        if self.merge_read_write:
            # sTomcat-Async-Fix: same worker continues with the write.
            yield from self._handle_write(thread, connection, request, response_size)
        else:
            # Step 2 of Figure 3: generate a write event and notify the
            # reactor (a context switch back to the reactor thread).
            yield self._notes.put((_NOTE_WRITE, (connection, request, response_size)))

    def _handle_write(self, thread, connection: Connection, request, response_size: int):
        yield from naive_spin_write(self, thread, connection, request, response_size)
        self._finish(request)
        # Step 4: control returns to the reactor, which resumes watching
        # the connection for the next request.
        yield self._notes.put((_NOTE_REREGISTER, connection))


class ReactorFixServer(ReactorServer):
    """sTomcat-Async-Fix: read and write handled by the same worker."""

    architecture = "sTomcat-Async-Fix"
    merge_read_write = True
