"""Netty-style asynchronous server (the paper's NettyServer, Section V-A).

Netty's two optimisations over the Tomcat-style reactor are modelled:

1. **Event-flow optimisation** — worker threads own both event monitoring
   and handling for their share of connections (each worker has its own
   selector), so the reactor↔worker dispatch switches of Figure 3
   disappear; a chain of handlers (pipeline) processes each event without
   generating intermediate events.
2. **Write optimisation** (Figure 8) — a bounded write loop: each worker
   tracks a ``writeSpin`` counter per response; it jumps out of the loop
   when a write returns zero or the counter exceeds the threshold (16 in
   Netty v4), saves the write context, registers for writability and goes
   on serving *other* connections, resuming the transfer later.

The price is per-event pipeline traversal plus per-write bookkeeping —
the "non-trivial optimisation overhead" that loses to SingleT-Async on
small responses in Figure 9(b) and motivates the hybrid solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.scheduler import SimThread
from repro.errors import ConnectionClosedError
from repro.net.messages import Request
from repro.net.selector import EVENT_READ, EVENT_WRITE, Selector
from repro.net.tcp import Connection, ResponseTransfer
from repro.servers.base import BaseServer

__all__ = ["NettyServer", "PendingWrite", "NettyWorker"]


@dataclass
class PendingWrite:
    """Saved context of a partially written response (Netty jump-out)."""

    request: Request
    remaining: int
    transfer: ResponseTransfer


class NettyWorker:
    """One Netty event-loop worker: own selector, own pending writes."""

    def __init__(self, server: "NettyServer", index: int):
        self.server = server
        self.index = index
        self.selector = Selector(server.env)
        self.thread: SimThread = server.cpu.thread(f"{server.name}-worker{index}")
        self.pending: Dict[Connection, PendingWrite] = {}

    def __repr__(self) -> str:
        return f"<NettyWorker #{self.index} pending={len(self.pending)}>"


class NettyServer(BaseServer):
    """Worker-owned selectors + pipeline + bounded (writeSpin) writes."""

    architecture = "NettyServer"
    passive_attach = True

    def __init__(
        self,
        *args,
        workers: int = 1,
        spin_threshold: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if spin_threshold is None:
            spin_threshold = self.calibration.netty_write_spin_threshold
        self.spin_threshold = spin_threshold
        if self.spin_threshold < 1:
            raise ValueError(f"spin_threshold must be >= 1, got {self.spin_threshold!r}")
        self._workers: List[NettyWorker] = [NettyWorker(self, i) for i in range(workers)]
        self._next_worker = 0
        for worker in self._workers:
            self.env.process(
                self._worker_loop(worker), name=f"{self.name}-worker{worker.index}"
            )

    def _on_attach(self, connection: Connection) -> None:
        # The boss (reactor) thread only assigns new connections to
        # workers; it plays no role in steady-state request processing,
        # so its cost is not modelled.
        worker = self._workers[self._next_worker]
        self._next_worker = (self._next_worker + 1) % len(self._workers)
        worker.selector.register(connection, EVENT_READ)

    # ------------------------------------------------------------------
    def _worker_loop(self, worker: NettyWorker):
        calib = self.calibration
        thread = worker.thread
        while True:
            ready = yield worker.selector.poll()
            yield thread.run_split(
                calib.syscall_user_cost,
                calib.poll_cost + calib.poll_cost_per_event * len(ready),
            )
            for connection, mask in ready:
                try:
                    if mask & EVENT_WRITE and connection in worker.pending:
                        yield from self._continue_write(worker, connection)
                    if mask & EVENT_READ and connection not in worker.pending:
                        # HTTP requests on a connection are served in
                        # order; while a response transfer is pending the
                        # next read waits (level-triggered readiness
                        # re-delivers it).
                        yield from self._handle_readable(worker, connection)
                except ConnectionClosedError:
                    # Client disconnected mid-flow: account the abort, drop
                    # any parked write context; the selector forgets closed
                    # fds lazily.
                    self._abort_connection(connection)
                    worker.pending.pop(connection, None)
                    worker.selector.unregister(connection)

    def _handle_readable(self, worker: NettyWorker, connection: Connection):
        while connection.readable and connection not in worker.pending:
            request = yield from self._read_request(worker.thread, connection)
            if request is None:
                break
            # Handler pipeline traversal (inbound chain).
            yield worker.thread.run(self.calibration.pipeline_cost)
            response_size = yield from self._service(worker.thread, request)
            transfer = connection.open_transfer(response_size, request)
            state = PendingWrite(request, response_size, transfer)
            worker.pending[connection] = state
            yield from self._write_rounds(worker, connection, state)

    def _continue_write(self, worker: NettyWorker, connection: Connection):
        state = worker.pending[connection]
        yield from self._write_rounds(worker, connection, state)

    # ------------------------------------------------------------------
    def _write_rounds(self, worker: NettyWorker, connection: Connection, state: PendingWrite):
        """Figure 8: bounded write loop with jump-out and resume."""
        calib = self.calibration
        thread = worker.thread
        spins = 0
        while state.remaining > 0:
            written = connection.try_write(state.remaining, state.request)
            yield self._charge_write(thread, written)
            # writeSpin counter maintenance + progress tracking.
            yield thread.run(calib.netty_write_bookkeeping)
            state.remaining -= written
            spins += 1
            if state.remaining == 0:
                break
            if written == 0 or spins >= self.spin_threshold:
                # Jump out: save context, watch for writability, and go
                # serve other connections.
                self.stats.spin_jumpouts += 1
                worker.selector.register(connection, EVENT_READ | EVENT_WRITE)
                return
        # Response fully handed to the kernel.
        del worker.pending[connection]
        worker.selector.register(connection, EVENT_READ)
        self.stats.responses_written += 1
        self._finish(state.request)
