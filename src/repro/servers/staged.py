"""SEDA-style staged event-driven server (paper Section II-A).

The paper's taxonomy of asynchronous designs includes the *staged* design
"adopted by SEDA and WatPipe": request processing is decomposed into a
pipeline of stages separated by event queues, each stage with its own
worker thread pool, "with the aim of modular design and fine-grained
management of worker threads".

:class:`StagedServer` implements that design with the classic three-stage
split:

1. **read stage** — reads + parses the request;
2. **compute stage** — runs the application logic;
3. **write stage** — sends the response (naive spinning write, like the
   other simplified servers).

Every stage boundary is a queue handoff to a different thread pool, so a
request incurs at least 2 switches per crossed boundary — the staged
design generalises sTomcat-Async's cost structure (this server is the
paper's "one-event-one-handler" philosophy taken to its modular extreme).
It is included as an extension for the ablation on event-processing-flow
granularity.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConnectionClosedError
from repro.net.selector import EVENT_READ, Selector
from repro.net.tcp import Connection
from repro.servers.base import BaseServer, naive_spin_write
from repro.sim.resources import Store

__all__ = ["StagedServer"]


class _Stage:
    """One pipeline stage: a queue plus a dedicated worker pool."""

    def __init__(self, server: "StagedServer", name: str, workers: int):
        self.server = server
        self.name = name
        self.queue: Store = Store(server.env)
        self.threads = [
            server.cpu.thread(f"{server.name}-{name}{i}") for i in range(workers)
        ]

    def start(self, handler) -> None:
        for index, thread in enumerate(self.threads):
            self.server.env.process(
                self._loop(thread, handler),
                name=f"{self.server.name}-{self.name}{index}",
            )

    def _loop(self, thread, handler):
        while True:
            item = yield self.queue.get()
            try:
                yield from handler(thread, item)
            except ConnectionClosedError:
                # A mid-stage disconnect must not kill the stage worker —
                # account the abort and keep draining the queue.  No local
                # keeps the connection while the worker waits.
                self.server._abort_connection(
                    item if isinstance(item, Connection) else item[0]
                )


class StagedServer(BaseServer):
    """Three-stage SEDA pipeline: read → compute → write."""

    architecture = "Staged-SEDA"
    passive_attach = True

    def __init__(self, *args, stage_workers: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        if stage_workers < 1:
            raise ValueError(f"stage_workers must be >= 1, got {stage_workers!r}")
        self.stage_workers = stage_workers
        self.selector = Selector(self.env)
        self.reactor_thread = self.cpu.thread(f"{self.name}-reactor")
        self.read_stage = _Stage(self, "read", stage_workers)
        self.compute_stage = _Stage(self, "compute", stage_workers)
        self.write_stage = _Stage(self, "write", stage_workers)
        self.read_stage.start(self._read_handler)
        self.compute_stage.start(self._compute_handler)
        self.write_stage.start(self._write_handler)
        self.env.process(self._reactor_loop(), name=f"{self.name}-reactor")
        #: Stage-boundary handoffs performed (for the flow ablation).
        self.stage_handoffs = 0

    def _on_attach(self, connection: Connection) -> None:
        self.selector.register(connection, EVENT_READ)

    # ------------------------------------------------------------------
    def _reactor_loop(self):
        calib = self.calibration
        thread = self.reactor_thread
        while True:
            ready = yield self.selector.poll()
            yield thread.run_split(
                calib.syscall_user_cost,
                calib.poll_cost + calib.poll_cost_per_event * len(ready),
            )
            for connection, _mask in ready:
                self.selector.unregister(connection)
                yield thread.run(calib.dispatch_cost)
                self.stage_handoffs += 1
                yield self.read_stage.queue.put(connection)

    def _read_handler(self, thread, connection: Connection):
        request = yield from self._read_request(thread, connection)
        if request is None:
            self.selector.register(connection, EVENT_READ)
            return
        yield thread.run(self.calibration.dispatch_cost)
        self.stage_handoffs += 1
        yield self.compute_stage.queue.put((connection, request))

    def _compute_handler(self, thread, item):
        connection, request = item
        response_size = yield from self._service(thread, request)
        yield thread.run(self.calibration.dispatch_cost)
        self.stage_handoffs += 1
        yield self.write_stage.queue.put((connection, request, response_size))

    def _write_handler(self, thread, item):
        connection, request, response_size = item
        yield from naive_spin_write(self, thread, connection, request, response_size)
        self._finish(request)
        self.selector.register(connection, EVENT_READ)
