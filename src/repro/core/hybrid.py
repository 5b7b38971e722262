"""HybridNetty — the paper's contribution (Section V-B).

The hybrid server combines the strengths of two asynchronous designs:

* For **light** requests (responses that never spin), the most efficient
  execution path is SingleT-Async's direct one: no handler-pipeline
  traversal, no per-write bookkeeping — just read, compute, one write.
* For **heavy** requests (responses that trigger the write-spin), the
  Netty path wins: bounded write loop, jump-out, resume on writability, so
  the worker keeps serving other connections during the wait-ACK drain.

The server keeps the paper's "map object", a dict from request type to
:class:`PathCategory`.  Per request it looks the type up (a cheap dict
probe + type check, charged as ``hybrid_lookup_cost``) and takes the
recorded path.  Unprofiled types take the safe Netty path, whose
``writeSpin`` counter *is* the profiling signal — that is the warm-up
phase.  Every completed response sets its type's entry from its own write
counters, so a type observed in the wrong category (e.g. a formerly small
dynamic response grew past the send buffer) moves at once; a light-path
request that unexpectedly spins falls back to the Netty machinery
mid-response, so a misclassification costs a little efficiency, never
correctness.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.servers.netty import NettyServer, NettyWorker, PendingWrite

__all__ = ["HybridServer", "PathCategory"]


class PathCategory(enum.Enum):
    """Which execution path a request type should take."""

    #: Small responses that never spin: direct, minimal-overhead path.
    LIGHT = "light"
    #: Responses that trigger write-spin: Netty-style bounded-write path.
    HEAVY = "heavy"


class HybridServer(NettyServer):
    """HybridNetty: runtime path selection between direct and Netty paths."""

    architecture = "HybridNetty"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: The map object: request type → path, absent until a response
        #: of the type completes.
        self.path_map: Dict[str, PathCategory] = {}
        #: Requests served via the light (direct) path.
        self.light_path_requests = 0
        #: Requests served via the heavy (Netty) path.
        self.heavy_path_requests = 0
        #: Light-path requests that spun and fell back to the Netty path.
        self.light_path_fallbacks = 0

    # ------------------------------------------------------------------
    def _handle_readable(self, worker: NettyWorker, connection: Connection):
        calib = self.calibration
        path_map = self.path_map
        while connection.readable and connection not in worker.pending:
            request = yield from self._read_request(worker.thread, connection)
            if request is None:
                break
            # Path lookup: map probe + request type check.
            yield worker.thread.run(calib.hybrid_lookup_cost)
            if path_map.get(request.kind) is PathCategory.LIGHT:
                yield from self._light_path(worker, connection, request)
            else:
                # HEAVY or unknown (warm-up): the Netty path profiles it.
                yield from self._heavy_path(worker, connection, request)

    # ------------------------------------------------------------------
    # Light path: SingleT-Async-style direct execution
    # ------------------------------------------------------------------
    def _light_path(self, worker: NettyWorker, connection: Connection, request: Request):
        self.light_path_requests += 1
        request.metadata["path"] = "light"
        thread = worker.thread
        response_size = yield from self._service(thread, request)
        transfer = connection.open_transfer(response_size, request)
        written = connection.try_write(response_size, request)
        yield self._charge_write(thread, written)
        remaining = response_size - written
        if remaining == 0:
            # The expected case for a light request: exactly one write.
            self.stats.responses_written += 1
            self._finish(request)
            self._observe(request)
            return
        # Unexpected spin: the response did not fit — the map is stale.
        # Finish the transfer through the Netty machinery so the worker
        # does not block on this connection; its completion flips the map.
        self.light_path_fallbacks += 1
        request.metadata["path"] = "light->heavy"
        state = PendingWrite(request, remaining, transfer)
        worker.pending[connection] = state
        yield from self._write_rounds(worker, connection, state)

    # ------------------------------------------------------------------
    # Heavy path: Netty pipeline + bounded write
    # ------------------------------------------------------------------
    def _heavy_path(self, worker: NettyWorker, connection: Connection, request: Request):
        self.heavy_path_requests += 1
        request.metadata["path"] = "heavy"
        thread = worker.thread
        yield thread.run(self.calibration.pipeline_cost)
        response_size = yield from self._service(thread, request)
        transfer = connection.open_transfer(response_size, request)
        state = PendingWrite(request, response_size, transfer)
        worker.pending[connection] = state
        yield from self._write_rounds(worker, connection, state)

    # ------------------------------------------------------------------
    def _write_rounds(self, worker: NettyWorker, connection: Connection, state: PendingWrite):
        """Netty write rounds, plus profiling on completion."""
        yield from super()._write_rounds(worker, connection, state)
        if state.remaining == 0:
            self._observe(state.request)

    def _observe(self, request: Request) -> None:
        """Set the request type's path from the response's write counters:
        more than one write, or a zero write, is the writeSpin signal.
        Moving a type that already had a path counts one reclassification."""
        if request.write_calls > 1 or request.zero_writes > 0:
            observed = PathCategory.HEAVY
        else:
            observed = PathCategory.LIGHT
        before = self.path_map.get(request.kind)
        if before is not observed:
            if before is not None:
                self.stats.reclassifications += 1
            self.path_map[request.kind] = observed
