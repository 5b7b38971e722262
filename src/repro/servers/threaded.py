"""Thread-based synchronous server (the paper's sTomcat-Sync / Tomcat 7).

One dedicated worker thread per connection; the thread performs the whole
request lifecycle synchronously — blocking read, compute, blocking write —
so a request incurs **no user-space context switches** (Table II).  The
blocking write is a single syscall: while ACK rounds drain the send buffer
the thread sleeps in the kernel and *other* worker threads run, which makes
this architecture insensitive to network latency (Figure 7) at the price of
one live thread per connection — the thread-scheduling and memory-footprint
overhead that costs it the high-concurrency end of Figure 2.
"""

from __future__ import annotations

from repro.errors import ConnectionClosedError
from repro.net.tcp import Connection
from repro.servers.base import BaseServer

__all__ = ["ThreadedServer"]


class ThreadedServer(BaseServer):
    """Thread-per-connection synchronous architecture."""

    architecture = "sTomcat-Sync"

    def _on_attach(self, connection: Connection) -> None:
        self.env.process(
            self._connection_loop(connection),
            name=f"{self.name}-conn{connection.id}",
        )

    # ------------------------------------------------------------------
    def _connection_loop(self, connection: Connection):
        """Dedicated-thread lifecycle for one connection (the paper's
        configuration: enough threads for every connection)."""
        thread = self.cpu.thread(f"{self.name}-worker-c{connection.id}")
        try:
            while not connection.closed:
                if not connection.readable:
                    yield connection.wait_readable()
                    if connection.closed:
                        break
                    # Scheduler wake-up of the blocked worker thread.
                    yield thread.run(self.calibration.thread_wake_cost, "system")
                request = yield from self._read_request(thread, connection)
                if request is None:
                    continue
                response_size = yield from self._service(thread, request)
                connection.open_transfer(response_size, request)
                yield from connection.blocking_write(thread, response_size, request)
                self.stats.responses_written += 1
                self._finish(request)
        except ConnectionClosedError:
            # Client disconnected mid-request: account the abort and retire.
            self._abort_connection(connection)
        finally:
            thread.close()
