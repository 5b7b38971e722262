"""N-copy single-threaded server (paper Section II-A).

"Multiple single-threaded servers (also called N-copy approach) can be
launched together to fully utilize multiple processors."

:class:`NCopyServer` runs N independent :class:`SingleThreadedServer`
copies on one (multi-core) CPU and shares connections among them at accept
time, like SO_REUSEPORT sharding.  Each copy keeps the single-threaded
design's zero-context-switch property; the write-spin problem is *not*
mitigated (each copy's one thread still runs responses to completion) —
which is why the paper's hybrid goes a different way.

The copies share the wrapper's :class:`~repro.servers.base.ServerStats`.
They take no :class:`~repro.servers.base.ServerLimits`: a limit on the
wrapper would shed nothing, so the micro runner refuses one.
"""

from __future__ import annotations

from typing import List

from repro.net.tcp import Connection
from repro.servers.base import BaseServer
from repro.servers.singlet import SingleThreadedServer

__all__ = ["NCopyServer"]


class NCopyServer(BaseServer):
    """N independent single-threaded event loops, round-robin sharded."""

    architecture = "N-copy SingleT-Async"
    passive_attach = True

    def __init__(self, *args, copies: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies!r}")
        self.copies: List[SingleThreadedServer] = [
            SingleThreadedServer(
                self.env,
                self.cpu,
                app=self.app,
                calibration=self.calibration,
                name=f"{self.name}-copy{index}",
            )
            for index in range(copies)
        ]
        # The copies count into the wrapper's one ServerStats, so the
        # server reports every request its copies serve.
        for copy in self.copies:
            copy.stats = self.stats
        self._next_copy = 0

    def _on_attach(self, connection: Connection) -> None:
        # SO_REUSEPORT-style sharding: each accepted connection belongs to
        # exactly one copy for its lifetime.
        copy = self.copies[self._next_copy]
        self._next_copy = (self._next_copy + 1) % len(self.copies)
        copy.attach(connection)
