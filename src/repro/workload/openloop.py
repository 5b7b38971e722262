"""Open-loop (Poisson arrival) workload generation.

The paper controls concurrency with closed-loop JMeter threads; an
open-loop generator is the natural extension for studying the same servers
under *rate*-controlled load (where saturation shows up as unbounded queue
growth rather than a throughput plateau).  Used by the capacity-probe
utilities and available for user experiments.

Each arrival is issued on a connection drawn from a fixed pool, skipping
connections that still have a response outstanding (HTTP/1.1 ordering —
arrivals that find every connection busy are counted as ``shed``).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import WorkloadError
from repro.metrics.collector import RunRecorder
from repro.net.tcp import Connection
from repro.sim.core import Environment
from repro.workload.mixes import RequestMix

__all__ = ["OpenLoopGenerator"]


class OpenLoopGenerator:
    """Poisson arrivals at ``rate`` requests/second over a connection pool.

    Fire and wait: each issued request holds its connection until the
    response completes, with no timers.
    """

    def __init__(
        self,
        env: Environment,
        connections: List[Connection],
        mix: RequestMix,
        rate: float,
        rng: random.Random,
        recorder: Optional[RunRecorder] = None,
        name: str = "openloop",
    ):
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {rate!r}")
        if not connections:
            raise WorkloadError("open-loop generator needs at least one connection")
        self.env = env
        self.connections = list(connections)
        self.mix = mix
        self.rate = rate
        self.rng = rng
        self.recorder = recorder
        self.name = name
        #: Arrivals that found every connection busy.
        self.shed = 0
        #: Requests issued.
        self.issued = 0
        self._busy = set()
        self._next_index = 0
        self.process = env.process(self._run(), name=name)

    # ------------------------------------------------------------------
    def _pick_connection(self) -> Optional[Connection]:
        """Next idle connection in round-robin order (None if all busy)."""
        n = len(self.connections)
        for offset in range(n):
            connection = self.connections[(self._next_index + offset) % n]
            if connection not in self._busy and not connection.closed:
                self._next_index = (self._next_index + offset + 1) % n
                return connection
        return None

    def _run(self):
        while True:
            yield self.env.timeout(self.rng.expovariate(self.rate))
            connection = self._pick_connection()
            if connection is None:
                self.shed += 1
                continue
            request = self.mix.sample(self.env, self.rng)
            self._busy.add(connection)
            self.issued += 1
            request.completed.callbacks.append(
                lambda _ev, c=connection, r=request: self._on_complete(c, r)
            )
            connection.send_request(request)

    def _on_complete(self, connection: Connection, request) -> None:
        self._busy.discard(connection)
        if self.recorder is not None:
            self.recorder.record(request)

    @property
    def in_flight(self) -> int:
        """Connections with an outstanding request."""
        return len(self._busy)

    def __repr__(self) -> str:
        return (
            f"<OpenLoopGenerator rate={self.rate:g}/s issued={self.issued} "
            f"shed={self.shed}>"
        )
