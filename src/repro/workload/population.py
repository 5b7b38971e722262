"""Builders that wire a client population to a server.

A *population* is N closed-loop clients, each with its own persistent
connection to the server (the paper's JMeter setup).  The builder owns the
repetitive wiring: connection creation with the right socket options,
server attachment, RNG streams, and ramp-up staggering.

Two construction strategies exist:

* the **classic** eager builder — N live clients and connections, bit-
  identical to every historical run (and to ``CohortConfig(materialize=
  "always")``, which routes here);
* the **aggregate** :class:`~repro.cohort.engine.Cohort` engine
  (``CohortConfig(materialize="lazy")``) — counting state plus a bounded
  connection bundle, for populations far beyond what per-object
  simulation can hold.

Either way the built population answers the two questions a run asks
after ``env.run``: ``client_stat_totals()`` and ``cohort_stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.calibration import Calibration
from repro.cohort.config import CohortConfig
from repro.metrics.collector import RunRecorder
from repro.net.link import Link
from repro.net.tcp import Connection
from repro.servers.base import BaseServer
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams
from repro.workload.client import (
    ClientStats,
    ClosedLoopClient,
    NoThink,
    RetryPolicy,
    ThinkTime,
)
from repro.workload.mixes import RequestMix

if TYPE_CHECKING:
    from repro.cohort.engine import Cohort

__all__ = [
    "ConnectionOptions",
    "Population",
    "build_population",
]


@dataclass(frozen=True)
class ConnectionOptions:
    """Server-side socket options applied to every client connection."""

    #: Socket send buffer size in bytes (``None`` → calibration default).
    send_buffer_size: Optional[int] = None
    #: Enable kernel send-buffer autotuning (Section IV-A / Figure 6).
    autotune: bool = False


@dataclass
class Population:
    """A built classic population: one client per member."""

    clients: List[ClosedLoopClient]

    @property
    def connections(self) -> List[Connection]:
        """Each client's current connection.

        Read from the clients, so a connection a client replaced after a
        reset is not kept alive here.
        """
        return [client.connection for client in self.clients]

    def client_stat_totals(self) -> Dict[str, float]:
        """Summed :class:`ClientStats` counters in one pass over clients."""
        totals = {slot: 0.0 for slot in ClientStats.__slots__}
        for client in self.clients:
            stats = client.stats
            for slot in ClientStats.__slots__:
                totals[slot] += getattr(stats, slot)
        return totals

    def cohort_stats(self) -> Dict[str, float]:
        """Empty for classic populations (duck-typing the cohort path)."""
        return {}


def build_population(
    env: Environment,
    server: BaseServer,
    size: int,
    mix: RequestMix,
    link: Link,
    calibration: Calibration,
    seeds: SeedStreams,
    recorder: Optional[RunRecorder] = None,
    think: Optional[ThinkTime] = None,
    options: ConnectionOptions = ConnectionOptions(),
    ramp_up: float = 0.0,
    faults=None,
    retry: Optional[RetryPolicy] = None,
    budget=None,
    deadline: Optional[float] = None,
    cohort: Optional[CohortConfig] = None,
    connect=None,
) -> "Union[Population, Cohort]":
    """Create ``size`` closed-loop clients against ``server``.

    Clients are staggered uniformly over ``ramp_up`` virtual seconds so
    the population does not start in lockstep.

    ``faults`` (a :class:`repro.faults.FaultInjector`, duck-typed) attaches
    per-connection and per-client fault hooks keyed by population index —
    never by connection id, so chaos runs stay deterministic across worker
    processes.  ``retry`` arms every client with the given
    :class:`~repro.workload.client.RetryPolicy`; either option also gives
    clients a reconnect factory so a reset connection is replaced (and
    re-attached) instead of silently ending the client.

    ``budget`` (a shared :class:`repro.resilience.RetryBudget`) and
    ``deadline`` (seconds per logical request) arm the cross-tier
    resilience loop: retries must win a budget token, and every request
    carries an absolute deadline that downstream tiers honour.

    ``cohort`` selects the aggregate engine: with ``materialize="lazy"``
    the :class:`~repro.cohort.engine.Cohort` itself is returned instead of
    N live clients; ``materialize="always"`` falls back to the classic
    builder here, so the same scenario runs on either machinery.

    ``connect`` overrides the connection factory (``connect(index)`` →
    connection-like object): the sharded kernel supplies one returning a
    cut-edge stub when the server lives on another shard, in which case
    ``server`` may be ``None``.  Default ``None`` keeps the historical
    in-process wiring.
    """
    if size < 1:
        raise ValueError(f"population size must be >= 1, got {size!r}")
    think = think or NoThink()
    first_think = False
    if cohort is not None:
        cohort.validate()
        first_think = cohort.first_think
        if cohort.lazy_active():
            # Imported here, not at module top: the engine itself imports
            # repro.workload (clients, mixes), so a top-level import would
            # be circular through the package __init__.
            from repro.cohort.engine import Cohort

            return Cohort(
                env,
                server,
                size,
                mix,
                link,
                calibration,
                seeds,
                cohort,
                recorder=recorder,
                think=think,
                options=options,
                ramp_up=ramp_up,
                faults=faults,
                retry=retry,
                budget=budget,
                deadline=deadline,
                connect=connect,
            )

    population = Population(clients=[])

    def _connect(index: int) -> Connection:
        if connect is not None:
            return connect(index)
        connection = Connection(
            env,
            link,
            calibration,
            send_buffer_size=options.send_buffer_size,
            autotune=options.autotune,
            faults=faults.for_connection(index) if faults is not None else None,
        )
        server.attach(connection)
        return connection

    def _spawn(index: int, delay: float) -> None:
        connection = _connect(index)
        rng = seeds.stream("client", index)
        if first_think:
            # Cohort semantics: the member's first request waits out a
            # think pause (a mostly-idle connected population), drawn
            # from the same per-index stream the client then continues.
            delay += think.sample(rng)
        reconnect = None
        if (
            faults is not None
            or retry is not None
            or budget is not None
            or deadline is not None
        ):
            reconnect = lambda i=index: _connect(i)
        client = ClosedLoopClient(
            env,
            connection,
            mix.clone_for_client(),
            rng=rng,
            recorder=recorder,
            think=think,
            initial_delay=delay,
            name=f"client-{index}",
            retry=retry,
            reconnect=reconnect,
            faults=faults.for_client(index) if faults is not None else None,
            budget=budget,
            deadline=deadline,
        )
        population.clients.append(client)

    for index in range(size):
        _spawn(index, (ramp_up * index / size) if ramp_up > 0 else 0.0)
    return population
