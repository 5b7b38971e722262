"""Aggregate closed-loop populations: the cohort engine.

A :class:`Cohort` represents N homogeneous closed-loop clients as
*counting state* — how many members are unstarted, thinking, queued,
in flight, materialized, lost — plus a bounded bundle of live
connections, instead of N ``ClosedLoopClient`` + ``Connection`` objects.
Heap and event count scale with concurrent *activity* (the connection
bundle, one superposed arrival timer, the handful of materialized
episodes), not with N.

Aggregate arrival model
-----------------------
Members alternate between *thinking* and *requesting*.  The cohort never
tracks which anonymous member is which; it only schedules the next
arrival out of the superposition of all members' think clocks:

* ``NoThink`` — completions relaunch immediately; no timer at all.
* ``ExponentialThink`` — the superposition of k memoryless clocks of
  mean ``m`` is a Poisson process of rate ``k/m``; one timer, resampled
  whenever k changes.  Exact, and O(1) memory for any population size.
* any other :class:`~repro.workload.client.ThinkTime` (``FixedThink``
  included) — per-entry sample into a float min-heap plus one timer
  (O(thinking) floats).  A constant think time pushes ``now + T``, so
  its entries pop in completion order.

Lazy materialization
--------------------
The aggregate path only models the happy flow (send → response → think).
Anything that needs real per-client machinery materializes an individual
:class:`~repro.workload.client.ClosedLoopClient` for that member index —
seeded from the *same* per-index stream the classic builder would use —
and folds its counters back into the aggregate when its episode ends:

* a response timeout or mid-flight connection loss (retry/reconnect
  decisions live in the client),
* a server rejection when the retry policy retries rejections,
* an injected client-abort draw (fault windows).

Modeling trade-offs (documented, deliberate): the server sees at most
``max_inflight`` cohort connections rather than one per member, so
connection-count effects beyond the bundle (e.g. thread-per-connection
footprints) are not reproduced; an episode replays the *next* logical
request through the real client rather than resuming the exact failed
attempt.  Lazy cohorts are therefore deterministic (serial == parallel,
run-to-run) but intentionally not digest-compatible with the classic
path — ``materialize="always"`` is, bit for bit.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.calibration import Calibration
from repro.errors import ConnectionClosedError, WorkloadError
from repro.metrics.collector import RunRecorder
from repro.net.link import Link
from repro.net.tcp import Connection
from repro.servers.base import BaseServer
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams
from repro.workload.client import (
    ClientStats,
    ClosedLoopClient,
    ExponentialThink,
    NoThink,
    RetryPolicy,
    ThinkTime,
)
from repro.workload.mixes import RequestMix

from repro.cohort.config import EPISODE_REQUESTS, RAMP_SLICES, CohortConfig

__all__ = ["Cohort", "CohortStats"]


class CohortStats:
    """Aggregate counters for one cohort (exported as ``cohort_stats``)."""

    __slots__ = (
        "entered",
        "launches",
        "completed",
        "rejected",
        "timeouts",
        "resets",
        "lost",
        "refused",
        "episodes",
        "folded",
        "queued_peak",
        "inflight_peak",
        "connections_opened",
        "materialized_peak",
    )

    def __init__(self) -> None:
        for slot in self.__slots__:
            setattr(self, slot, 0)


# ----------------------------------------------------------------------
# Superposed arrival engines (one per think-time family)
# ----------------------------------------------------------------------
class _ImmediateArrivals:
    """Zero think time: an entering member is ready right away."""

    __slots__ = ("ready",)

    def __init__(self, ready: Callable[[], None]):
        self.ready = ready

    @property
    def count(self) -> int:
        return 0

    def enter(self, n: int = 1) -> None:
        for _ in range(n):
            self.ready()


class _ExponentialArrivals:
    """Superposition of k exponential clocks == Poisson(k/mean).

    One pending timer for the whole pool; memorylessness makes the
    cancel-and-resample on every membership change statistically exact.
    """

    __slots__ = ("env", "rng", "mean", "count", "timer", "ready")

    def __init__(self, env: Environment, rng, mean: float, ready: Callable[[], None]):
        self.env = env
        self.rng = rng
        self.mean = mean
        self.count = 0
        self.timer = None
        self.ready = ready

    def enter(self, n: int = 1) -> None:
        self.count += n
        self._rearm()

    def _rearm(self) -> None:
        if self.timer is not None:
            self.env._cancel(self.timer)
            self.timer = None
        if self.count > 0:
            delay = self.rng.expovariate(self.count / self.mean)
            timer = self.env.timeout(delay)
            timer.callbacks.append(self._fired)
            self.timer = timer

    def _fired(self, _event) -> None:
        self.timer = None
        self.count -= 1
        self._rearm()
        self.ready()


class _SampledArrivals:
    """Any other think distribution: sampled fire times in a float heap."""

    __slots__ = ("env", "rng", "think", "times", "timer", "armed_at", "ready")

    def __init__(self, env: Environment, rng, think: ThinkTime, ready: Callable[[], None]):
        self.env = env
        self.rng = rng
        self.think = think
        self.times: List[float] = []
        self.timer = None
        self.armed_at = 0.0
        self.ready = ready

    @property
    def count(self) -> int:
        return len(self.times)

    def enter(self, n: int = 1) -> None:
        now = self.env.now
        for _ in range(n):
            heappush(self.times, now + self.think.sample(self.rng))
        self._arm()

    def _arm(self) -> None:
        if not self.times:
            return
        head = self.times[0]
        if self.timer is not None:
            if self.armed_at <= head:
                return
            self.env._cancel(self.timer)
            self.timer = None
        timer = self.env.schedule_at(head)
        timer.callbacks.append(self._fired)
        self.timer = timer
        self.armed_at = head

    def _fired(self, _event) -> None:
        self.timer = None
        heappop(self.times)
        self._arm()
        self.ready()


def _make_arrivals(env: Environment, think: ThinkTime, rng,
                   ready: Callable[[], None]):
    if isinstance(think, NoThink):
        return _ImmediateArrivals(ready)
    if isinstance(think, ExponentialThink):
        return _ExponentialArrivals(env, rng, think.mean, ready)
    return _SampledArrivals(env, rng, think, ready)


class _Flight:
    """One aggregate request in flight on one bundle connection."""

    __slots__ = ("request", "conn", "timer", "done")

    def __init__(self, request, conn):
        self.request = request
        self.conn = conn
        self.timer = None
        self.done = False


class Cohort:
    """N homogeneous closed-loop clients as one aggregate process."""

    def __init__(
        self,
        env: Environment,
        server: BaseServer,
        size: int,
        mix: RequestMix,
        link: Link,
        calibration: Calibration,
        seeds: SeedStreams,
        config: CohortConfig,
        recorder: Optional[RunRecorder] = None,
        think: Optional[ThinkTime] = None,
        options=None,
        ramp_up: float = 0.0,
        faults=None,
        retry: Optional[RetryPolicy] = None,
        budget=None,
        deadline: Optional[float] = None,
        name: str = "cohort",
        connect=None,
    ):
        if size < 1:
            raise WorkloadError(f"cohort size must be >= 1, got {size!r}")
        self.env = env
        self.server = server
        #: Optional connection factory override (``connect(index)``): the
        #: sharded kernel supplies one returning a cut-edge stub when the
        #: server lives on another shard (``server`` may then be ``None``).
        self._connect_override = connect
        self.size = size
        self.link = link
        self.calibration = calibration
        self.seeds = seeds
        self.config = config.validate()
        self.recorder = recorder
        self.think = think or NoThink()
        self.options = options
        self.faults = faults
        self.budget = budget
        self.deadline = deadline
        self.name = name
        self.stats = CohortStats()
        self._base_mix = mix
        self._mix = mix.clone_for_client()
        fork = seeds.fork("cohort")
        self._mix_rng = fork.stream("mix")
        self._episode_rng = fork.stream("episodes")
        self._arrivals = _make_arrivals(env, self.think, fork.stream("think"),
                                        self._member_ready)
        #: The client's own retry knob (episodes pass it through verbatim).
        self._retry = retry
        #: Effective watchdog policy: resilient classic clients fall back
        #: to the default RetryPolicy when faults run without one.
        self._policy = retry if retry is not None else (
            RetryPolicy() if faults is not None else None
        )
        self._abort_prob = (
            faults.plan.client_abort_prob if faults is not None else 0.0
        )
        # Aggregate member accounting (anonymous counts, not objects).
        self._unstarted = size
        self._queued = 0
        self._inflight = 0
        self._lost = 0
        self._materialized: Dict[int, ClosedLoopClient] = {}
        self._folded = ClientStats()
        self._episode_done = 0
        self._next_index = 0
        # Bounded connection bundle.
        self._idle: List[Connection] = []
        self._conns = 0
        self._grow_blocked = False
        self._flights: Dict[int, _Flight] = {}
        # Lazily-chained ramp slices: O(RAMP_SLICES) start events total.
        self._t0 = env.now
        self._ramp = ramp_up if ramp_up > 0 else 0.0
        self._slices = min(RAMP_SLICES, size) if self._ramp > 0 else 1
        self._slice_i = 0
        if self.config.eager_connections:
            # Provisioned bundle (JMeter-style pre-opened sockets): attach
            # the whole cap before the clock starts, so demand growth —
            # and any mid-run server-side attach work — never happens.
            for _ in range(min(self.config.max_inflight, size)):
                conn = self._open_conn()
                if conn is None:
                    break
                self._idle.append(conn)
        self._schedule_slice()

    # ------------------------------------------------------------------
    # Member accounting
    # ------------------------------------------------------------------
    @property
    def thinking(self) -> int:
        return self._arrivals.count

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def unstarted(self) -> int:
        return self._unstarted

    @property
    def lost(self) -> int:
        return self._lost

    @property
    def materialized(self) -> Dict[int, ClosedLoopClient]:
        return self._materialized

    def member_accounting(self) -> Dict[str, int]:
        """Where every member is right now; values sum to ``size``."""
        return {
            "unstarted": self._unstarted,
            "thinking": self.thinking,
            "queued": self._queued,
            "inflight": self._inflight,
            "materialized": len(self._materialized),
            "lost": self._lost,
        }

    # ------------------------------------------------------------------
    # Ramp-up: lazily-chained uniform slices
    # ------------------------------------------------------------------
    def _schedule_slice(self) -> None:
        k = self._slice_i
        if k >= self._slices:
            return
        at = self._t0 + (self._ramp * k / self._slices)
        timer = self.env.schedule_at(at) if at > self.env.now else self.env.timeout(0.0)
        timer.callbacks.append(self._slice_fired)

    def _slice_fired(self, _event) -> None:
        k = self._slice_i
        self._slice_i = k + 1
        batch = (self.size * (k + 1)) // self._slices - (self.size * k) // self._slices
        self._schedule_slice()
        self._enter(min(batch, self._unstarted))

    def _enter(self, n: int) -> None:
        if n <= 0:
            return
        self._unstarted -= n
        self.stats.entered += n
        if self.config.first_think:
            self._arrivals.enter(n)
        else:
            for _ in range(n):
                self._member_ready()

    # ------------------------------------------------------------------
    # The aggregate request loop
    # ------------------------------------------------------------------
    def _member_ready(self) -> None:
        """An anonymous member wants to issue its next logical request."""
        if self._abort_prob > 0.0 and self._episode_rng.random() < self._abort_prob:
            # This logical request would exercise the client-abort
            # machinery the aggregate cannot model; run it for real.
            self._begin_episode()
            return
        conn = self._acquire_conn()
        if conn is None:
            if self._conns == 0 and self._grow_blocked:
                # The server refuses every connection: the classic client
                # dies the same way (its loop exits on a closed socket).
                self._lost += 1
                self.stats.lost += 1
                return
            self._queued += 1
            if self._queued > self.stats.queued_peak:
                self.stats.queued_peak = self._queued
            return
        self._send_on(conn)

    def _acquire_conn(self) -> Optional[Connection]:
        idle = self._idle
        while idle:
            conn = idle.pop()
            if not conn.closed:
                return conn
            # Closed while parked; its on_close already adjusted counts.
        if self._conns < self.config.max_inflight and not self._grow_blocked:
            return self._open_conn()
        return None

    def _open_conn(self) -> Optional[Connection]:
        """Open and attach one new bundle connection (None when refused)."""
        if self._connect_override is not None:
            conn = self._connect_override(self._conns)
        else:
            faults = None
            if self.faults is not None:
                faults = self.faults.for_connection(self._conns)
            conn = Connection(
                self.env,
                self.link,
                self.calibration,
                send_buffer_size=self.options.send_buffer_size,
                autotune=self.options.autotune,
                faults=faults,
            )
            self.server.attach(conn)
        if conn.closed:
            self.stats.refused += 1
            self._grow_blocked = True
            return None
        self._conns += 1
        self.stats.connections_opened += 1
        conn.on_close.callbacks.append(
            lambda _event, c=conn: self._conn_closed(c)
        )
        return conn

    def _send_on(self, conn: Connection) -> None:
        request = self._mix.sample(self.env, self._mix_rng)
        if self.deadline is not None:
            request.deadline = self.env.now + self.deadline
        if self.budget is not None:
            self.budget.on_request()
        flight = _Flight(request, conn)
        self._flights[conn.id] = flight
        self._inflight += 1
        self.stats.launches += 1
        if self._inflight > self.stats.inflight_peak:
            self.stats.inflight_peak = self._inflight
        try:
            conn.send_request(request)
        except ConnectionClosedError:
            # Closed between acquire and send (injected reset races).
            self._flights.pop(conn.id, None)
            flight.done = True
            self._inflight -= 1
            self._flight_lost()
            return
        if self._policy is not None:
            timeout = self._policy.timeout
            if self.deadline is not None:
                timeout = min(timeout, self.deadline)
            timer = self.env.timeout(timeout)
            timer.callbacks.append(lambda _event, f=flight: self._flight_timeout(f))
            flight.timer = timer
        request.completed.callbacks.append(
            lambda _event, f=flight: self._flight_completed(f)
        )

    def _flight_completed(self, flight: _Flight) -> None:
        if flight.done:
            return
        flight.done = True
        if flight.timer is not None:
            self.env._cancel(flight.timer)
            flight.timer = None
        self._flights.pop(flight.conn.id, None)
        self._inflight -= 1
        request = flight.request
        if self.recorder is not None:
            self.recorder.record(request)
        if request.metadata.get("rejected"):
            self.stats.rejected += 1
            self._release_conn(flight.conn)
            if self._policy is not None:
                # Retrying a shed request takes real backoff/budget
                # decisions: materialize the member.
                self._begin_episode()
                return
        else:
            self.stats.completed += 1
            self._release_conn(flight.conn)
        self._arrivals.enter(1)

    def _flight_timeout(self, flight: _Flight) -> None:
        if flight.done:
            return
        flight.done = True
        flight.timer = None
        self._flights.pop(flight.conn.id, None)
        self._inflight -= 1
        self.stats.timeouts += 1
        # Classic rule: a timed-out connection is no longer trustworthy.
        flight.conn.close()
        self._begin_episode()

    def _conn_closed(self, conn: Connection) -> None:
        self._conns -= 1
        if self._grow_blocked and self._conns == 0:
            # Allow one fresh growth attempt after a total wipe-out.
            self._grow_blocked = False
        flight = self._flights.pop(conn.id, None)
        if flight is None or flight.done:
            self._service_queue()
            return
        flight.done = True
        if flight.timer is not None:
            self.env._cancel(flight.timer)
            flight.timer = None
        self._inflight -= 1
        self.stats.resets += 1
        self._flight_lost()
        self._service_queue()

    def _flight_lost(self) -> None:
        """A member's in-flight request died with its connection."""
        if self._policy is not None:
            self._begin_episode()
        else:
            self._lost += 1
            self.stats.lost += 1

    def _release_conn(self, conn: Connection) -> None:
        if not conn.closed:
            self._idle.append(conn)
        self._service_queue()

    def _service_queue(self) -> None:
        while self._queued > 0:
            conn = self._acquire_conn()
            if conn is None:
                return
            self._queued -= 1
            self._send_on(conn)

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------
    def _assign_index(self) -> int:
        size = self.size
        for _ in range(size):
            index = self._next_index
            self._next_index = (index + 1) % size
            if index not in self._materialized:
                return index
        raise WorkloadError(f"cohort {self.name!r}: every member is materialized")

    def _episode_connect(self, index: int) -> Connection:
        if self._connect_override is not None:
            # The shard partition validator excludes every configuration
            # that can materialize an episode (faults, retry, timeouts);
            # reaching here under an override is a partitioning bug.
            from repro.errors import SimulationError

            raise SimulationError(
                "cohort episode materialization is not supported on a "
                "sharded cut edge"
            )
        faults = None
        if self.faults is not None:
            faults = self.faults.for_connection(index)
        conn = Connection(
            self.env,
            self.link,
            self.calibration,
            send_buffer_size=self.options.send_buffer_size,
            autotune=self.options.autotune,
            faults=faults,
        )
        self.server.attach(conn)
        return conn

    def _begin_episode(self) -> None:
        """Materialize the next free member index as a real client."""
        index = self._assign_index()
        self.stats.episodes += 1
        conn = self._episode_connect(index)
        client = ClosedLoopClient(
            self.env,
            conn,
            self._base_mix.clone_for_client(),
            rng=self.seeds.stream("client", index),
            recorder=self.recorder,
            think=self.think,
            name=f"{self.name}-m{index}",
            retry=self._retry,
            reconnect=lambda i=index: self._episode_connect(i),
            faults=self.faults.for_client(index) if self.faults is not None else None,
            budget=self.budget,
            deadline=self.deadline,
            stop_after=EPISODE_REQUESTS,
        )
        self._materialized[index] = client
        if len(self._materialized) > self.stats.materialized_peak:
            self.stats.materialized_peak = len(self._materialized)
        client.process.callbacks.append(
            lambda _event, i=index, c=client: self._fold_back(i, c)
        )

    def _fold_back(self, index: int, client: ClosedLoopClient) -> None:
        self._materialized.pop(index, None)
        self.stats.folded += 1
        folded = self._folded
        stats = client.stats
        for slot in ClientStats.__slots__:
            setattr(folded, slot, getattr(folded, slot) + getattr(stats, slot))
        self._episode_done += client.requests_completed
        conn = client.connection
        if conn is not None and not conn.closed:
            conn.close()
        self._arrivals.enter(1)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def client_stat_totals(self) -> Dict[str, float]:
        """ClientStats-shaped totals: folded + live episodes + aggregate."""
        totals = {slot: 0.0 for slot in ClientStats.__slots__}
        sources = [self._folded] + [c.stats for c in self._materialized.values()]
        for stats in sources:
            for slot in ClientStats.__slots__:
                totals[slot] += getattr(stats, slot)
        # Aggregate flights map onto the same counters.
        totals["attempts"] += self.stats.launches
        totals["successes"] += self.stats.completed
        totals["timeouts"] += self.stats.timeouts
        totals["rejected"] += self.stats.rejected
        return totals

    def cohort_stats(self) -> Dict[str, float]:
        """Every aggregate counter as a flat ``str -> float`` mapping."""
        out = {slot: float(getattr(self.stats, slot)) for slot in CohortStats.__slots__}
        out["size"] = float(self.size)
        out["episode_completed"] = float(self._episode_done)
        out["materialized_now"] = float(len(self._materialized))
        out["lost_final"] = float(self._lost)
        return out

    def __repr__(self) -> str:
        return (
            f"<Cohort {self.name!r} size={self.size} "
            f"inflight={self._inflight} thinking={self.thinking} "
            f"materialized={len(self._materialized)}>"
        )
