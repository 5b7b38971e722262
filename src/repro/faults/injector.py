"""Runtime fault injection driven by seeded RNG streams.

The :class:`FaultInjector` owns all chaos state for one run: it hands out
per-connection and per-client fault hooks (each with its *own* named RNG
stream, so the draw sequence of one connection never perturbs another),
spawns server stall windows, and keeps a bounded, deterministic event trace
that experiments can compare bit-for-bit across ``--jobs`` settings.

Determinism rules baked into this module:

* streams are keyed by **population index** (plus a per-index reconnect
  attempt counter), never by ``Connection.id`` — connection ids are
  process-global and depend on how many connections other runs created;
* a hook draws from its RNG only when the corresponding fault has non-zero
  probability, so an all-zero plan consumes no randomness at all;
* the trace is capped (dropping *new* events past the cap) so pathological
  plans cannot make results unboundedly large — the drop count is part of
  the report and therefore still deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams

__all__ = [
    "FaultEvent",
    "FaultReport",
    "FaultInjector",
    "ConnectionFaults",
    "ClientFaults",
]

#: Maximum number of events kept in the trace (drops are counted).
TRACE_CAP = 10_000


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the deterministic event trace."""

    time: float
    kind: str
    where: str
    detail: str = ""


@dataclass(frozen=True)
class FaultReport:
    """Summary of every fault injected during one run.

    Frozen and value-comparable so determinism tests can assert two runs
    produced the *identical* report, and picklable so it survives the
    sweep-executor result cache.
    """

    segments_lost: int = 0
    segments_corrupted: int = 0
    latency_spikes: int = 0
    connection_resets: int = 0
    client_aborts: int = 0
    stall_windows: int = 0
    events_dropped: int = 0
    #: Crash–restart windows executed (each counts one crash + restart).
    crashes: int = 0
    #: Gray-failure (slow-but-alive) windows executed.
    degrade_windows: int = 0
    events: Tuple[FaultEvent, ...] = ()

    @property
    def total_faults(self) -> int:
        """Total number of injected faults of any kind."""
        return (
            self.segments_lost
            + self.segments_corrupted
            + self.latency_spikes
            + self.connection_resets
            + self.client_aborts
            + self.stall_windows
            + self.crashes
            + self.degrade_windows
        )


class FaultInjector:
    """Owns chaos state for one run and hands out fault hooks.

    ``seeds`` should be a dedicated fork (e.g. ``seeds.fork("faults")``)
    so fault draws never share a stream with workload draws.
    """

    def __init__(self, env: Environment, plan: FaultPlan, seeds: SeedStreams):
        plan.validate()
        self.env = env
        self.plan = plan
        self.seeds = seeds
        self.segments_lost = 0
        self.segments_corrupted = 0
        self.latency_spikes = 0
        self.connection_resets = 0
        self.client_aborts = 0
        self.stall_windows = 0
        self.events_dropped = 0
        self.crashes = 0
        self.degrade_windows = 0
        self._events: List[FaultEvent] = []
        #: Reconnect attempt counter per population index, so a client's
        #: replacement connection gets a fresh (but deterministic) stream.
        self._conn_counts: dict = {}

    # ------------------------------------------------------------------
    def record(self, kind: str, where: str, detail: str = "") -> None:
        """Append one event to the bounded trace."""
        if len(self._events) >= TRACE_CAP:
            self.events_dropped += 1
            return
        self._events.append(FaultEvent(self.env.now, kind, where, detail))

    def for_connection(self, index: int) -> Optional["ConnectionFaults"]:
        """Fault hooks for the next connection of population slot ``index``.

        Returns ``None`` when the plan injects nothing on the TCP data
        path, so the connection runs the pristine fast path.  Each call
        advances the slot's attempt counter: a reconnect gets its own
        stream and its own reset offsets.
        """
        if not self.plan.connection_faults_enabled:
            return None
        attempt = self._conn_counts.get(index, 0)
        self._conn_counts[index] = attempt + 1
        rng = self.seeds.stream("conn", index, attempt)
        return ConnectionFaults(self, self.plan, rng, where=f"conn[{index}.{attempt}]")

    def for_client(self, index: int) -> Optional["ClientFaults"]:
        """Client-abort hooks for population slot ``index`` (or ``None``)."""
        if self.plan.client_abort_prob <= 0:
            return None
        rng = self.seeds.stream("abort", index)
        return ClientFaults(self, self.plan, rng, where=f"client[{index}]")

    def start_stalls(self, cpu) -> None:
        """Spawn one stop-the-world stall process per plan window."""
        for i, window in enumerate(self.plan.server_stalls):
            self.env.process(self._stall(cpu, i, window))

    def _stall(self, cpu, i: int, window):
        yield self.env.timeout(window.start)
        self.stall_windows += 1
        self.record("stall", f"cpu[{i}]", f"{window.duration:g}s")
        # Seize every core: one compute-bound hog thread per core.
        threads = [cpu.thread(f"fault-stall-{i}-{c}") for c in range(cpu.cores)]
        done = [t.run(window.duration, "system") for t in threads]
        for event in done:
            yield event
        for t in threads:
            t.close()

    def start_crashes(self, targets) -> None:
        """Spawn one crash–restart process per plan window.

        ``targets`` is a sequence of crashable instances indexed by
        :attr:`~repro.faults.plan.CrashWindow.instance`; each must expose
        ``crash()``, ``restart()`` and ``cpu`` (the
        :class:`~repro.replica.group.Replica` protocol).  An out-of-range
        instance index is a configuration error, raised before any
        process is spawned.
        """
        for window in self.plan.crash_windows:
            if window.instance >= len(targets):
                raise SimulationError(
                    f"crash window targets instance {window.instance} but "
                    f"only {len(targets)} crash target(s) exist"
                )
        for i, window in enumerate(self.plan.crash_windows):
            self.env.process(
                self._crash(targets[window.instance], i, window),
                name=f"fault-crash-{i}",
            )

    def _crash(self, target, i: int, window):
        """Kill the target at ``start``, restart it cold at ``end``."""
        yield self.env.timeout(window.start)
        self.crashes += 1
        self.record(
            "crash",
            f"instance[{window.instance}]",
            f"down {window.end - window.start:g}s",
        )
        target.crash()
        yield self.env.timeout(window.end - self.env.now)
        self.record("restart", f"instance[{window.instance}]",
                    f"warmup {window.warmup:g}s")
        target.restart()
        if window.warmup > 0:
            # Cold-start penalty: the restarted instance's CPU spends the
            # warm-up window on system work (JIT, page cache, pools), so
            # early post-restart requests queue behind it.
            threads = [
                target.cpu.thread(f"crash-warmup-{i}-{c}")
                for c in range(target.cpu.cores)
            ]
            done = [t.run(window.warmup, "system") for t in threads]
            for event in done:
                yield event
            for t in threads:
                t.close()

    def start_degrades(self, targets) -> None:
        """Spawn one gray-failure process per plan degrade window.

        ``targets`` is the same fault-target list :meth:`start_crashes`
        consumes (instances exposing at least ``cpu``); an out-of-range
        instance index is a configuration error, raised before any
        process is spawned.
        """
        for window in self.plan.degrade_windows:
            if window.instance >= len(targets):
                raise SimulationError(
                    f"degrade window targets instance {window.instance} but "
                    f"only {len(targets)} fault target(s) exist"
                )
        for i, window in enumerate(self.plan.degrade_windows):
            self.env.process(
                self._degrade(targets[window.instance], i, window),
                name=f"fault-degrade-{i}",
            )

    def _degrade(self, target, i: int, window):
        """Slow the target's CPU to ``1 - share`` speed between start and end.

        Deterministic, zero-RNG: the window stretches every burst the
        instance's CPU runs by ``1 / (1 - share)``.  The instance stays up
        the whole time — requests succeed, health probes answer, work just
        takes longer — which is the signature of a gray failure.  A fair-
        share hog thread could not model this: competing request threads
        would dilute it, so the stolen share would shrink exactly when the
        victim is busiest.
        """
        yield self.env.timeout(window.start)
        self.degrade_windows += 1
        self.record(
            "degrade",
            f"instance[{window.instance}]",
            f"share {window.share:g} for {window.end - window.start:g}s",
        )
        cpu = target.cpu
        # Plan validation rejects overlapping windows on one instance, so
        # a plain set/restore cannot clobber another window's factor.
        cpu.slowdown = 1.0 / (1.0 - window.share)
        yield self.env.timeout(window.end - self.env.now)
        cpu.slowdown = 1.0
        self.record("recover", f"instance[{window.instance}]")

    def report(self) -> "FaultReport":
        """Freeze the counters and trace into a :class:`FaultReport`."""
        return FaultReport(
            segments_lost=self.segments_lost,
            segments_corrupted=self.segments_corrupted,
            latency_spikes=self.latency_spikes,
            connection_resets=self.connection_resets,
            client_aborts=self.client_aborts,
            stall_windows=self.stall_windows,
            events_dropped=self.events_dropped,
            crashes=self.crashes,
            degrade_windows=self.degrade_windows,
            events=tuple(self._events),
        )

    def __repr__(self) -> str:
        return f"<FaultInjector plan=({self.plan.describe()}) events={len(self._events)}>"


class ConnectionFaults:
    """Per-connection fault hooks, called from :class:`repro.net.tcp.Connection`.

    The connection calls these from its data path **only when a faults
    object is attached**, so the default path stays untouched.
    """

    __slots__ = ("injector", "plan", "rng", "where", "_requests_seen")

    def __init__(self, injector: FaultInjector, plan: FaultPlan, rng, where: str):
        self.injector = injector
        self.plan = plan
        self.rng = rng
        self.where = where
        self._requests_seen = 0

    def chunk_delay(self, nbytes: int) -> float:
        """Extra delivery delay for one data segment (0.0 = clean)."""
        plan = self.plan
        extra = 0.0
        if plan.segment_loss_prob > 0 and self.rng.random() < plan.segment_loss_prob:
            self.injector.segments_lost += 1
            self.injector.record("loss", self.where, f"{nbytes}B")
            extra += plan.rto
        if plan.segment_corrupt_prob > 0 and self.rng.random() < plan.segment_corrupt_prob:
            self.injector.segments_corrupted += 1
            self.injector.record("corrupt", self.where, f"{nbytes}B")
            extra += plan.rto
        if plan.latency_spike_prob > 0 and self.rng.random() < plan.latency_spike_prob:
            self.injector.latency_spikes += 1
            self.injector.record("spike", self.where, f"{plan.latency_spike:g}s")
            extra += plan.latency_spike
        return extra

    def on_request_arrival(self) -> bool:
        """True when the connection must reset as this request arrives."""
        plan = self.plan
        self._requests_seen += 1
        reset = False
        if (
            plan.reset_after_requests is not None
            and self._requests_seen >= plan.reset_after_requests
        ):
            reset = True
        if plan.reset_request_prob > 0 and self.rng.random() < plan.reset_request_prob:
            reset = True
        if reset:
            self.injector.connection_resets += 1
            self.injector.record("reset", self.where, f"request#{self._requests_seen}")
        return reset


class ClientFaults:
    """Per-client abort hooks, consumed by the closed-loop client."""

    __slots__ = ("injector", "plan", "rng", "where")

    def __init__(self, injector: FaultInjector, plan: FaultPlan, rng, where: str):
        self.injector = injector
        self.plan = plan
        self.rng = rng
        self.where = where

    @property
    def abort_delay(self) -> float:
        """How long an aborting client waits before giving up."""
        return self.plan.client_abort_delay

    def should_abort(self) -> bool:
        """Draw whether the client abandons the request it just issued."""
        return (
            self.plan.client_abort_prob > 0
            and self.rng.random() < self.plan.client_abort_prob
        )

    def record_abort(self) -> None:
        """Count one client abort in the run's report."""
        self.injector.client_aborts += 1
        self.injector.record("abort", self.where)
