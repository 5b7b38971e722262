"""Multi-core CPU scheduler with context-switch accounting.

This is the substrate on which every simulated server runs.  Threads submit
CPU *bursts*; the scheduler runs bursts over ``cores`` cores with CFS-like
semantics:

* a thread **keeps its core** across consecutive bursts until it blocks
  (no runnable burst of its own at pick time) or its time slice expires —
  so a synchronous worker thread that reads, computes and writes in
  sequence does it all in one scheduling quantum, like a real kernel
  thread;
* a context switch is charged whenever a core starts running a *different*
  thread, with a cost that grows with the runnable-thread count (cache/TLB
  pollution, after Li et al. 2007);
* user-space work is inflated by a cache-footprint factor that grows with
  the number of live threads — why thread-per-connection servers degrade
  at very high concurrency (the right-hand side of the paper's Figure 2
  crossovers);
* every microsecond is charged to user or system time, and voluntary vs
  involuntary switches are counted separately (collectl's view).

Because the reactor→worker dispatches of the asynchronous Tomcat
architecture are modelled as real thread handoffs, the paper's Table II
(4 / 2 / 0 / 0 user-space switches per request) *emerges* from this
scheduler rather than being hard-coded.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpu.accounting import CPUCounters, CPUSnapshot
from repro.errors import SimulationError
from repro.sim.core import _PENDING, PRIORITY_URGENT, Environment, Event

__all__ = ["CPU", "SimThread"]


class _Burst(Event):
    """One submitted unit of CPU work (possibly sliced across quanta).

    The burst is itself the event its submitter waits on: it succeeds when
    the work is done.  :meth:`CPU._submit` fills in its slots directly, so
    a burst costs one allocation and no ``__init__`` chain.
    ``remaining_user + remaining_system`` is the work left; ``token`` is
    its current ready-queue entry (a one-slot list, cleared on take so
    stale deque entries are skipped), or ``None`` once a core took it.
    """

    __slots__ = ("thread", "remaining_user", "remaining_system", "token")


class _Core:
    """One core's dispatch state machine, driven by kernel callbacks.

    Every step ends by arming a single pooled timer whose only callback is
    the next step (or by parking the core on the CPU's idle list), so the
    core never needs a process of its own.  A completed burst hands back
    through :meth:`~repro.sim.core.Environment.succeed_in_place`, which
    resumes the waiter -- and then this core -- without heap round trips
    whenever that is exactly what the heap would have popped next.
    """

    __slots__ = (
        "cpu",
        "env",
        "last_thread",
        "busy",
        "slice_left",
        "last_preempted",
        "burst",
        "dispatch_cb",
        "run_cb",
        "finish_cb",
    )

    def __init__(self, cpu: "CPU"):
        self.cpu = cpu
        self.env = cpu.env
        self.last_thread: Optional[SimThread] = None
        self.busy = False
        self.slice_left = cpu.calibration.time_slice
        self.last_preempted = False
        #: The burst this core is running (``None`` while idle).
        self.burst: Optional[_Burst] = None
        # One bound method per step, registered on every timer this core
        # arms (see Process._resume_cb for the same allocation saving).
        self.dispatch_cb = self.dispatch
        self.run_cb = self.run_quantum
        self.finish_cb = self.finish

    def dispatch(self, _event: Optional[Event] = None) -> None:
        """Pick the next burst (sticky thread first, then FIFO) and start
        it, charging a context switch when the thread changes."""
        cpu = self.cpu
        # Sticky pick: the last thread keeps its core while its slice has
        # budget left and it has a queued burst -- a kernel thread issuing
        # back-to-back work without blocking.
        thread = self.last_thread
        if thread is not None and thread.alive and self.slice_left > 0:
            burst = thread._pending
            if burst is not None and burst.token is not None:
                # Invalidate the ready-queue entry (lazy removal).
                burst.token[0] = None
                burst.token = None
                cpu._queued -= 1
                if not self.busy:
                    self.busy = True
                    cpu._busy_cores += 1
                self.burst = burst
                self.run_quantum()
                return

        burst = cpu._pop_ready()
        if burst is None:
            if self.busy:
                self.busy = False
                cpu._busy_cores -= 1
            cpu._idle_cores.append(self)
            return
        if not self.busy:
            self.busy = True
            cpu._busy_cores += 1
        self.burst = burst
        calib = cpu.calibration
        if self.last_thread is not burst.thread:
            cost = calib.context_switch_cost(cpu.runnable_count)
            counters = cpu.counters
            counters.context_switches += 1
            if self.last_preempted:
                counters.involuntary_switches += 1
            else:
                counters.voluntary_switches += 1
            counters.switch_time += cost
            counters.busy_system += cost
            self.last_thread = burst.thread
            self.slice_left = calib.time_slice
            if cost > 0:
                # Pooled: a core keeps no reference to its timers and is
                # never interrupted (see the pooled_timeout contract).
                self.env.pooled_timeout(cost).callbacks.append(self.run_cb)
                return
        else:
            # Same thread re-picked from the queue: fresh slice, no switch
            # cost.
            self.slice_left = calib.time_slice
        self.run_quantum()

    def run_quantum(self, _event: Optional[Event] = None) -> None:
        """Run one quantum of the current burst (to completion if nobody
        else is waiting), consuming its system part first."""
        cpu = self.cpu
        burst = self.burst
        user = burst.remaining_user
        system = burst.remaining_system
        if cpu._queued > 0:
            quantum = min(user + system, self.slice_left, cpu.calibration.time_slice)
        else:
            quantum = user + system
        sys_part = min(system, quantum)
        burst.remaining_system = system - sys_part
        user_part = min(user, quantum - sys_part)
        burst.remaining_user = user - user_part
        counters = cpu.counters
        counters.busy_user += user_part
        counters.busy_system += sys_part
        self.slice_left -= quantum
        # quantum > 0: bursts are queued with work left, and a slice is
        # only ever picked with budget left.
        self.env.pooled_timeout(quantum).callbacks.append(self.finish_cb)

    def finish(self, _event: Optional[Event] = None) -> None:
        """End of a quantum: requeue an unfinished burst, or complete it."""
        burst = self.burst
        if burst.remaining_user + burst.remaining_system > 1e-15:
            self.cpu._enqueue(burst)
            self.last_preempted = True
            # Expired slice: the thread goes to the back of the queue and
            # loses its core.
            self.slice_left = 0.0
            self.dispatch()
            return
        self.burst = None
        burst.thread._pending = None
        self.last_preempted = False
        # The woken process resubmits (same timestamp) before this core
        # picks its next burst, so a thread that issues back-to-back bursts
        # keeps the core without a switch.
        self.env.succeed_in_place(burst, self.dispatch_cb)


class SimThread:
    """A schedulable thread identity on a simulated :class:`CPU`.

    A thread may have at most one outstanding burst at a time (it is a
    thread, not a pool); submitting a second burst while one is pending is
    a modelling bug and raises :class:`SimulationError`.
    """

    _ids = 0

    def __init__(self, cpu: "CPU", name: str = ""):
        SimThread._ids += 1
        self.cpu = cpu
        self.name = name or f"thread-{SimThread._ids}"
        self.alive = True
        self._pending: Optional[_Burst] = None
        cpu._register_thread(self)

    # ------------------------------------------------------------------
    def run(self, duration: float, kind: str = "user") -> Event:
        """Submit a CPU burst; the returned event succeeds when it is done.

        ``kind`` is ``"user"`` or ``"system"``.  The per-burst hot path:
        it makes :meth:`run_split`'s checks itself and submits directly.
        """
        if kind == "user":
            user, system = duration, 0.0
        elif kind == "system":
            user, system = 0.0, duration
        else:
            raise ValueError(f"unknown burst kind {kind!r}")
        if not self.alive:
            raise SimulationError(f"thread {self.name!r} is closed")
        if duration < 0:
            raise ValueError("burst durations must be >= 0")
        if self._pending is not None:
            raise SimulationError(
                f"thread {self.name!r} already has an outstanding burst"
            )
        return self.cpu._submit(self, user, system)

    def run_split(self, user: float, system: float) -> Event:
        """Submit a burst with an explicit (user, system) time split."""
        if not self.alive:
            raise SimulationError(f"thread {self.name!r} is closed")
        if user < 0 or system < 0:
            raise ValueError("burst durations must be >= 0")
        if self._pending is not None:
            raise SimulationError(
                f"thread {self.name!r} already has an outstanding burst"
            )
        return self.cpu._submit(self, user, system)

    def syscall(self, bytes_copied: int = 0, extra_kernel: float = 0.0) -> Event:
        """Execute one syscall: fixed user+kernel crossing cost plus a
        per-byte kernel copy cost.  Increments the syscall counter."""
        user, system = self.cpu.calibration.syscall_cost(bytes_copied)
        self.cpu.counters.syscalls += 1
        return self.run_split(user, system + extra_kernel)

    def close(self) -> None:
        """Mark the thread dead (removes it from the live-thread count)."""
        if self.alive:
            self.alive = False
            self.cpu._unregister_thread(self)

    def __repr__(self) -> str:
        return f"<SimThread {self.name!r} {'alive' if self.alive else 'closed'}>"


class CPU:
    """A multi-core CPU with sticky round-robin scheduling and accounting."""

    def __init__(
        self,
        env: Environment,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "cpu",
    ):
        self.env = env
        self.calibration = calibration
        self.name = name
        self.cores = calibration.cores
        self.counters = CPUCounters()
        self.live_threads = 0
        #: ``calibration.thread_footprint_factor(live_threads)``, recomputed
        #: whenever a thread is created or closed (not once per burst).
        self._footprint = calibration.thread_footprint_factor(0)
        #: Gray-failure hook: every submitted burst is stretched by this
        #: factor (1.0 = healthy).  Set by
        #: :class:`~repro.faults.plan.DegradeWindow` injection to model a
        #: slow-but-alive instance (thermal throttling, failing disk,
        #: memory pressure) whose work all takes longer while the node
        #: still answers health checks.
        self.slowdown = 1.0
        self._ready: Deque[_Burst] = deque()
        self._queued = 0
        #: Cores with ``busy`` set, kept where ``_Core.dispatch`` flips it.
        self._busy_cores = 0
        self._cores: List[_Core] = [_Core(self) for _ in range(self.cores)]
        self._idle_cores: List[_Core] = []
        for core in self._cores:
            # Urgent at construction time: each core's first dispatch runs
            # where a started process's Initialize would.
            env.pooled_schedule_at(env.now, priority=PRIORITY_URGENT).callbacks.append(
                core.dispatch_cb
            )

    # ------------------------------------------------------------------
    # Thread registry
    # ------------------------------------------------------------------
    def thread(self, name: str = "") -> SimThread:
        """Create a new live thread on this CPU."""
        return SimThread(self, name)

    def _register_thread(self, thread: SimThread) -> None:
        self.live_threads += 1
        self._footprint = self.calibration.thread_footprint_factor(self.live_threads)

    def _unregister_thread(self, thread: SimThread) -> None:
        self.live_threads -= 1
        self._footprint = self.calibration.thread_footprint_factor(self.live_threads)
        # Drop stale last-thread references so a dead thread's identity
        # cannot suppress a future context-switch count.
        for core in self._cores:
            if core.last_thread is thread:
                core.last_thread = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def runnable_count(self) -> int:
        """Bursts ready or running right now."""
        return self._queued + self._busy_cores

    def snapshot(self) -> CPUSnapshot:
        """Capture counters at the current virtual time."""
        return CPUSnapshot(time=self.env.now, counters=self.counters.copy())

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _submit(self, thread: SimThread, user: float, system: float) -> Event:
        user = user * self._footprint
        if self.slowdown != 1.0:
            # Gray failure in effect: all work on this CPU is stretched.
            user *= self.slowdown
            system *= self.slowdown
        # The fields of Event.__init__, then the burst's own.
        burst = _Burst.__new__(_Burst)
        burst.env = self.env
        burst.callbacks = []
        burst._value = _PENDING
        burst._ok = True
        burst.defused = False
        burst._cancelled = False
        burst.thread = thread
        burst.remaining_user = user
        burst.remaining_system = system
        self.counters.bursts += 1
        if user + system <= 0.0:
            # Zero-length burst: complete immediately without a core.
            return burst.succeed()
        thread._pending = burst
        # _enqueue, inline.
        token = [burst]
        burst.token = token
        self._ready.append(token)
        self._queued += 1
        if self._idle_cores:
            # Wake an idle core through the heap (same slot as a succeeded
            # wake-up event) so same-time submitters queue up first.
            core = self._idle_cores.pop()
            self.env.pooled_timeout(0.0).callbacks.append(core.dispatch_cb)
        return burst

    def _enqueue(self, burst: _Burst) -> None:
        token = [burst]
        burst.token = token
        self._ready.append(token)
        self._queued += 1

    def _pop_ready(self) -> Optional[_Burst]:
        """Next queued burst in FIFO order (skipping stale entries)."""
        while self._ready:
            token = self._ready.popleft()
            burst = token[0]
            if burst is not None:
                burst.token = None
                self._queued -= 1
                return burst
        return None

    def __repr__(self) -> str:
        return (
            f"<CPU {self.name!r} cores={self.cores} runnable={self.runnable_count} "
            f"switches={self.counters.context_switches}>"
        )
