"""Discrete-event simulation kernel.

This module implements a small, self-contained discrete-event simulation
(DES) engine in the style popularised by SimPy: simulation logic is written
as plain Python generator functions ("processes") that ``yield`` events; the
:class:`Environment` advances a virtual clock and resumes each process when
the event it waits on is triggered.

The engine is deliberately minimal but complete enough to model operating
system schedulers, TCP connections and multi-tier server systems:

* :class:`Environment` — the event queue and virtual clock.
* :class:`Event` — one-shot signal carrying a value or an exception.
* :class:`Timeout` — an event that triggers after a fixed virtual delay.
* :class:`Process` — a running generator; itself an event that triggers when
  the generator returns (its value) or raises (its exception).
* :class:`Condition` / :func:`Environment.all_of` / :func:`Environment.any_of`
  — composite events.

Determinism
-----------
Events scheduled for the same virtual time are processed in a stable order:
first by ``priority`` (lower runs first), then by insertion sequence. Given
the same seed streams (see :mod:`repro.sim.rng`) a simulation is perfectly
reproducible, which the test suite relies on heavily.

Fast path
---------
Simulator events/sec is the hard ceiling on every experiment in this repo,
so the kernel trades a little generality for speed — without moving a
single result (the golden-digest tests pin bit-identical behaviour):

* every kernel class declares ``__slots__`` and the hot paths read
  ``_value``/``_ok``/``callbacks`` directly instead of going through
  properties;
* :class:`Timeout` objects (and their callback lists) are recycled through
  a per-environment free list — see :meth:`Environment.pooled_timeout` for
  the safety contract;
* abandoned timeouts are cancelled *lazily*: cancellation marks the event
  and the scheduler drops it when it pops (or in a periodic heap
  compaction), so cancelling is O(1) instead of O(n) — see
  :meth:`Environment._cancel`;
* ``any_of``/``all_of`` detach from every child once the condition fires
  and cancel a losing :class:`Timeout` left with no waiter, so far-future
  retry deadlines do not pile up in the heap and a long-lived child (a
  connection's ``on_close``) collects no callback per finished wait;
* :meth:`Environment.succeed_in_place` runs a CPU burst completion's
  callbacks, its continuation and then its *tail*, the same-instant
  events they trigger (a ``Store`` put or get, a finished process),
  without the heap round trip, each only when it would have been the
  very next pop anyway.

The insertion-sequence counter is consumed at exactly the same points as
before any of this machinery existed, which is what makes the fast path
observationally equivalent.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import (
    EventLifecycleError,
    InterruptError,
    ProcessError,
    SimulationError,
    StopSimulation,
)

__all__ = [
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "Environment",
    "Event",
    "ReusableEvent",
    "Timeout",
    "Process",
    "Condition",
]

#: Scheduling priority for events that must pre-empt same-time events
#: (used internally by interrupts).
PRIORITY_URGENT = 0

#: Default scheduling priority.
PRIORITY_NORMAL = 1

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

#: Upper bound on the per-environment Timeout free list.  Big enough to
#: absorb the steady-state churn of a large simulation (the pool only grows
#: to the peak number of *simultaneously pending* pooled timeouts), small
#: enough that a pathological burst cannot pin memory forever.
_POOL_MAX = 1024

#: Lazy cancellation compacts the heap once at least this many cancelled
#: entries have accumulated *and* they outnumber the live ones, bounding
#: the queue to ~2x its live size at O(n) amortised cost.
_COMPACT_MIN = 64


class Event:
    """A one-shot occurrence inside a simulation.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: the event is placed on the environment's queue and, when
    the clock reaches it, every registered callback runs exactly once
    (the event is then *processed*).

    Processes wait for events by ``yield``-ing them.  Yielding an already
    processed event resumes the process immediately (at the current virtual
    time) with the event's value.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "_cancelled", "_fire_at")

    #: Class flag: instances are recycled through the environment's free
    #: list after processing (see :meth:`Environment.pooled_timeout`).
    _poolable = False

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set by Process when it fails-over an exception into a waiter, so
        #: unhandled event failures can be reported exactly once.
        self.defused: bool = False
        #: Lazily cancelled: the heap entry is dead and will be dropped at
        #: pop (or compaction) time instead of being searched for now.
        self._cancelled: bool = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or its exception)."""
        if self._value is _PENDING:
            raise EventLifecycleError(f"{self!r} has not been triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventLifecycleError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        tail = env._tail
        if tail is not None and priority == PRIORITY_NORMAL:
            # Inside Environment.succeed_in_place: wait for its tail.
            tail.append((next(env._eid), self))
            env._elided += 1
        else:
            heappush(env._queue, (env._now, priority, next(env._eid), self))
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` raised at
        its ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise EventLifecycleError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        tail = env._tail
        if tail is not None and priority == PRIORITY_NORMAL:
            tail.append((next(env._eid), self))
            env._elided += 1
        else:
            heappush(env._queue, (env._now, priority, next(env._eid), self))
        return self

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class ReusableEvent(Event):
    """An event that a *single owner* re-arms instead of re-allocating.

    The blocked-writer path parks on buffer space once per drain round; a
    blocking 1 MB write through a 16 KB buffer used to allocate ~64 events
    plus as many wake-up closures.  A ``ReusableEvent`` lets the writer
    re-arm one object for the whole write (see
    :meth:`repro.net.tcp.Connection.blocking_write`).

    Contract: only the owner may hold a reference across :meth:`rearm`;
    anyone else must treat it as an ordinary one-shot event.
    """

    __slots__ = ()

    def rearm(self) -> "ReusableEvent":
        """Reset to the untriggered state; returns ``self``.

        A no-op while the event is still armed and unfired.  Raises
        :class:`EventLifecycleError` if called between trigger and
        processing — the scheduler still holds the old incarnation.
        """
        if self._value is _PENDING:
            return self
        if self.callbacks is not None:
            raise EventLifecycleError(f"{self!r} is scheduled; cannot rearm")
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.defused = False
        return self


class Timeout(Event):
    """An event that triggers automatically at a set time.

    Built only by the environment (:meth:`Environment.timeout`,
    :meth:`Environment.schedule_at` and their pooled forms), which fill
    the slots directly: timeouts are the single most-allocated object in
    a simulation (~70% of all events).
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<Timeout at={self._fire_at!r}>"


class _PooledTimeout(Timeout):
    """A :class:`Timeout` that returns to the environment's free list.

    Never instantiate directly — use :meth:`Environment.pooled_timeout`,
    and read its safety contract first.
    """

    __slots__ = ()

    _poolable = True


class Initialize(Event):
    """Internal event that kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self.defused = False
        self._cancelled = False
        heappush(env._queue, (env._now, PRIORITY_URGENT, next(env._eid), self))


class Interruption(Event):
    """Internal urgent event that delivers an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        if process._value is not _PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = InterruptError(cause)
        self.defused = True
        self.callbacks.append(self._interrupt)
        self.env._schedule(self, priority=PRIORITY_URGENT)

    def _interrupt(self, event: Event) -> None:
        process = self.process
        if process._value is not _PENDING:
            return  # Terminated between scheduling and delivery.
        # Detach the process from whatever event it currently waits on.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume_cb)
            except ValueError:
                pass
            if not target.callbacks and isinstance(target, Timeout):
                # Nobody is left waiting on the timer: let it die in place
                # instead of popping as a no-op at its far-future deadline.
                # (A re-yield revives it — see Process._resume.)
                process.env._cancel(target)
        process._resume(self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an :class:`Event`: it triggers with the
    generator's return value when the generator finishes, or fails with the
    exception if one escapes.
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any], name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # `self._resume` builds a fresh bound-method object on every read;
        # the kernel registers it once per suspension, so cache one copy.
        # Bound methods compare by (func, instance), so detach-by-remove
        # works on either copy.  A finished process drops the cached copy,
        # its one reference to itself.
        self._resume_cb = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`InterruptError` inside the process.

        The interrupted process may catch the error and continue; the event
        it was waiting on remains valid and may be re-yielded.
        """
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        generator = self._generator
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._target = self._resume_cb = None
                env._active_process = None
                self.succeed(getattr(exc, "value", None))
                return
            except BaseException as exc:
                self._target = self._resume_cb = None
                env._active_process = None
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self._target = self._resume_cb = None
                env._active_process = None
                self.fail(
                    ProcessError(f"process {self.name!r} yielded a non-event: {next_event!r}")
                )
                return

            if next_event.callbacks is not None:
                # Event not yet processed: register and suspend.
                next_event.callbacks.append(self._resume_cb)
                if next_event._cancelled:
                    # Re-yielded after an interrupt detached us: the heap
                    # entry is still live, so reviving is just unmarking.
                    next_event._cancelled = False
                    env._cancelled_entries -= 1
                self._target = next_event
                break
            if next_event._cancelled:
                # Re-yielded after compaction dropped the heap entry:
                # reschedule at the original fire time (Timeouts record it).
                next_event._cancelled = False
                next_event.callbacks = [self._resume_cb]
                heappush(
                    env._queue,
                    (next_event._fire_at, PRIORITY_NORMAL, next(env._eid), next_event),
                )
                self._target = next_event
                break
            # Event already processed: continue immediately with its value.
            event = next_event
        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Condition(Event):
    """Composite event that triggers when ``evaluate`` says enough children
    have triggered.

    Succeeds with a dict mapping each *triggered* child event to its value
    (insertion-ordered).  Fails as soon as any child fails.
    """

    __slots__ = ("_events", "_evaluate", "_done")

    def __init__(
        self,
        env: "Environment",
        events: Iterable[Event],
        evaluate: Callable[[int, int], bool],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._done = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._events:
            self.succeed({})
            return
        check = self._check  # one bound method for all children
        for event in self._events:
            if event.callbacks is None:
                check(event)
                if self._value is not _PENDING:
                    break  # fired: later children are never watched
            else:
                if event._cancelled:
                    # A cancelled-but-queued timer gains a waiter again.
                    event._cancelled = False
                    env._cancelled_entries -= 1
                event.callbacks.append(check)

    def _collect(self) -> dict:
        # Only *processed* children count: a Timeout carries its value from
        # construction, so `triggered` alone would leak future events in.
        return {ev: ev._value for ev in self._events if ev.callbacks is None and ev._ok}

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return  # this child's dispatch was under way when we fired
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        else:
            self._done += 1
            if not self._evaluate(len(self._events), self._done):
                return
            self.succeed(self._collect())
        self._release()

    def _release(self) -> None:
        """Remove ``_check`` from every child that still holds it.

        SimPy's rule: a fired condition needs nothing more from its
        children, so none keeps a callback into it.  A long-lived child (a
        connection's ``on_close``) then carries no callback per finished
        wait, and the condition with its value is freed by reference
        counting alone.  A child that fails later is defused only by its
        own waiters; with none, :meth:`Environment.run` raises.  A
        :class:`Timeout` left with no waiter is lazily cancelled, so
        abandoned retry deadlines do not pile up in the heap until their
        far-future pop.
        """
        cancel = self.env._cancel
        check = self._check
        for ev in self._events:
            callbacks = ev.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)
                if not callbacks and isinstance(ev, Timeout):
                    cancel(ev)

    @staticmethod
    def all_events(total: int, done: int) -> bool:
        """Evaluate function for "wait for every child"."""
        return total == done

    @staticmethod
    def any_event(total: int, done: int) -> bool:
        """Evaluate function for "wait for the first child"."""
        return done > 0 or total == 0


class Environment:
    """The simulation environment: virtual clock plus event queue.

    Typical usage::

        env = Environment()

        def worker(env):
            yield env.timeout(1.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 1.0 and proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Heap entries popped and dispatched so far (run results report it
        #: as ``kernel_events``).  Skipped lazily-cancelled entries do not
        #: count, and neither do the events :meth:`succeed_in_place`
        #: delivers in place: the completion, its continuation and its
        #: tail.
        self.events_processed = 0
        #: Free list of recycled :class:`_PooledTimeout` objects.
        self._timeout_pool: List[_PooledTimeout] = []
        #: Number of heap entries whose event is lazily cancelled.
        self._cancelled_entries = 0
        #: Heap entries that :meth:`succeed_in_place` elides but the plain
        #: schedule would hold right now (its continuation timer and the
        #: events waiting in its tail); the compaction trigger counts
        #: them so it fires at exactly the same point either way.
        self._elided = 0
        #: ``(insertion id, event)`` of the same-instant events triggered
        #: while :meth:`succeed_in_place` runs, in id order; ``None``
        #: outside it.
        self._tail: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between events)."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t.defused = False
        t._cancelled = False
        fire_at = self._now + delay
        t._fire_at = fire_at
        heappush(self._queue, (fire_at, PRIORITY_NORMAL, next(self._eid), t))
        return t

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` recycled through a free list after it fires.

        Observationally identical to :meth:`timeout` (same scheduling, same
        insertion-sequence draw) but the object and its callback list are
        reused, which eliminates the dominant allocation of a simulation.

        Safety contract — callers must guarantee both:

        1. **no reference outlives processing**: once the timeout fires the
           object may be handed to someone else, so never store it, never
           put it in a :class:`Condition`, and never inspect it after a
           ``yield`` on it returns;
        2. **the waiting process is never interrupted** while suspended on
           it (an interrupt may legitimately re-yield, which for a pooled
           object would observe a recycled incarnation).

        Internal machinery with fire-and-forget timers (the CPU scheduler's
        quantum sleeps, the TCP delivery/ACK timers) satisfies this; user
        code should keep calling :meth:`timeout`.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        pool = self._timeout_pool
        if not pool:
            t = _PooledTimeout.__new__(_PooledTimeout)
            t.env = self
            t.callbacks = []
            t._value = value
            t._ok = True
            t.defused = False
            t._cancelled = False
            fire_at = self._now + delay
            t._fire_at = fire_at
            heappush(self._queue, (fire_at, PRIORITY_NORMAL, next(self._eid), t))
            return t
        t = pool.pop()
        t._value = value
        t._ok = True
        t.defused = False
        if t.callbacks is None:
            t.callbacks = []
        fire_at = self._now + delay
        t._fire_at = fire_at
        heappush(self._queue, (fire_at, PRIORITY_NORMAL, next(self._eid), t))
        return t

    # ------------------------------------------------------------------
    # Batch scheduling of pre-computed event trains
    # ------------------------------------------------------------------
    # The flow-level TCP fast path computes a whole ACK-clocked drain in
    # closed form and then needs to schedule its boundary events at the
    # *exact* timestamps the per-segment path would have produced.  A
    # relative ``timeout(fire_at - now)`` cannot do that: float addition is
    # not associative, so ``now + (fire_at - now)`` generally differs from
    # ``fire_at`` in the last ulp — enough to reorder same-time events and
    # break the golden digests.  These helpers take the absolute fire time.

    def schedule_at(self, fire_at: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` that fires at the absolute time ``fire_at``.

        Bit-exact counterpart of :meth:`timeout` for pre-computed event
        trains: the heap key is ``fire_at`` itself, not ``now + delay``.
        """
        if fire_at < self._now:
            raise ValueError(f"fire_at={fire_at!r} is in the past (now={self._now!r})")
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t.defused = False
        t._cancelled = False
        t._fire_at = fire_at
        heappush(self._queue, (fire_at, PRIORITY_NORMAL, next(self._eid), t))
        return t

    def pooled_schedule_at(
        self, fire_at: float, value: Any = None, priority: int = PRIORITY_NORMAL
    ) -> Timeout:
        """Pooled variant of :meth:`schedule_at`.

        Same free-list recycling — and therefore the same safety contract —
        as :meth:`pooled_timeout`.
        """
        if fire_at < self._now:
            raise ValueError(f"fire_at={fire_at!r} is in the past (now={self._now!r})")
        return self._push_pooled(fire_at, priority, next(self._eid), value)

    def _push_pooled(self, fire_at: float, priority: int, key: int, value: Any) -> Timeout:
        """Queue a recycled pooled timer under an explicit heap key."""
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            t._value = value
            t._ok = True
            t.defused = False
            if t.callbacks is None:
                t.callbacks = []
        else:
            t = _PooledTimeout.__new__(_PooledTimeout)
            t.env = self
            t.callbacks = []
            t._value = value
            t._ok = True
            t.defused = False
            t._cancelled = False
        t._fire_at = fire_at
        heappush(self._queue, (fire_at, priority, key, t))
        return t

    def schedule_keyed(
        self,
        event: Event,
        fire_at: float,
        key: int,
        value: Any = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Pre-trigger ``event`` like :meth:`schedule_event_at`, but with a
        caller-chosen tie-break ``key`` instead of the next insertion id.

        The sharded kernel (:mod:`repro.shard`) applies cross-shard message
        batches on a receiving island whose local insertion counter has
        diverged from the serial run's.  A partition-stable key — derived
        from the message's (channel, sequence) identity, offset far above
        any realistic local eid — keeps same-time ordering independent of
        how many local events each island happened to process, which is
        what makes the merged run digest-identical to the serial one.

        The local eid counter is deliberately *not* consumed.
        """
        if fire_at < self._now:
            raise ValueError(f"fire_at={fire_at!r} is in the past (now={self._now!r})")
        if event._value is not _PENDING:
            raise EventLifecycleError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        event._fire_at = fire_at
        heappush(self._queue, (fire_at, priority, key, event))
        return event

    def schedule_event_at(
        self,
        event: Event,
        fire_at: float,
        value: Any = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Pre-trigger ``event`` with ``value`` but deliver it at ``fire_at``.

        The *armed wake-up* primitive: instead of a timer that fires and
        then succeeds a waiter (two heap entries), the waiter itself is
        pushed at its known future wake time.  The event reports
        ``triggered`` immediately — callers that arm events this way own
        them and must not inspect the trigger state in between.

        ``event._fire_at`` is recorded so the tombstone-revival path in
        :meth:`Process._resume` can reschedule an armed event exactly like
        a compacted :class:`Timeout`.
        """
        if fire_at < self._now:
            raise ValueError(f"fire_at={fire_at!r} is in the past (now={self._now!r})")
        if event._value is not _PENDING:
            raise EventLifecycleError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        event._fire_at = fire_at
        heappush(self._queue, (fire_at, priority, next(self._eid), event))
        return event

    def succeed_in_place(self, event: Event, resume: Callable[[Event], None]) -> None:
        """``event.succeed()`` then a zero-delay pooled timer whose only
        callback is ``resume`` -- each delivered in place where exact, and
        so is the tail of same-instant events they trigger.

        The plain schedule pushes ``event`` at ``(now, NORMAL, k1)`` and
        the timer at ``(now, NORMAL, k2)`` and returns to the run loop.
        Here both insertion ids are drawn first, then:

        1. if no queued entry sorts before ``(now, NORMAL, k1)``, ``event``
           would be the very next pop, so its callbacks run right now;
           otherwise it is pushed at ``k1``;
        2. if then nothing sorts before ``(now, NORMAL, k2)``, the timer
           would be the next pop, so ``resume(event)`` runs right now;
           otherwise a pooled timer carrying ``resume`` is pushed at ``k2``;
        3. the tail: while 1 and 2 run, an event that :meth:`Event.succeed`
           or :meth:`Event.fail` triggers with ``PRIORITY_NORMAL`` draws
           its insertion id as usual but waits in :attr:`_tail` instead of
           the heap.  In id order, each one that no queued entry sorts
           before would be the very next pop, so its callbacks run right
           now, followed by the run loop's unhandled-failure check;
           events those callbacks trigger join the tail.  The first one
           that something queued sorts before (an urgent ``Initialize``
           or ``Interruption``, an earlier same-instant entry, the pushed
           k2 timer) stops the deliveries.

        Whatever would have run in between thus forces the fallback and
        keeps the plain order.  Before this returns or propagates, every
        event left in the tail is pushed at its drawn key, so a raising
        callback (``StopSimulation`` from ``run(until=event)``) loses
        neither the k2 timer nor a triggered event.  Tail entries count in
        :attr:`_elided`, like the k2 timer, so compaction fires where it
        would have.  In-place deliveries do not count in
        :attr:`events_processed`, which stays "heap entries popped and
        dispatched".

        Caller contract: this is the last action of the only callback on
        an event the run loop popped, so nothing else would run before the
        next pop, and it is never called while another call's tail is
        open; ``resume`` obeys the :meth:`pooled_timeout` contract.  The
        CPU core's burst completion is the single call site.
        """
        if event._value is not _PENDING:
            raise EventLifecycleError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = None
        now = self._now
        queue = self._queue
        k1 = next(self._eid)
        k2 = next(self._eid)
        tail = self._tail = []
        resumed = False
        try:
            if queue and queue[0] < (now, PRIORITY_NORMAL, k1):
                heappush(queue, (now, PRIORITY_NORMAL, k1, event))
            else:
                callbacks = event.callbacks
                event.callbacks = None
                # The plain schedule holds the k2 timer while these run.
                self._elided += 1
                try:
                    for callback in callbacks:
                        callback(event)
                finally:
                    self._elided -= 1
            if not queue or queue[0] > (now, PRIORITY_NORMAL, k2):
                resumed = True
                resume(event)
                # The tail (a pushed k2 timer would sort before all of it).
                while tail:
                    key, ev = tail[0]
                    if queue and queue[0] < (now, PRIORITY_NORMAL, key):
                        break
                    del tail[0]
                    self._elided -= 1
                    callbacks = ev.callbacks
                    ev.callbacks = None
                    for callback in callbacks:
                        callback(ev)
                    if not ev._ok and not ev.defused:
                        raise ev._value
        finally:
            self._tail = None
            if not resumed:
                self._push_pooled(now, PRIORITY_NORMAL, k2, None).callbacks.append(resume)
            for key, ev in tail:
                heappush(queue, (now, PRIORITY_NORMAL, key, ev))
            self._elided -= len(tail)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that triggers when *all* of ``events`` have succeeded."""
        return Condition(self, events, Condition.all_events)

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that triggers when *any* of ``events`` has succeeded."""
        return Condition(self, events, Condition.any_event)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> None:
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def _cancel(self, event: Event) -> None:
        """Lazily cancel a queued event nobody waits on (Timeouts only).

        O(1): the event is only marked; its heap entry dies when it pops or
        when enough dead entries accumulate to warrant a compaction.  A
        skipped pop is observationally identical to processing a timeout
        with no callbacks — the clock still advances to its time unless
        compaction removed it first, which no one can observe because, by
        definition, nothing was scheduled to happen *at* that time.
        """
        if event._cancelled or event.callbacks is None:
            return
        event._cancelled = True
        self._cancelled_entries += 1
        if (
            self._cancelled_entries > _COMPACT_MIN
            and self._cancelled_entries * 2 > len(self._queue) + self._elided
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled heap entries and re-heapify (in place).

        Cancelled non-poolable timeouts become *tombstones* — processed-
        looking (``callbacks is None``) but still ``_cancelled`` — so a
        later re-yield can detect the state and reschedule at ``_fire_at``
        (see :meth:`Process._resume`).  Pooled ones go back to the free
        list.  Mutates ``_queue`` in place because ``run`` holds a local
        reference to the list across steps.
        """
        queue = self._queue
        pool = self._timeout_pool
        keep = []
        for entry in queue:
            event = entry[3]
            if event._cancelled:
                event.callbacks = None
                if event._poolable:
                    event._cancelled = False
                    if len(pool) < _POOL_MAX:
                        pool.append(event)
            else:
                keep.append(entry)
        queue[:] = keep
        heapify(queue)
        self._cancelled_entries = 0

    def peek(self) -> float:
        """Virtual time of the next scheduled event (``inf`` if none)."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until virtual time reaches it;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        stop_value = _PENDING
        stop_hook = None

        if until is None:
            stop_time = float("inf")
        elif isinstance(until, Event):
            if until.callbacks is None:
                return until.value if until._ok else self._raise(until._value)

            def stop_hook(event: Event) -> None:
                nonlocal stop_value
                stop_value = event
                raise StopSimulation()

            if until._cancelled:
                until._cancelled = False
                self._cancelled_entries -= 1
            until.callbacks.append(stop_hook)
            stop_time = float("inf")
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time!r} is in the past (now={self._now!r})")

        # The pop loop runs on hot locals, with no per-event method call:
        # a call plus attribute lookups is measurable at millions of events
        # per run.  `queue` stays valid because _compact mutates the list
        # in place.
        queue = self._queue
        pool = self._timeout_pool
        events_processed = 0
        try:
            while queue and queue[0][0] <= stop_time:
                self._now, _, _, event = heappop(queue)
                if event._cancelled:
                    event._cancelled = False
                    event.callbacks = None
                    self._cancelled_entries -= 1
                    if event._poolable and len(pool) < _POOL_MAX:
                        pool.append(event)
                    continue
                events_processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if event._poolable:
                    callbacks.clear()
                    event.callbacks = callbacks
                    if len(pool) < _POOL_MAX:
                        pool.append(event)
                elif not event._ok and not event.defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise ProcessError(f"event failed with non-exception {exc!r}")
        except StopSimulation:
            pass
        finally:
            self.events_processed += events_processed
            if stop_hook is not None and stop_value is _PENDING:
                # `until` did not fire (the queue drained, or an error
                # escaped): unhook, or its later firing would halt some
                # other run() call.
                callbacks = until.callbacks
                if callbacks is not None and stop_hook in callbacks:
                    callbacks.remove(stop_hook)

        if stop_value is not _PENDING:
            event = stop_value
            if event._ok:
                return event._value
            event.defused = True
            return self._raise(event._value)

        if until is not None and not isinstance(until, Event):
            # Advance the clock to the requested time even if the queue
            # drained early, so back-to-back run(until=...) calls compose.
            self._now = max(self._now, stop_time)
        return None

    def run_window(self, stop: float) -> None:
        """Run every event *strictly before* ``stop``; leave ``stop`` alone.

        The conservative-sync primitive for the sharded kernel: a shard may
        safely process local events up to (but not including) its barrier
        horizon, because peers can still inject cross-shard messages firing
        exactly *at* the horizon.  Unlike :meth:`run`, the clock is **not**
        advanced to ``stop`` when the queue drains early — the next window
        (or the epilogue ``run(until=duration)``) owns that advance, and an
        early jump would let a process scheduled by an incoming message
        observe a future ``now``.

        Same inlined pop loop as :meth:`run`; keep the bodies in sync.
        """
        queue = self._queue
        pool = self._timeout_pool
        events_processed = 0
        try:
            while queue and queue[0][0] < stop:
                self._now, _, _, event = heappop(queue)
                if event._cancelled:
                    event._cancelled = False
                    event.callbacks = None
                    self._cancelled_entries -= 1
                    if event._poolable and len(pool) < _POOL_MAX:
                        pool.append(event)
                    continue
                events_processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if event._poolable:
                    callbacks.clear()
                    event.callbacks = callbacks
                    if len(pool) < _POOL_MAX:
                        pool.append(event)
                elif not event._ok and not event.defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise ProcessError(f"event failed with non-exception {exc!r}")
        finally:
            self.events_processed += events_processed

    @staticmethod
    def _raise(exc: Any) -> Any:
        raise exc

    def __repr__(self) -> str:
        return f"<Environment now={self._now!r} queued={len(self._queue)}>"
