"""Property-based tests of the CPU scheduler (hypothesis)."""

import dataclasses
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.calibration import default_calibration
from repro.cpu.accounting import CPUCounters
from repro.cpu.scheduler import CPU, _Burst
from repro.errors import InterruptError
from repro.sim.core import PRIORITY_NORMAL, Environment
from repro.sim.resources import Store

from tests.helpers import count_calls

burst_lists = st.lists(
    st.tuples(
        st.floats(min_value=1e-6, max_value=3e-3),  # user
        st.floats(min_value=0.0, max_value=1e-3),  # system
    ),
    min_size=1,
    max_size=12,
)


@given(workloads=st.lists(burst_lists, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_accounting_identity_busy_equals_submitted_plus_switches(workloads):
    """user time == sum of submitted user work (x footprint);
    system time == submitted system work + switch time."""
    env = Environment()
    calib = default_calibration()
    cpu = CPU(env, calib)
    threads = [cpu.thread() for _ in workloads]
    factor = calib.thread_footprint_factor(len(threads))

    def worker(env, thread, bursts):
        for user, system in bursts:
            yield thread.run_split(user, system)

    for thread, bursts in zip(threads, workloads):
        env.process(worker(env, thread, bursts))
    env.run()

    submitted_user = sum(u for bursts in workloads for u, _ in bursts)
    submitted_system = sum(s for bursts in workloads for _, s in bursts)
    assert cpu.counters.busy_user == pytest.approx(submitted_user * factor, rel=1e-9)
    assert cpu.counters.busy_system == pytest.approx(
        submitted_system + cpu.counters.switch_time, rel=1e-9
    )


@given(workloads=st.lists(burst_lists, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_elapsed_time_bounds(workloads):
    """Single core: elapsed >= total work; elapsed == busy when saturated
    from t=0 to the end (work-conserving, no idling while work queued)."""
    env = Environment()
    calib = default_calibration()
    cpu = CPU(env, calib)
    threads = [cpu.thread() for _ in workloads]

    def worker(env, thread, bursts):
        for user, system in bursts:
            yield thread.run_split(user, system)

    for thread, bursts in zip(threads, workloads):
        env.process(worker(env, thread, bursts))
    env.run()
    total_busy = cpu.counters.busy_user + cpu.counters.busy_system
    assert env.now == pytest.approx(total_busy, rel=1e-9)


@given(
    n_threads=st.integers(min_value=1, max_value=8),
    n_bursts=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_switch_count_bounded_by_burst_count(n_threads, n_bursts):
    env = Environment()
    calib = default_calibration()
    cpu = CPU(env, calib)

    def worker(env, thread):
        for _ in range(n_bursts):
            yield thread.run(1e-4)

    for _ in range(n_threads):
        env.process(worker(env, cpu.thread()))
    env.run()
    assert cpu.counters.bursts == n_threads * n_bursts
    # A switch can happen at most once per burst dispatch (no preemption
    # here: bursts are shorter than the time slice).
    assert cpu.counters.context_switches <= cpu.counters.bursts
    assert cpu.counters.context_switches >= 1


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_scheduler_is_deterministic(seed):
    import random

    def run_once():
        env = Environment()
        cpu = CPU(env, default_calibration())
        rng = random.Random(seed)
        log = []

        def worker(env, thread, name):
            for _ in range(4):
                yield thread.run(rng.uniform(1e-5, 1e-3))
                log.append((round(env.now, 12), name))

        for i in range(3):
            env.process(worker(env, cpu.thread(), i))
        env.run()
        return (log, cpu.counters.context_switches)

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# In-place burst completion is exact
# ----------------------------------------------------------------------
# Reference: the generator core loop that delivered every completion through
# the heap (``burst.succeed()`` plus a zero-delay core timer).  The callback
# core must reproduce its trace, counters, clock and compaction points.


class _RefCore:
    def __init__(self, time_slice):
        self.last_thread = None
        self.busy = False
        self.slice_left = time_slice
        self.wakeup = None
        self.last_preempted = False


class _ReferenceCPU(CPU):
    """The scheduler as a generator loop per core, with one helper call per
    step; the production core inlines these steps."""

    def __init__(self, env, calibration):
        self.env = env
        self.calibration = calibration
        self.name = "ref"
        self.cores = calibration.cores
        self.counters = CPUCounters()
        self.live_threads = 0
        self.slowdown = 1.0
        self._ready = deque()
        self._queued = 0
        self._cores = [_RefCore(calibration.time_slice) for _ in range(self.cores)]
        self._idle_cores = []
        for core in self._cores:
            env.process(self._core_loop(core))

    @property
    def runnable_count(self):
        # A scan of the cores, where the production CPU keeps a count.
        return self._queued + sum(1 for c in self._cores if c.busy)

    def _submit(self, thread, user, system):
        # The footprint factor is derived from the live-thread count at
        # every submit, not cached.
        user = user * self.calibration.thread_footprint_factor(self.live_threads)
        if self.slowdown != 1.0:
            user *= self.slowdown
            system *= self.slowdown
        burst = _Burst(self.env)
        burst.thread = thread
        burst.remaining_user = user
        burst.remaining_system = system
        burst.token = None
        self.counters.bursts += 1
        if self._remaining(burst) <= 0.0:
            return burst.succeed()
        thread._pending = burst
        self._enqueue(burst)
        if self._idle_cores:
            core = self._idle_cores.pop()
            if core.wakeup is not None and not core.wakeup.triggered:
                core.wakeup.succeed()
        return burst

    @staticmethod
    def _remaining(burst):
        return burst.remaining_user + burst.remaining_system

    @staticmethod
    def _consume(burst, amount):
        """Consume ``amount`` of work, system part first; returns the
        (user, system) split actually consumed."""
        sys_part = min(burst.remaining_system, amount)
        burst.remaining_system -= sys_part
        user_part = min(burst.remaining_user, amount - sys_part)
        burst.remaining_user -= user_part
        return user_part, sys_part

    def _take_sticky(self, core):
        """The last thread's next burst, if it may keep the core."""
        thread = core.last_thread
        if thread is None or not thread.alive or core.slice_left <= 0:
            return None
        burst = thread._pending
        if burst is None or burst.token is None:
            return None
        burst.token[0] = None
        burst.token = None
        self._queued -= 1
        return burst

    def _core_loop(self, core):
        calib = self.calibration
        env = self.env
        while True:
            burst = self._take_sticky(core)
            sticky = burst is not None
            if burst is None:
                burst = self._pop_ready()
            if burst is None:
                core.busy = False
                core.wakeup = env.event()
                self._idle_cores.append(core)
                yield core.wakeup
                core.wakeup = None
                continue
            core.busy = True
            if not sticky and core.last_thread is not burst.thread:
                cost = calib.context_switch_cost(self.runnable_count)
                self.counters.context_switches += 1
                if core.last_preempted:
                    self.counters.involuntary_switches += 1
                else:
                    self.counters.voluntary_switches += 1
                self.counters.switch_time += cost
                self.counters.busy_system += cost
                core.last_thread = burst.thread
                core.slice_left = calib.time_slice
                if cost > 0:
                    yield env.pooled_timeout(cost)
            elif not sticky:
                core.slice_left = calib.time_slice
            if self._queued > 0:
                quantum = min(self._remaining(burst), core.slice_left, calib.time_slice)
            else:
                quantum = self._remaining(burst)
            user_part, sys_part = self._consume(burst, quantum)
            self.counters.busy_user += user_part
            self.counters.busy_system += sys_part
            if quantum > 0:
                yield env.pooled_timeout(quantum)
            core.slice_left -= quantum
            if self._remaining(burst) > 1e-15:
                self._enqueue(burst)
                core.last_preempted = True
                core.slice_left = 0.0
            else:
                burst.thread._pending = None
                core.last_preempted = False
                burst.succeed()
                yield env.pooled_timeout(0.0)


class _CountingEnv(Environment):
    """Records which fallback each in-place completion took, and when the
    heap was compacted."""

    def __init__(self):
        super().__init__()
        self.done_queued = 0  # done pushed at k1 (so the continuation too)
        self.resume_queued = 0  # done ran in place, continuation pushed at k2
        self.compactions = []

    def succeed_in_place(self, event, resume):
        queue = self._queue
        # No keyed entries here, so k1 (a fresh id) loses only to an entry
        # at the same time with a priority no lower than NORMAL.
        done_queued = bool(queue) and queue[0][:2] <= (self._now, PRIORITY_NORMAL)
        inline = []

        def tracked(ev):
            inline.append(ev)
            resume(ev)

        super().succeed_in_place(event, tracked)
        if done_queued:
            self.done_queued += 1
        elif not inline:
            self.resume_queued += 1

    def _compact(self):
        # Count what the reference heap would hold: the zero-delay core
        # timer and the completion's tail.
        self.compactions.append((self._now, len(self._queue) + self._elided))
        super()._compact()


# 0.0 user time with no system part is a zero-length burst; repeats make
# same-time ties.
_DURATIONS = (0.0, 50e-6, 100e-6, 100e-6, 2.5e-3)
_ACTIONS = (
    "none", "spawn", "interrupt", "succeed", "abandon", "open", "close", "slow",
    "handoff", "poll",
)
_SLOWDOWN = 1.0 / (1.0 - 0.3)  # what a DegradeWindow with share 0.3 sets

_scenarios = st.tuples(
    st.integers(min_value=1, max_value=2),  # cores
    # Switch cost (base, alpha): a flat or zero cost lets two cores finish
    # identical bursts at the very same instant.
    st.sampled_from(((2e-6, 0.6), (2e-6, 0.0), (0.0, 0.0))),
    # thread_footprint_free: below the live-thread count, user work is
    # inflated by a factor that moves as threads open and close.
    st.sampled_from((16, 2, 0)),
    st.lists(  # one burst plan per thread
        st.lists(
            st.tuples(
                st.sampled_from(_DURATIONS),  # user part
                st.sampled_from((0.0, 0.0, 20e-6)),  # system part
                st.sampled_from(_ACTIONS),  # what the waiter does on completion
                st.sampled_from((0.0, 0.0, 50e-6)),  # think before the burst
                st.booleans(),  # race the burst against a far-future timer
            ),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
)


def _run_scenario(cpu_cls, cores, switch_cost, footprint_free, plans, reached=None):
    """Drive ``plans`` on a fresh CPU; returns (trace, counters, now, env).

    ``reached``, if given, counts the submit-path branches the run took.
    """
    env = _CountingEnv()
    base, alpha = switch_cost
    calibration = default_calibration(
        cores=cores,
        context_switch_base=base,
        context_switch_alpha=alpha,
        thread_footprint_free=footprint_free,
    )
    cpu = cpu_cls(env, calibration)
    reached = Counter() if reached is None else reached
    trace = []
    live = [len(plans)]
    spares = []  # threads opened by "open" and not yet closed

    def sleeper():
        while True:
            try:
                yield env.timeout(5.0)
            except InterruptError as exc:
                trace.append((env.now, "sleeper", exc.cause))
                if exc.cause == "stop":
                    return

    sleeping = env.process(sleeper())
    store = Store(env)
    replies = Store(env)

    def consumer(thread):
        # The worker side of a reactor hand-off: its get is served by a
        # put made right after another thread's burst completion, and its
        # reply is put right after its own.
        while True:
            item = yield store.get()
            trace.append((env.now, "consumer", item))
            yield thread.run(50e-6)
            replies.put(item)

    env.process(consumer(cpu.thread("consumer")))

    def child(name):
        trace.append((env.now, name, "child"))
        yield env.timeout(0.0)
        trace.append((env.now, name, "child-again"))

    def listener(name, gate):
        yield gate
        trace.append((env.now, name, "gate"))

    def waiter(name, thread, plan):
        for user, system, action, think, race in plan:
            if think:
                yield env.timeout(think)
            gate = env.event()
            if action == "succeed":
                env.process(listener(name, gate))
            if user + system == 0.0:
                reached["zero"] += 1
            elif user and calibration.thread_footprint_factor(cpu.live_threads) > 1.0:
                reached["inflated"] += 1
            if system:
                burst = thread.run_split(user, system)
            else:
                burst = thread.run(user)
            if race:
                # The completion prunes (lazily cancels) the losing timer
                # from inside its own callbacks.
                yield env.any_of([burst, env.timeout(7.0)])
            else:
                yield burst
            trace.append((env.now, name, "done"))
            if action == "spawn":
                env.process(child(name))
            elif action == "interrupt":
                sleeping.interrupt(name)
            elif action == "succeed":
                gate.succeed()
            elif action == "abandon":
                # Lazily cancelled far-future losers: enough of them drive
                # the heap through compactions.
                for _ in range(12):
                    yield env.any_of([env.timeout(0.0), env.timeout(7.0)])
            elif action == "open":
                spares.append(cpu.thread(f"{name}-spare"))
                reached["open"] += 1
            elif action == "close" and spares:
                spares.pop(0).close()
                reached["close"] += 1
            elif action == "slow":
                # Toggle a gray-failure slowdown on and off mid-run.
                cpu.slowdown = _SLOWDOWN if cpu.slowdown == 1.0 else 1.0
                reached["slow"] += 1
            elif action == "handoff":
                yield store.put(name)
                reached["handoff"] += 1
            elif action == "poll":
                # A get raced against a timer, withdrawn if it loses.
                get = replies.get()
                yield env.any_of([get, env.timeout(1e-3)])
                if get.triggered:
                    trace.append((env.now, name, "polled", get.value))
                    reached["polled"] += 1
                else:
                    replies.cancel(get)
        # The thread exits while the others may still run: the live count
        # (so the footprint factor) drops, and no core may keep it as its
        # last thread.
        thread.close()
        live[0] -= 1
        if live[0] == 0:
            sleeping.interrupt("stop")

    for index, plan in enumerate(plans):
        env.process(waiter(f"t{index}", cpu.thread(f"t{index}"), plan))
    env.run()
    return trace, dataclasses.astuple(cpu.counters), env.now, env


def test_in_place_completion_matches_generator_core():
    fired = Counter()

    @given(scenario=_scenarios)
    @settings(max_examples=150, deadline=None)
    def check(scenario):
        *got, env = _run_scenario(CPU, *scenario, reached=fired)
        *want, ref_env = _run_scenario(_ReferenceCPU, *scenario)
        assert got == want
        assert env.compactions == ref_env.compactions
        fired["done_queued"] += env.done_queued
        fired["resume_queued"] += env.resume_queued

    check()
    assert fired["done_queued"] > 0
    assert fired["resume_queued"] > 0
    # Every branch of the submit path was compared: an inflated footprint
    # factor, threads opened and closed mid-run, a slowdown, zero length;
    # and store hand-offs, including a get that won its race.
    for branch in ("inflated", "open", "close", "slow", "zero", "handoff", "polled"):
        assert fired[branch] > 0, branch


def test_in_place_completion_keeps_compaction_timing():
    """Compaction triggers on the queue length; while a completion runs in
    place, the heap lacks the core's zero-delay timer that the reference
    holds, and the trigger must count it anyway.  64 far-future sleepers
    put the trigger right at that one-entry margin."""

    def run(cpu_cls):
        env = _CountingEnv()
        thread = cpu_cls(env, default_calibration(cores=1)).thread()
        for _ in range(64):
            env.timeout(50.0)

        def waiter():
            for _ in range(80):
                yield env.any_of([thread.run(1e-4), env.timeout(7.0)])

        env.process(waiter())
        env.run()
        return env.compactions, env.now

    got, want = run(CPU), run(_ReferenceCPU)
    assert got[0]  # the scenario does compact
    assert got == want


def test_back_to_back_bursts_event_count():
    """10 x 100 us bursts from one thread on an idle core: the switch onto
    the core, then one quantum timer per burst -- 14 events, where the
    heap-delivered completion processed 35.  The finished worker's own
    ``Process`` event is triggered inside the last completion and
    delivered at its tail, in place, so it is not a heap event."""
    env = Environment()
    cpu = CPU(env, default_calibration(cores=1))
    thread = cpu.thread()

    def worker():
        for _ in range(10):
            yield thread.run(100e-6)

    env.process(worker())
    env.run()
    assert cpu.counters.bursts == 10
    assert env.events_processed == 14


def _repro_calls(n_bursts):
    """Python calls into ``repro`` code while one thread runs ``n_bursts``
    back-to-back 100 us bursts on an idle core."""
    env = Environment()
    # A slice longer than the run: every burst after the first is sticky.
    cpu = CPU(env, default_calibration(cores=1, time_slice=1.0))
    thread = cpu.thread()

    def worker():
        for _ in range(n_bursts):
            yield thread.run(100e-6)

    env.process(worker())
    calls = count_calls(repro, env.run)
    assert cpu.counters.bursts == n_bursts
    assert cpu.counters.context_switches == 1
    return calls


def test_sticky_burst_python_call_count():
    """One sticky burst costs 8 calls into ``repro``: ``SimThread.run``,
    ``CPU._submit``, the core's ``dispatch``, ``run_quantum`` and
    ``finish``, the quantum's ``pooled_timeout``, ``succeed_in_place`` and
    the waiter's ``Process._resume``."""
    assert _repro_calls(20) - _repro_calls(10) == 10 * 8
