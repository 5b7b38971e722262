"""Property-based tests of the CPU scheduler (hypothesis)."""

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import default_calibration
from repro.cpu.accounting import CPUCounters
from repro.cpu.scheduler import _RUNNING, CPU, _Burst
from repro.errors import InterruptError
from repro.sim.core import PRIORITY_NORMAL, Environment

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

    def _submit(self, thread, user, system):
        user = user * self.calibration.thread_footprint_factor(self.live_threads)
        burst = _Burst(thread, user, system)
        self.counters.bursts += 1
        if burst.remaining <= 0.0:
            return burst.succeed()
        thread._pending = burst
        self._enqueue(burst)
        if self._idle_cores:
            core = self._idle_cores.pop()
            if core.wakeup is not None and not core.wakeup.triggered:
                core.wakeup.succeed()
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
            burst.state = _RUNNING
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
                quantum = min(burst.remaining, core.slice_left, calib.time_slice)
            else:
                quantum = burst.remaining
            user_part, sys_part = burst.consume(quantum)
            self.counters.busy_user += user_part
            self.counters.busy_system += sys_part
            if quantum > 0:
                yield env.pooled_timeout(quantum)
            core.slice_left -= quantum
            if burst.remaining > 1e-15:
                burst.preempted = True
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
        # Count the zero-delay core timer the reference heap would hold.
        self.compactions.append((self._now, len(self._queue) + self._elided))
        super()._compact()


_DURATIONS = (50e-6, 100e-6, 100e-6, 2.5e-3)  # repeats make same-time ties
_ACTIONS = ("none", "spawn", "interrupt", "succeed", "abandon")

_scenarios = st.tuples(
    st.integers(min_value=1, max_value=2),  # cores
    # Switch cost (base, alpha): a flat or zero cost lets two cores finish
    # identical bursts at the very same instant.
    st.sampled_from(((2e-6, 0.6), (2e-6, 0.0), (0.0, 0.0))),
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


def _run_scenario(cpu_cls, cores, switch_cost, plans):
    """Drive ``plans`` on a fresh CPU; returns (trace, counters, now, env)."""
    env = _CountingEnv()
    base, alpha = switch_cost
    calibration = default_calibration(
        cores=cores, context_switch_base=base, context_switch_alpha=alpha
    )
    cpu = cpu_cls(env, calibration)
    trace = []
    live = [len(plans)]

    def sleeper():
        while True:
            try:
                yield env.timeout(5.0)
            except InterruptError as exc:
                trace.append((env.now, "sleeper", exc.cause))
                if exc.cause == "stop":
                    return

    sleeping = env.process(sleeper())

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
            burst = thread.run_split(user, system)
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
        live[0] -= 1
        if live[0] == 0:
            sleeping.interrupt("stop")

    for index, plan in enumerate(plans):
        env.process(waiter(f"t{index}", cpu.thread(f"t{index}"), plan))
    env.run()
    return trace, dataclasses.astuple(cpu.counters), env.now, env


def test_in_place_completion_matches_generator_core():
    fired = {"done_queued": 0, "resume_queued": 0}

    @given(scenario=_scenarios)
    @settings(max_examples=150, deadline=None)
    def check(scenario):
        *got, env = _run_scenario(CPU, *scenario)
        *want, ref_env = _run_scenario(_ReferenceCPU, *scenario)
        assert got == want
        assert env.compactions == ref_env.compactions
        fired["done_queued"] += env.done_queued
        fired["resume_queued"] += env.resume_queued

    check()
    assert fired["done_queued"] > 0
    assert fired["resume_queued"] > 0


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
    the core, then one quantum timer per burst -- 15 events, where the
    heap-delivered completion processed 35."""
    env = Environment()
    cpu = CPU(env, default_calibration(cores=1))
    thread = cpu.thread()

    def worker():
        for _ in range(10):
            yield thread.run(100e-6)

    env.process(worker())
    env.run()
    assert cpu.counters.bursts == 10
    assert env.events_processed == 15
