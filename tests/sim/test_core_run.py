"""Environment.run/peek semantics and determinism."""

import pytest

from repro.sim.core import PRIORITY_URGENT, Environment


def test_run_until_time_advances_clock(env):
    env.timeout(3)
    env.run(until=10)
    assert env.now == 10.0


def test_run_until_past_raises(env):
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_drains_queue_without_until(env):
    env.timeout(1)
    env.timeout(7)
    env.run()
    assert env.now == 7.0


def test_run_until_event_returns_value(env):
    def worker(env):
        yield env.timeout(2)
        return "v"

    process = env.process(worker(env))
    assert env.run(process) == "v"
    assert env.now == 2.0


def test_run_until_already_processed_event(env):
    timeout = env.timeout(1, value="x")
    env.run()
    assert env.run(timeout) == "x"


def test_run_until_event_unhooks_when_queue_drains(env):
    """An ``until`` event that never fired must not halt a later run."""
    gate = env.event()
    assert env.run(until=gate) is None  # queue empty: returns at once
    log = []

    def worker(env):
        yield env.timeout(1)
        gate.succeed()
        yield env.timeout(1)
        log.append(env.now)

    env.process(worker(env))
    env.run(until=5.0)
    assert log == [2.0]
    assert env.now == 5.0
    assert env.peek() == float("inf")


def test_peek_returns_next_event_time(env):
    assert env.peek() == float("inf")
    env.timeout(4)
    env.timeout(2)
    assert env.peek() == 2.0


def test_same_time_events_fifo_order(env):
    order = []
    for tag in ["a", "b", "c"]:
        event = env.timeout(1.0, value=tag)
        event.callbacks.append(lambda ev: order.append(ev.value))
    env.run()
    assert order == ["a", "b", "c"]


def test_urgent_priority_preempts_same_time(env):
    order = []
    normal = env.event()
    normal.succeed("normal")
    normal.callbacks.append(lambda ev: order.append(ev.value))
    urgent = env.event()
    urgent.succeed("urgent", priority=PRIORITY_URGENT)
    urgent.callbacks.append(lambda ev: order.append(ev.value))
    env.run()
    assert order == ["urgent", "normal"]


def test_clock_never_goes_backwards(env):
    times = []

    def worker(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    for delay in [5, 1, 3, 1, 4]:
        env.process(worker(env, delay))
    env.run()
    assert times == sorted(times)


def test_initial_time_offset():
    env = Environment(initial_time=100.0)
    env.timeout(5)
    env.run()
    assert env.now == 105.0


def test_run_is_deterministic_across_instances():
    def trace(env):
        log = []

        def worker(env, name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))
            yield env.timeout(delay)
            log.append((env.now, name))

        for i, delay in enumerate([0.3, 0.1, 0.2]):
            env.process(worker(env, f"w{i}", delay))
        env.run()
        return log

    assert trace(Environment()) == trace(Environment())
