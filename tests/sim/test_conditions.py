"""Composite events: all_of / any_of."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Environment


def test_all_of_waits_for_every_event(env):
    t1 = env.timeout(1, value="a")
    t2 = env.timeout(3, value="b")
    condition = env.all_of([t1, t2])
    env.run(condition)
    assert env.now == 3.0
    assert condition.value == {t1: "a", t2: "b"}


def test_any_of_returns_on_first(env):
    t1 = env.timeout(5, value="slow")
    t2 = env.timeout(1, value="fast")
    condition = env.any_of([t1, t2])
    env.run(condition)
    assert env.now == 1.0
    assert condition.value == {t2: "fast"}


def test_all_of_empty_succeeds_immediately(env):
    condition = env.all_of([])
    assert condition.triggered
    assert condition.value == {}


def test_any_of_empty_succeeds_immediately(env):
    condition = env.any_of([])
    assert condition.triggered


def test_condition_with_already_processed_children(env):
    t1 = env.timeout(1, value="x")
    env.run()
    t2 = env.timeout(1, value="y")
    condition = env.all_of([t1, t2])
    env.run(condition)
    assert condition.value == {t1: "x", t2: "y"}


def test_condition_fails_when_child_fails(env):
    def failer(env):
        yield env.timeout(1)
        raise ValueError("child died")

    child = env.process(failer(env))
    other = env.timeout(10)
    condition = env.all_of([child, other])
    with pytest.raises(ValueError, match="child died"):
        env.run(condition)


def test_condition_rejects_mixed_environments(env):
    other_env = Environment()
    t1 = env.timeout(1)
    t2 = other_env.timeout(1)
    with pytest.raises(SimulationError):
        env.all_of([t1, t2])


def test_any_of_result_includes_simultaneous_events(env):
    t1 = env.timeout(1, value="a")
    t2 = env.timeout(1, value="b")
    condition = env.any_of([t1, t2])
    env.run(condition)
    # Both trigger at t=1; the condition fires on the first processed but
    # collects every already-triggered child.
    assert t1 in condition.value


def test_process_can_yield_condition(env):
    def worker(env):
        t1 = env.timeout(2, value=1)
        t2 = env.timeout(4, value=2)
        results = yield env.all_of([t1, t2])
        return sum(results.values())

    process = env.process(worker(env))
    assert env.run(process) == 3


def test_fired_conditions_leave_no_callback_on_a_long_lived_child(env):
    """100 successive waits on one long-lived event, each lost to a timer
    (a pooled connection's ``on_close``): the event holds only the wait
    in progress, and nothing once every wait is over."""
    long_lived = env.event()

    def waiter(env):
        for _ in range(100):
            yield env.any_of([long_lived, env.timeout(1)])

    env.process(waiter(env))
    env.run(until=50.5)
    assert len(long_lived.callbacks) == 1
    env.run()
    assert long_lived.callbacks == []


def test_child_failing_after_its_condition_fired_is_not_defused(env):
    """A fired condition no longer watches its children, so a child that
    fails later, with nothing else waiting on it, raises out of run()."""

    def child(env):
        yield env.timeout(2)
        raise ValueError("late failure")

    def parent(env):
        yield env.any_of([env.process(child(env)), env.timeout(1)])

    env.process(parent(env))
    with pytest.raises(ValueError, match="late failure"):
        env.run()
