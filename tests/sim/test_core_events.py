"""Event lifecycle semantics of the DES kernel."""

import pytest

from repro.errors import EventLifecycleError
from repro.sim.core import Environment, Event, Timeout


def test_new_event_is_untriggered(env):
    event = env.event()
    assert not event.triggered
    assert not event.processed
    assert event.ok  # default before failure


def test_value_before_trigger_raises(env):
    event = env.event()
    with pytest.raises(EventLifecycleError):
        _ = event.value


def test_succeed_carries_value(env):
    event = env.event()
    event.succeed(42)
    assert event.triggered
    assert event.value == 42
    assert event.ok


def test_succeed_none_is_a_valid_value(env):
    event = env.event()
    event.succeed()
    assert event.triggered
    assert event.value is None


def test_double_succeed_raises(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(EventLifecycleError):
        event.succeed(2)


def test_fail_then_succeed_raises(env):
    event = env.event()
    event.fail(ValueError("x"))
    event.defused = True
    with pytest.raises(EventLifecycleError):
        event.succeed(1)


def test_fail_requires_exception(env):
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_fail_records_exception_value(env):
    event = env.event()
    exc = ValueError("boom")
    event.fail(exc)
    event.defused = True
    assert not event.ok
    assert event.value is exc


def test_callbacks_run_once_on_processing(env):
    event = env.event()
    calls = []
    event.callbacks.append(lambda ev: calls.append(ev.value))
    event.succeed("x")
    assert calls == []  # not yet processed
    env.run()
    assert calls == ["x"]
    assert event.processed


def test_processed_event_has_no_callback_list(env):
    event = env.event()
    event.succeed()
    env.run()
    assert event.callbacks is None


def test_timeout_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_triggers_at_its_time(env):
    timeout = env.timeout(2.5, value="done")
    env.run()
    assert env.now == pytest.approx(2.5)
    assert timeout.value == "done"


def test_zero_timeout_processes_immediately(env):
    timeout = env.timeout(0.0)
    env.run()
    assert env.now == 0.0
    assert timeout.processed


def test_unhandled_failed_event_raises_from_run(env):
    event = env.event()
    event.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_defused_failed_event_does_not_raise(env):
    event = env.event()
    event.fail(RuntimeError("handled"))
    event.defused = True
    env.run()  # no exception


def test_repr_shows_state(env):
    event = env.event()
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    env.run()
    assert "processed" in repr(event)
