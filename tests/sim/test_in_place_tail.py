"""The tail of an in-place completion keeps the heap's order.

``Environment.succeed_in_place`` delivers the same-instant events that a
completion's callbacks and continuation trigger (its *tail*) in place,
but only while each would have been the heap's very next pop.  Each test
runs one scenario twice: through ``succeed_in_place``, and through the
plain schedule it stands for (``done.succeed()`` and then a zero-delay
pooled timer carrying the continuation).  The two must log the same
steps in the same order.  Every test has a scenario that queues
something which must run before part of the tail, so a tail delivered
without the next-pop check fails it.
"""

import pytest

from repro.errors import InterruptError
from repro.sim.core import Environment


class _CheckedEnv(Environment):
    """Records the tail buffer and the elided count after every
    ``succeed_in_place``, however it ended."""

    def __init__(self):
        super().__init__()
        self.after_calls = []

    def succeed_in_place(self, event, resume):
        try:
            super().succeed_in_place(event, resume)
        finally:
            self.after_calls.append((self._tail, self._elided))


def _complete(env, on_done, resume, in_place):
    """At t=1 a timer's only callback completes an event whose callback is
    ``on_done``, with ``resume`` as its continuation: in place, or through
    the plain schedule."""
    done = env.event()
    done.callbacks.append(on_done)

    def fire(_timer):
        if in_place:
            env.succeed_in_place(done, resume)
        else:
            done.succeed()
            env.pooled_timeout(0.0).callbacks.append(resume)

    env.timeout(1.0).callbacks.append(fire)


def _logged(env, log, name):
    """A fresh event that logs ``name`` when processed."""
    event = env.event()
    event.callbacks.append(lambda _e: log.append(name))
    return event


def _both(scenario):
    """``scenario(env, log, in_place)`` run plain and in place: both logs
    and the in-place environment."""
    results = []
    for in_place in (False, True):
        env = _CheckedEnv()
        log = []
        scenario(env, log, in_place)
        results.append((log, env))
    (plain, _), (in_place, env) = results
    return plain, in_place, env


def test_tail_event_behind_an_earlier_entry_pops_in_heap_order():
    def scenario(env, log, in_place, earlier):
        handoff = _logged(env, log, "handoff")

        def on_done(_e):
            log.append("done")
            if earlier:
                # Queued at (now, NORMAL) before the hand-off triggers.
                env.timeout(0.0).callbacks.append(lambda _e: log.append("timer"))
            handoff.succeed()

        _complete(env, on_done, lambda _e: log.append("resume"), in_place)
        env.run()

    # Nothing queued in between: the hand-off runs in place, so the done
    # event, the continuation timer and the hand-off are not heap pops.
    plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, False))
    assert plain == in_place == ["done", "resume", "handoff"]
    assert env.events_processed == 1
    # A same-instant timer queued first pops first.
    plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, True))
    assert plain == in_place == ["done", "resume", "timer", "handoff"]
    assert env.events_processed == 3
    assert env.after_calls == [(None, 0)]


@pytest.mark.parametrize("urgent", ["process", "interrupt"])
def test_urgent_entry_created_in_a_completion_flushes_the_tail(urgent):
    """An ``Initialize`` (a new process) or an ``Interruption`` sorts
    before the whole tail, so the tail waits in the heap behind it,
    whether the completion's callbacks or its continuation made it."""

    def scenario(env, log, in_place, where):
        def sleeper():
            try:
                yield env.timeout(5.0)
            except InterruptError:
                log.append("interrupted")

        def child():
            log.append("child")
            yield env.timeout(0.0)

        sleeping = env.process(sleeper())
        handoff = _logged(env, log, "handoff")

        def step(name):
            def callback(_e):
                log.append(name)
                if name == where:
                    handoff.succeed()
                    if urgent == "process":
                        env.process(child())
                    else:
                        sleeping.interrupt()
            return callback

        _complete(env, step("done"), step("resume"), in_place)
        env.run()

    first = "child" if urgent == "process" else "interrupted"
    expected = {
        "done": ["done", first, "resume", "handoff"],
        "resume": ["done", "resume", first, "handoff"],
    }
    for where, steps in expected.items():
        plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, where))
        assert plain == in_place == steps, where
        assert env.after_calls == [(None, 0)], where


def test_failed_tail_event_with_no_waiter_raises_from_run():
    def scenario(env, log, in_place, earlier):
        def resume(_e):
            if earlier:
                env.timeout(0.0).callbacks.append(lambda _e: log.append("timer"))
            env.event().fail(ValueError("boom"))
            _logged(env, log, "later").succeed()

        _complete(env, lambda _e: log.append("done"), resume, in_place)
        with pytest.raises(ValueError, match="boom"):
            env.run()
        log.append("raised")
        # The event behind the failure is still queued.
        env.run()

    # Delivered in place: the run loop's unhandled-failure check runs there.
    plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, False))
    assert plain == in_place == ["done", "raised", "later"]
    assert env.after_calls == [(None, 0)]
    # Behind a same-instant timer: the timer runs before run() raises.
    plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, True))
    assert plain == in_place == ["done", "timer", "raised", "later"]
    assert env.after_calls == [(None, 0)]


def test_run_until_a_tail_event_leaves_the_rest_queued():
    def scenario(env, log, in_place, earlier):
        target = _logged(env, log, "target")
        after = _logged(env, log, "after")

        def resume(_e):
            if earlier:
                env.timeout(0.0).callbacks.append(lambda _e: log.append("timer"))
            target.succeed("value")
            after.succeed()

        _complete(env, lambda _e: log.append("done"), resume, in_place)
        log.append(env.run(until=target))
        log.append(after.triggered and not after.processed)
        env.run()

    plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, False))
    assert plain == in_place == ["done", "target", "value", True, "after"]
    assert env.after_calls == [(None, 0)]
    plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, True))
    assert plain == in_place == ["done", "timer", "target", "value", True, "after"]
    assert env.after_calls == [(None, 0)]


def test_tail_is_empty_after_every_completion_even_when_a_callback_raises():
    """Whichever step raises (a completion callback, the continuation, a
    tail event behind a same-instant timer), the continuation and every
    triggered event are queued at their keys, the buffer is gone and
    nothing stays counted as elided; the next ``run()`` goes on in the
    plain order."""

    def scenario(env, log, in_place, raiser):
        def step(name):
            def callback(_e):
                log.append(name)
                if name == raiser:
                    raise RuntimeError(name)
            return callback

        first = env.event()
        first.callbacks.append(step("first"))
        second = env.event()
        second.callbacks.append(step("second"))

        def on_done(_e):
            first.succeed()
            env.timeout(0.0).callbacks.append(step("timer"))
            second.succeed()
            step("done")(_e)

        _complete(env, on_done, step("resume"), in_place)
        with pytest.raises(RuntimeError, match=raiser):
            env.run()
        log.append("raised")
        env.run()

    expected = {
        "done": ["done", "raised", "resume", "first", "timer", "second"],
        "resume": ["done", "resume", "raised", "first", "timer", "second"],
        "second": ["done", "resume", "first", "timer", "second", "raised"],
    }
    for raiser, steps in expected.items():
        plain, in_place, env = _both(lambda e, l, p: scenario(e, l, p, raiser))
        assert plain == in_place == steps, raiser
        assert env.after_calls == [(None, 0)], raiser
        assert env._queue == [], raiser
