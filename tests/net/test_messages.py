"""Request message lifecycle."""

import pytest

from repro.net.messages import Request


def test_validation(env):
    with pytest.raises(ValueError):
        Request(env, "x", response_size=-1)
    with pytest.raises(ValueError):
        Request(env, "x", response_size=10, request_size=0)


def test_created_at_stamped(env):
    env.timeout(2)
    env.run()
    request = Request(env, "x", 100)
    assert request.created_at == 2.0


def test_ids_are_unique_and_increasing(env):
    a = Request(env, "x", 1)
    b = Request(env, "x", 1)
    assert b.id > a.id


def test_response_time_none_until_completed(env):
    request = Request(env, "x", 100)
    assert request.response_time is None


def test_mark_completed_sets_time_and_triggers_event(env):
    request = Request(env, "x", 100)
    env.timeout(1.5)
    env.run()
    request.mark_completed()
    assert request.completed_at == 1.5
    assert request.response_time == pytest.approx(1.5)
    assert request.completed.triggered
    assert request.completed.value is None


def test_mark_completed_is_idempotent(env):
    request = Request(env, "x", 100)
    request.mark_completed()
    first = request.completed_at
    env.timeout(1)
    env.run()
    request.mark_completed()
    assert request.completed_at == first


def test_metadata_and_counters_default_empty(env):
    request = Request(env, "x", 100)
    assert request.metadata == {}
    assert request.write_calls == 0
    assert request.zero_writes == 0
