"""The circuit breaker's closed → open → half-open state machine."""

import pytest

from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    RetryBudget,
    RetryBudgetConfig,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN

CONFIG = BreakerConfig(
    window=10, min_samples=4, failure_threshold=0.5,
    open_duration=1.0, half_open_probes=2,
)


def advance(env, seconds):
    """Move the simulation clock forward by ``seconds``."""
    env.timeout(seconds)
    env.run()


def test_starts_closed_and_allows(env):
    breaker = CircuitBreaker(env, CONFIG)
    assert breaker.state == CLOSED
    assert breaker.allow()
    assert breaker.fast_failures == 0


def test_stays_closed_below_min_samples(env):
    breaker = CircuitBreaker(env, CONFIG)
    for _ in range(CONFIG.min_samples - 1):
        breaker.record_failure()
    assert breaker.state == CLOSED


def test_trips_at_failure_threshold(env):
    breaker = CircuitBreaker(env, CONFIG)
    for _ in range(CONFIG.min_samples):
        breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.opens == 1
    assert not breaker.allow()
    assert breaker.fast_failures == 1


def test_successes_dilute_failures_below_threshold(env):
    breaker = CircuitBreaker(env, CONFIG)
    for _ in range(6):
        breaker.record_success()
    for _ in range(4):
        breaker.record_failure()
    # 4 failures / 10 outcomes = 40% < 50% threshold.
    assert breaker.state == CLOSED


def test_trips_when_the_failure_ratio_equals_the_threshold(env):
    breaker = CircuitBreaker(env, CONFIG)
    breaker.record_success()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    # 2 failures / 4 outcomes = 50%, the threshold itself.
    assert breaker.state == OPEN
    assert breaker.opens == 1


def _trip(env, breaker):
    for _ in range(CONFIG.min_samples):
        breaker.record_failure()
    assert breaker.state == OPEN


def test_half_open_admits_bounded_probes(env):
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    advance(env, CONFIG.open_duration)
    assert breaker.state == HALF_OPEN
    assert breaker.allow()
    assert breaker.allow()
    assert not breaker.allow()  # probe quota (2) exhausted
    assert breaker.fast_failures == 1


def test_release_frees_one_half_open_slot_and_nothing_else(env):
    breaker = CircuitBreaker(env, CONFIG)
    breaker.release()  # closed: admissions hold nothing
    assert breaker.state == CLOSED
    _trip(env, breaker)
    advance(env, CONFIG.open_duration)
    assert breaker.allow() and breaker.allow()
    assert not breaker.allow()
    breaker.release()
    assert breaker.allow()
    for _ in range(3):
        breaker.release()  # never below zero
    assert breaker.allow() and breaker.allow()
    assert not breaker.allow()


def test_probe_successes_close_the_breaker(env):
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    advance(env, CONFIG.open_duration)
    for _ in range(CONFIG.half_open_probes):
        assert breaker.allow()
        breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.closes == 1
    assert breaker.allow()


def test_failed_probe_reopens_immediately(env):
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    advance(env, CONFIG.open_duration)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.opens == 2
    assert not breaker.allow()


def test_failures_while_open_are_ignored(env):
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    breaker.record_failure()  # the in-flight stragglers keep failing
    assert breaker.opens == 1  # no double trip


def test_down_for_entire_probe_window_reopens_each_cycle(env):
    """Upstream dead across every probe window: each half-open cycle
    admits its probes, the first failure re-opens, and ``opens`` counts
    exactly one transition per cycle."""
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    for cycle in range(1, 4):
        advance(env, CONFIG.open_duration)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe goes out...
        breaker.record_failure()  # ...and dies against the down upstream
        assert breaker.state == OPEN
        assert breaker.opens == 1 + cycle
        # Until the next window expires everything fast-fails.
        assert not breaker.allow()


def test_straggler_probe_outcomes_are_counted_exactly_once(env):
    """Two concurrent probes: the first failure re-opens; the second
    probe's outcome (failure *or* late success) must not double-trip,
    close, or pollute the next cycle's window."""
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    advance(env, CONFIG.open_duration)
    assert breaker.allow() and breaker.allow()  # both probes in flight
    breaker.record_failure()
    assert breaker.state == OPEN and breaker.opens == 2
    breaker.record_failure()  # straggler probe fails too
    assert breaker.opens == 2  # not a second transition
    breaker.record_success()  # or even comes back late and "succeeds"
    assert breaker.state == OPEN and breaker.closes == 0
    # The next cycle starts clean: a full probe quota of successes is
    # still required to close (no leftover probe bookkeeping).
    advance(env, CONFIG.open_duration)
    for _ in range(CONFIG.half_open_probes):
        assert breaker.allow()
        breaker.record_success()
    assert breaker.state == CLOSED and breaker.closes == 1


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a probe is not tied to the half-open episode that admitted it; "
        "the fix needs an admission token threaded through route() and "
        "call_downstream, and may move the resilience result pins"
    ),
)
def test_stale_probe_outcome_does_not_count_in_a_later_episode(env):
    """A probe admitted before a re-trip that reports success after the
    breaker re-entered half-open belongs to the earlier episode: it frees
    no slot of the new one and is not one of its successes."""
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    advance(env, CONFIG.open_duration)
    assert breaker.allow() and breaker.allow()  # probes A and B
    breaker.record_failure()  # B fails: re-open
    assert breaker.state == OPEN
    advance(env, CONFIG.open_duration)
    assert breaker.allow() and breaker.allow()  # probes C and D
    breaker.record_success()  # A comes back late
    assert not breaker.allow()  # C and D still hold both slots
    breaker.record_success()  # C
    assert breaker.state == HALF_OPEN  # D has not reported yet
    assert breaker.closes == 0


def test_reopen_cycles_do_not_leak_retry_budget_tokens(env):
    """Clients retrying through a breaker that is re-opening against a
    down upstream spend retry-budget tokens only for retries they
    actually issue — breaker bookkeeping (probe admissions, fast
    failures, re-opens) never touches the bucket."""
    breaker = CircuitBreaker(env, CONFIG)
    budget = RetryBudget(RetryBudgetConfig(ratio=0.5, initial=0.0, cap=10.0))
    _trip(env, breaker)
    retries_issued = 0
    for _ in range(40):  # requests against a permanently-down upstream
        budget.on_request()
        if breaker.allow():
            breaker.record_failure()  # probe or regular call: it dies
        if budget.try_spend():
            retries_issued += 1
            if breaker.allow():
                breaker.record_failure()
        advance(env, CONFIG.open_duration / 4)
    # Exact conservation: deposits in, one whole token per granted
    # retry out — regardless of how many probes the breaker admitted,
    # fast-failed, or re-opened along the way.
    assert budget.granted == retries_issued
    assert budget.tokens == budget.deposited - budget.granted
    assert budget.granted + budget.denied == 40
    assert breaker.opens > 1  # the upstream really was down all along


def test_reset_restores_cold_state_but_keeps_accounting(env):
    """A crash-restart wipes the breaker's memory (state, window, probe
    bookkeeping) without erasing what it did before dying."""
    breaker = CircuitBreaker(env, CONFIG)
    _trip(env, breaker)
    advance(env, CONFIG.open_duration)
    assert breaker.allow()  # leave a probe dangling mid-restart
    breaker.reset()
    assert breaker.state == CLOSED
    assert breaker.opens == 1  # cumulative counters survive
    assert breaker.allow()
    # The window restarts empty: min_samples fresh failures to re-trip.
    for _ in range(CONFIG.min_samples - 1):
        breaker.record_failure()
    assert breaker.state == CLOSED
    breaker.record_failure()
    assert breaker.state == OPEN and breaker.opens == 2


def test_counters_are_namespaced(env):
    breaker = CircuitBreaker(env, CONFIG, name="apache-tomcat")
    _trip(env, breaker)
    assert not breaker.allow()
    counters = breaker.counters()
    assert counters["apache-tomcat_opens"] == 1.0
    assert counters["apache-tomcat_fast_failures"] == 1.0
    assert counters["apache-tomcat_closes"] == 0.0
