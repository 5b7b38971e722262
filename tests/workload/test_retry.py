"""Client-side resilience: RetryPolicy, timeouts, retries, reconnects."""

import random

import pytest

from repro.errors import WorkloadError
from repro.experiments.micro import MicroConfig, run_micro
from repro.experiments.parallel import SweepExecutor
from repro.faults import FaultPlan
from repro.metrics.collector import RunRecorder
from repro.net.messages import Request
from repro.resilience import RetryBudget, RetryBudgetConfig
from repro.servers.base import ServerLimits
from repro.servers.threaded import ThreadedServer
from repro.workload.client import ClosedLoopClient, RetryPolicy
from repro.workload.mixes import FixedMix

FAST_RETRY = RetryPolicy(timeout=0.01, max_retries=2, backoff_base=0.001, jitter=0.0)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"max_retries": -1},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"jitter": 1.0},
        {"jitter": -0.1},
    ],
)
def test_retry_policy_validation(kwargs):
    with pytest.raises(WorkloadError):
        RetryPolicy(**kwargs)


def test_backoff_grows_exponentially():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, jitter=0.0)
    rng = random.Random(0)
    assert policy.backoff(1, rng) == pytest.approx(0.1)
    assert policy.backoff(2, rng) == pytest.approx(0.2)
    assert policy.backoff(3, rng) == pytest.approx(0.4)


def test_backoff_jitter_is_bounded_and_deterministic():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=1.0, jitter=0.5)
    draws = [policy.backoff(1, random.Random(7)) for _ in range(3)]
    assert draws[0] == draws[1] == draws[2]  # same seed, same schedule
    rng = random.Random(3)
    for _ in range(100):
        delay = policy.backoff(1, rng)
        assert 0.05 <= delay <= 0.15


# ----------------------------------------------------------------------
# Resilient closed-loop client
# ----------------------------------------------------------------------
def serve(env, cpu, make_connection, **server_kwargs):
    server = ThreadedServer(env, cpu, **server_kwargs)
    conn = make_connection()
    server.attach(conn)
    return server, conn


def test_healthy_server_needs_no_retries(env, cpu, make_connection):
    _, conn = serve(env, cpu, make_connection)
    client = ClosedLoopClient(
        env, conn, FixedMix(100), random.Random(0), retry=RetryPolicy(timeout=1.0)
    )
    env.run(until=0.01)
    assert client.requests_completed > 3
    assert client.stats.successes == client.requests_completed
    assert client.stats.retries == 0
    assert client.stats.timeouts == 0
    assert client.stats.failures == 0


def test_unresponsive_server_times_out_and_fails(env, make_connection):
    # No server attached: requests are never answered.
    conn = make_connection()
    recorder = RunRecorder(env, warmup=0.0)
    client = ClosedLoopClient(
        env, conn, FixedMix(100), random.Random(0),
        recorder=recorder, retry=FAST_RETRY,
    )
    env.run(until=0.1)
    # No reconnect factory: the first timeout kills the only connection.
    assert client.stats.timeouts == 1
    assert client.stats.failures == 1
    assert client.stats.successes == 0
    assert recorder.failed == 1
    assert conn.closed


def test_reconnect_factory_enables_full_retry_budget(env, make_connection):
    conn = make_connection()
    client = ClosedLoopClient(
        env, conn, FixedMix(100), random.Random(0),
        retry=FAST_RETRY, reconnect=lambda: make_connection(),
    )
    env.run(until=0.06)
    # One logical request: initial attempt + max_retries, all timed out.
    assert client.stats.attempts >= 3
    assert client.stats.retries >= 2
    assert client.stats.failures >= 1
    assert client.stats.reconnects >= 2


def test_client_reconnects_after_server_side_close(env, cpu, make_connection):
    server = ThreadedServer(env, cpu)

    def fresh():
        conn = make_connection()
        server.attach(conn)
        return conn

    client = ClosedLoopClient(
        env, fresh(), FixedMix(100), random.Random(0),
        retry=RetryPolicy(timeout=1.0, backoff_base=0.0, jitter=0.0),
        reconnect=fresh,
    )
    env.run(until=0.005)
    completed_before = client.requests_completed
    assert completed_before > 0
    client.connection.close()
    env.run(until=0.015)
    assert client.stats.reconnects >= 1
    assert client.requests_completed > completed_before  # kept going


def test_rejections_are_counted_and_retried(env, cpu, make_connection):
    from tests.servers.test_shedding import SlowApplication

    server = ThreadedServer(
        env, cpu, app=SlowApplication(0.05), limits=ServerLimits(max_inflight=1)
    )
    conns = []
    for _ in range(2):
        conn = make_connection()
        server.attach(conn)
        conns.append(conn)
    clients = [
        ClosedLoopClient(
            env, conn, FixedMix(1000), random.Random(i),
            retry=RetryPolicy(timeout=1.0, max_retries=10, backoff_base=0.020,
                              jitter=0.0),
        )
        for i, conn in enumerate(conns)
    ]
    env.run(until=0.3)
    stats = [c.stats for c in clients]
    assert sum(s.rejected for s in stats) > 0
    assert sum(s.retries for s in stats) > 0
    assert sum(s.failures for s in stats) == 0  # rejections are not failures
    # The slot-holding client keeps making progress; the shed client backs
    # off (it may stay starved: zero think time re-occupies the slot
    # instantly, which is precisely why shedding picks a victim).
    assert any(c.requests_completed > 0 for c in clients)


def test_rejection_without_retry_budget_moves_on(env, cpu, make_connection):
    from tests.servers.test_shedding import SlowApplication

    server = ThreadedServer(
        env, cpu, app=SlowApplication(0.2), limits=ServerLimits(max_inflight=1)
    )
    blocker = make_connection()
    server.attach(blocker)
    blocker.send_request(Request(env, "x", 1000))  # occupies the only slot
    conn = make_connection()
    server.attach(conn)
    client = ClosedLoopClient(
        env, conn, FixedMix(1000), random.Random(0),
        retry=RetryPolicy(timeout=1.0, max_retries=0),
    )
    env.run(until=0.1)
    assert client.stats.rejected > 0
    assert client.stats.retries == 0
    assert client.stats.failures == 0


class AlwaysAbort:
    """Duck-typed stand-in for repro.faults.ClientFaults: abort every request."""

    def __init__(self):
        self.aborts = 0

    @property
    def abort_delay(self):
        return 0.005

    def should_abort(self):
        return True

    def record_abort(self):
        self.aborts += 1


def test_fault_injected_aborts_close_and_reconnect(env, make_connection):
    conn = make_connection()
    faults = AlwaysAbort()
    client = ClosedLoopClient(
        env, conn, FixedMix(100), random.Random(0),
        retry=RetryPolicy(timeout=1.0), reconnect=lambda: make_connection(),
        faults=faults,
    )
    env.run(until=0.05)
    assert client.stats.aborts >= 2
    assert client.stats.aborts == faults.aborts
    assert client.stats.reconnects >= 2


def test_connection_reset_is_not_a_client_abort():
    """Every request is reset and every wait is bounded by an abort delay
    longer than the run: no abort timer can fire, so each reset is retried
    or given up, and no client abort is counted."""
    result = run_micro(MicroConfig(
        "sTomcat-Sync", 2, duration=0.3, warmup=0.05,
        fault_plan=FaultPlan(
            client_abort_prob=1.0, client_abort_delay=1.0, reset_request_prob=1.0
        ),
        retry=RetryPolicy(timeout=2.0, max_retries=1),
    ))
    assert result.faults.connection_resets > 0
    assert result.faults.client_aborts == 0
    assert result.client_stats["aborts"] == 0
    assert result.client_stats["retries"] > 0


def test_give_up_counted_exactly_once_per_abandoned_request(env, make_connection):
    """Every abandoned logical request contributes exactly one failure —
    whether it dies at the retry gate or on a failed reconnect — and the
    attempt count brackets it: each failure burned at most 1+max_retries
    attempts, plus at most one logical request still in flight at cutoff."""
    recorder = RunRecorder(env, warmup=0.0)
    client = ClosedLoopClient(
        env, make_connection(), FixedMix(100), random.Random(0),
        recorder=recorder, retry=FAST_RETRY, reconnect=lambda: make_connection(),
    )
    env.run(until=0.2)
    stats = client.stats
    assert stats.failures >= 3  # several logical requests fully abandoned
    assert recorder.failed == stats.failures
    per_request = 1 + FAST_RETRY.max_retries
    assert stats.failures * per_request <= stats.attempts
    assert stats.attempts <= (stats.failures + 1) * per_request
    assert stats.failures * FAST_RETRY.max_retries <= stats.retries
    assert stats.retries <= (stats.failures + 1) * FAST_RETRY.max_retries


def test_jittered_backoff_identical_across_jobs():
    """The jittered retry schedule is part of the deterministic contract:
    a fault-injected micro sweep must be bit-identical under --jobs 1 and
    --jobs 4."""
    retry = RetryPolicy(timeout=0.05, max_retries=3, backoff_base=0.01,
                        backoff_factor=2.0, jitter=0.5)
    points = {
        seed: MicroConfig(
            server="SingleT-Async", concurrency=4, response_size=10 * 1024,
            duration=0.6, warmup=0.2, seed=seed,
            fault_plan=FaultPlan(reset_after_requests=3), retry=retry,
        )
        for seed in (1, 2, 3, 4)
    }
    serial = SweepExecutor("retry-det", jobs=1, cache_dir=None).map_micro(points)
    fanned = SweepExecutor("retry-det", jobs=4, cache_dir=None).map_micro(points)
    assert serial == fanned
    assert any(r.client_stats["retries"] > 0 for r in serial.values())


# ----------------------------------------------------------------------
# Retry budget and deadline at the client
# ----------------------------------------------------------------------
def test_retry_budget_gates_client_retries(env, make_connection):
    # ratio=0 with a single starting token: the population may retry
    # exactly once, ever; every later timeout must give up immediately.
    budget = RetryBudget(RetryBudgetConfig(ratio=0.0, cap=1.0, initial=1.0))
    client = ClosedLoopClient(
        env, make_connection(), FixedMix(100), random.Random(0),
        retry=FAST_RETRY, reconnect=lambda: make_connection(), budget=budget,
    )
    env.run(until=0.2)
    assert client.stats.retries == 1
    assert budget.granted == 1
    assert budget.denied >= 1
    assert client.stats.failures >= 2  # the budget-starved requests give up


def test_deadline_shorter_than_timeout_fails_without_spending_budget(
    env, make_connection
):
    # The logical deadline (2 ms) undercuts the per-attempt timeout (10 ms):
    # each request gets one truncated attempt, then the deadline gate
    # refuses the retry for free — no budget token is ever consumed.
    budget = RetryBudget(RetryBudgetConfig(ratio=0.5, cap=10.0, initial=5.0))
    client = ClosedLoopClient(
        env, make_connection(), FixedMix(100), random.Random(0),
        retry=FAST_RETRY, reconnect=lambda: make_connection(),
        budget=budget, deadline=0.002,
    )
    env.run(until=0.1)
    assert client.stats.failures >= 3
    # One attempt per logical request (+ at most one still in flight).
    assert client.stats.failures <= client.stats.attempts
    assert client.stats.attempts <= client.stats.failures + 1
    assert client.stats.retries == 0
    assert budget.granted == 0
    assert budget.denied == 0  # refused by the deadline, not the bucket
