"""Tier applications: proxy, servlet, query."""

import pytest

from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.ntier.applications import (
    QUERY_BYTE_CPU,
    QUERY_CPU,
    ProxyApplication,
    QueryApplication,
    ServletApplication,
    call_downstream,
    route,
)
from repro.ntier.pool import ConnectionPool
from repro.ntier.topology import NTierConfig, ThreeTierSystem
from repro.replica import Replica, ReplicaConfig, ReplicaGroup
from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    HedgeConfig,
    HedgePolicy,
    ResiliencePolicy,
)
from repro.servers.threaded import ThreadedServer
from repro.workload.rubbos import interaction_table


def test_query_application_uses_metadata_cpu(env, cpu):
    app = QueryApplication()
    server = ThreadedServer(env, cpu, app=app)
    thread = cpu.thread()
    request = Request(env, "q", 1000)
    request.metadata["db_cpu"] = 5e-3

    def runner(env):
        yield from app.service(server, thread, request)

    env.process(runner(env))
    env.run()
    assert cpu.counters.busy_user >= 5e-3


def test_query_application_default_cpu(env, cpu):
    app = QueryApplication()
    server = ThreadedServer(env, cpu, app=app)
    thread = cpu.thread()
    request = Request(env, "q", 1000)

    def runner(env):
        yield from app.service(server, thread, request)

    env.process(runner(env))
    env.run()
    assert cpu.counters.busy_user == pytest.approx(QUERY_CPU + QUERY_BYTE_CPU * 1000)


def test_proxy_forwards_and_returns_same_size(env, cpu, lan, calib):
    downstream = ThreadedServer(env, cpu)
    pool = ConnectionPool(env, downstream, 2, lan, calib)
    proxy_app = ProxyApplication(pool)
    front = ThreadedServer(env, cpu, app=proxy_app)
    conn = Connection(env, lan, calib)
    front.attach(conn)
    request = Request(env, "page", 5000)
    conn.send_request(request)
    env.run(request.completed)
    assert request.completed_at is not None
    assert downstream.stats.requests_completed == 1
    assert pool.in_use == 0  # released


def test_servlet_issues_interaction_queries(env, cpu, lan, calib):
    db = ThreadedServer(env, cpu, app=QueryApplication())
    pool = ConnectionPool(env, db, 2, lan, calib)
    app = ServletApplication(pool)
    tomcat = ThreadedServer(env, cpu, app=app)
    conn = Connection(env, lan, calib)
    tomcat.attach(conn)
    interaction = interaction_table()["ViewStory"]  # 2 queries
    request = Request(env, interaction.name, interaction.response_size)
    request.metadata["interaction"] = interaction
    conn.send_request(request)
    env.run(request.completed)
    assert db.stats.requests_completed == len(interaction.queries) == 2


def test_servlet_without_pool_skips_queries(env, cpu):
    app = ServletApplication(None)
    tomcat = ThreadedServer(env, cpu, app=app)
    thread = cpu.thread()
    interaction = interaction_table()["ViewStory"]
    request = Request(env, interaction.name, interaction.response_size)
    request.metadata["interaction"] = interaction

    def runner(env):
        size = yield from app.service(tomcat, thread, request)
        return size

    process = env.process(runner(env))
    assert env.run(process) == interaction.response_size


def test_servlet_falls_back_for_plain_requests(env, cpu, calib):
    app = ServletApplication(None)
    tomcat = ThreadedServer(env, cpu, app=app)
    thread = cpu.thread()
    request = Request(env, "plain", 3000)

    def runner(env):
        size = yield from app.service(tomcat, thread, request)
        return size

    process = env.process(runner(env))
    assert env.run(process) == 3000
    assert cpu.counters.busy_user == pytest.approx(calib.request_cpu_cost(3000))


def _pool(env, cpu, lan, calib, name, tripped=False):
    """A one-connection pool with a named breaker, optionally open."""
    breaker = CircuitBreaker(env, BreakerConfig(), name=name)
    while tripped and breaker.state != "open":
        breaker.record_failure()
    return ConnectionPool(env, ThreadedServer(env, cpu), 1, lan, calib, breaker=breaker)


def _group(env, cpu, lan, calib, tripped):
    """A round-robin group of two replicas; ``tripped`` opens breakers."""
    replicas = [
        Replica(i, None, cpu, _pool(env, cpu, lan, calib, f"r{i}", i in tripped))
        for i in range(2)
    ]
    return ReplicaGroup(env, ReplicaConfig(replicas=2), replicas), replicas


def test_route_fast_fails_a_pool_whose_breaker_is_open(env, cpu, lan, calib):
    healthy = _pool(env, cpu, lan, calib, "healthy")
    sick = _pool(env, cpu, lan, calib, "sick", tripped=True)
    assert route(healthy) is healthy
    assert route(sick) is None
    assert sick.breaker.fast_failures == 1


def test_route_gives_the_other_replica_a_chance(env, cpu, lan, calib):
    group, replicas = _group(env, cpu, lan, calib, tripped={0})
    assert route(group) is replicas[1]
    assert replicas[0].pool.breaker.fast_failures == 1
    assert group.balancer.picks == 2


def test_route_fast_fails_when_both_replicas_are_open(env, cpu, lan, calib):
    group, replicas = _group(env, cpu, lan, calib, tripped={0, 1})
    assert route(group) is None
    assert [r.pool.breaker.fast_failures for r in replicas] == [1, 1]


def test_hedge_backup_honours_its_replicas_breaker(env, lan, calib):
    """A backup bound for a replica whose breaker is open is refused like
    any other call there: no hedge, no budget token, one fast failure."""
    system = ThreeTierSystem(env, NTierConfig(
        "async", users=1, duration=1.0, warmup=0.5,
        resilience=ResiliencePolicy(breaker=BreakerConfig()),
        replica=ReplicaConfig(replicas=2),
    ))
    backup_breaker = system.tomcats["tomcat1"].pool.breaker
    while backup_breaker.state != "open":
        backup_breaker.record_failure()
    system.tomcats["tomcat0"].cpu.slowdown = 50
    hedge = HedgePolicy(HedgeConfig(min_delay=0.001, initial_delay=0.001))
    system.web_server.app.hedge = hedge

    conn = Connection(env, lan, calib)
    system.web_server.attach(conn)
    request = Request(env, "page", 5000)
    conn.send_request(request)
    env.run(request.completed)

    assert hedge.hedges_issued == 0
    assert backup_breaker.fast_failures == 1
    assert not request.metadata.get("rejected")


def test_cancelled_probes_give_their_breaker_slots_back(env, cpu, lan, calib):
    """A half-open breaker whose every probe was cancelled (a hedge loser,
    a fan-in cut) is not judged by them, but must admit probes again."""
    config = BreakerConfig(open_duration=1.0, half_open_probes=2)
    breaker = CircuitBreaker(env, config, name="sick")
    pool = ConnectionPool(env, ThreadedServer(env, cpu), 2, lan, calib, breaker=breaker)
    while breaker.state != "open":
        breaker.record_failure()
    env.run(until=config.open_duration)
    caller = ThreadedServer(env, cpu)
    cancel = env.event()

    def probe():
        routed = route(pool)
        assert routed is pool
        status, _ = yield from call_downstream(
            caller, cpu.thread(), routed,
            lambda: Request(env, "page", 5000), None, cancel,
        )
        return status

    probes = [env.process(probe()) for _ in range(config.half_open_probes)]
    env.run(until=env.now + 10.0e-6)
    cancel.succeed()
    env.run(until=env.now + 100.0)
    assert [p.value for p in probes] == ["cancelled"] * config.half_open_probes
    assert breaker.state == "half-open"
    assert [breaker.allow() for _ in range(3)] == [True, True, False]
