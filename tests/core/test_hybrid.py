"""HybridNetty path selection (the Figure 10 dispatch)."""

import pytest

from repro.core.hybrid import HybridServer, PathCategory
from repro.net.messages import Request

SMALL = 102
LARGE = 100 * 1024


def serve(env, server, conn, size, kind):
    request = Request(env, kind, size)
    conn.send_request(request)
    env.run(request.completed)
    return request


def test_warmup_takes_heavy_path(env, cpu, make_connection):
    """Unprofiled types go down the safe Netty path first."""
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    request = serve(env, server, conn, SMALL, "small")
    assert request.metadata["path"] == "heavy"
    assert server.heavy_path_requests == 1
    assert server.light_path_requests == 0


def test_light_type_switches_to_light_path(env, cpu, make_connection):
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    serve(env, server, conn, SMALL, "small")  # warm-up observation
    second = serve(env, server, conn, SMALL, "small")
    assert second.metadata["path"] == "light"
    assert server.path_map["small"] is PathCategory.LIGHT
    assert server.light_path_requests == 1


def test_heavy_type_stays_on_netty_path(env, cpu, make_connection):
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    serve(env, server, conn, LARGE, "big")
    second = serve(env, server, conn, LARGE, "big")
    assert second.metadata["path"] == "heavy"
    assert server.path_map["big"] is PathCategory.HEAVY


def test_misclassified_light_falls_back_and_reclassifies(env, cpu, make_connection):
    """A type profiled light whose response grows past the buffer spins:
    the hybrid must finish it via the Netty machinery and flip the map."""
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    serve(env, server, conn, SMALL, "page")  # profiled light
    serve(env, server, conn, SMALL, "page")
    assert server.path_map["page"] is PathCategory.LIGHT
    assert server.stats.reclassifications == 0
    grown = serve(env, server, conn, LARGE, "page")  # dataset grew
    assert grown.completed_at is not None
    assert grown.metadata["path"] == "light->heavy"
    assert server.light_path_fallbacks == 1
    assert server.path_map["page"] is PathCategory.HEAVY
    # The fallback and the map flip are one reclassification, not two.
    assert server.stats.reclassifications == 1
    # Next request of the type goes straight down the heavy path.
    nxt = serve(env, server, conn, LARGE, "page")
    assert nxt.metadata["path"] == "heavy"
    # It shrinks back: the heavy path's single write flips it once more.
    serve(env, server, conn, SMALL, "page")
    assert server.path_map["page"] is PathCategory.LIGHT
    assert server.stats.reclassifications == 2


def test_heavy_type_that_shrinks_reclassifies_to_light(env, cpu, make_connection):
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    serve(env, server, conn, LARGE, "page")
    assert server.path_map["page"] is PathCategory.HEAVY
    assert server.stats.reclassifications == 0
    serve(env, server, conn, SMALL, "page")  # shrank: single write, no spin
    assert server.path_map["page"] is PathCategory.LIGHT
    assert server.stats.reclassifications == 1


def test_light_path_skips_pipeline_cost(env, cpu, make_connection, calib):
    """The light path is cheaper than the heavy path for the same request."""
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    serve(env, server, conn, SMALL, "small")  # heavy path (warm-up)
    user_after_warmup = cpu.counters.busy_user
    serve(env, server, conn, SMALL, "small")  # light path
    light_cost = cpu.counters.busy_user - user_after_warmup
    # Compare with a pure heavy-path second request of another type.
    serve(env, server, conn, SMALL, "other")
    user_mid = cpu.counters.busy_user
    serve(env, server, conn, SMALL, "other2")
    heavy_cost = cpu.counters.busy_user - user_mid
    assert light_cost < heavy_cost


def test_map_keeps_one_entry_per_type(env, cpu, make_connection):
    """Consistent responses of one type leave one entry and no flip."""
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    for _ in range(3):
        serve(env, server, conn, SMALL, "a")
    assert server.path_map == {"a": PathCategory.LIGHT}
    assert server.stats.reclassifications == 0


def test_hybrid_counts_paths(env, cpu, make_connection):
    server = HybridServer(env, cpu)
    conn = make_connection()
    server.attach(conn)
    serve(env, server, conn, SMALL, "a")
    serve(env, server, conn, SMALL, "a")
    serve(env, server, conn, LARGE, "b")
    assert server.heavy_path_requests == 2  # warm-up a + b
    assert server.light_path_requests == 1
