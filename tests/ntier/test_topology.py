"""Three-tier system assembly and miniature runs."""

import pytest

from repro.errors import ExperimentError
from repro.ntier.topology import POOL_SIZE, NTierConfig, ThreeTierSystem, run_ntier
from repro.sim.core import Environment


def test_config_validation():
    with pytest.raises(ExperimentError):
        NTierConfig(tomcat_variant="turbo", users=10).validate()
    with pytest.raises(ExperimentError):
        NTierConfig(tomcat_variant="sync", users=0).validate()
    with pytest.raises(ExperimentError):
        NTierConfig(tomcat_variant="sync", users=10, duration=1.0, warmup=2.0).validate()


def test_system_builds_three_cpus(env):
    system = ThreeTierSystem(env, NTierConfig(tomcat_variant="sync", users=10))
    cpus = system.cpu_by_tier()
    assert set(cpus) == {"apache", "tomcat", "mysql"}
    assert len({id(c) for c in cpus.values()}) == 3


def test_sync_variant_uses_tomcat_sync(env):
    from repro.servers.tomcat import TomcatAsyncServer, TomcatSyncServer

    sync = ThreeTierSystem(env, NTierConfig(tomcat_variant="sync", users=5))
    assert isinstance(sync.app_server, TomcatSyncServer)
    env2 = Environment()
    async_ = ThreeTierSystem(env2, NTierConfig(tomcat_variant="async", users=5))
    assert isinstance(async_.app_server, TomcatAsyncServer)


def test_pools_bound_tomcat_concurrency(env):
    config = NTierConfig(tomcat_variant="sync", users=5)
    system = ThreeTierSystem(env, config)
    assert system.apache_tomcat_pool.size == POOL_SIZE
    assert len(system.app_server.connections) == POOL_SIZE


def mini_config(variant, users=40):
    return NTierConfig(
        tomcat_variant=variant,
        users=users,
        think_mean=0.05,
        duration=2.0,
        warmup=0.8,
    )


def mini_run(variant, users=40):
    # Cached: identical configs across tests simulate once per code version.
    from repro.experiments.parallel import cached_ntier

    return cached_ntier(mini_config(variant, users), label="topology-mini")


@pytest.mark.parametrize("variant", ["sync", "async"])
def test_mini_run_completes_requests(variant):
    result = mini_run(variant)
    assert result.throughput > 0
    assert result.response_time > 0
    assert result.report.completed > 10


def test_mini_run_bottleneck_is_tomcat():
    result = mini_run("sync", users=120)
    assert result.bottleneck_tier == "tomcat"
    assert result.tier_utilization["tomcat"] > result.tier_utilization["mysql"]


def test_peak_concurrency_bounded_by_pool():
    result = mini_run("sync", users=120)
    assert result.tomcat_peak_concurrency <= 40


def test_deterministic_given_seed():
    a = run_ntier(mini_config("sync"))
    b = run_ntier(mini_config("sync"))
    assert a.throughput == b.throughput
    assert a.response_time == b.response_time
