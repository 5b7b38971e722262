"""Micro-benchmark runner and registry."""

import pytest

from repro.errors import ExperimentError, SimulationError
from repro.experiments.micro import (
    MicroConfig,
    SERVER_FACTORIES,
    make_server,
    run_micro,
    suggest_timing,
)
from repro.experiments.registry import EXPERIMENTS, bench_scale, get_experiment
from repro.faults import CrashWindow, DegradeWindow, FaultPlan
from repro.resilience import AdmissionConfig, ResiliencePolicy
from repro.servers.base import ServerLimits
from repro.workload.mixes import BimodalMix


def quick(server, **kwargs):
    defaults = dict(server=server, concurrency=4, response_size=102,
                    duration=0.4, warmup=0.1)
    defaults.update(kwargs)
    return MicroConfig(**defaults)


def test_unknown_server_rejected(env):
    with pytest.raises(ExperimentError):
        run_micro(quick("ApacheSpark"))


def test_invalid_concurrency_rejected():
    with pytest.raises(ExperimentError):
        run_micro(quick("SingleT-Async", concurrency=0))


def test_duration_must_exceed_warmup():
    with pytest.raises(ExperimentError):
        run_micro(quick("SingleT-Async", duration=0.1, warmup=0.2))


@pytest.mark.parametrize("server", sorted(SERVER_FACTORIES))
def test_every_registered_server_runs(server):
    # Cached: re-simulated whenever the package sources change.
    from repro.experiments.parallel import cached_micro

    result = cached_micro(quick(server), label="micro-smoke")
    assert result.throughput > 0
    assert result.report.completed > 0
    # The server's own counters cover every request it served, warm-up
    # included.
    assert result.server_stats["requests_completed"] >= result.report.completed


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(crash_windows=(CrashWindow(start=0.1, end=0.39),)),
        FaultPlan(degrade_windows=(DegradeWindow(start=0.1, end=0.39, share=0.9),)),
    ],
    ids=["crash", "degrade"],
)
def test_crash_and_degrade_windows_are_rejected(plan):
    """One server has no instance a crash or degrade window can take
    down, so such a plan fails before the run instead of running as if
    it were empty."""
    with pytest.raises(SimulationError, match="only 0"):
        run_micro(quick("sTomcat-Async", concurrency=8, fault_plan=plan))


def test_same_seed_same_result():
    a = run_micro(quick("SingleT-Async", seed=5))
    b = run_micro(quick("SingleT-Async", seed=5))
    assert a.throughput == b.throughput
    assert a.report.response_time_mean == b.report.response_time_mean


def test_mix_overrides_response_size():
    result = run_micro(quick("SingleT-Async", mix=BimodalMix(0.5, 100, 200)))
    assert result.report.completed > 0
    assert set(result.report.per_kind_throughput) <= {"light", "heavy"}


def test_hybrid_stats_included():
    result = run_micro(quick("HybridNetty"))
    assert "light_path_requests" in result.server_stats
    assert "heavy_path_requests" in result.server_stats


@pytest.mark.parametrize(
    "kwargs",
    [
        {"limits": ServerLimits(max_inflight=4)},
        {"resilience": ResiliencePolicy(admission=AdmissionConfig(target_latency=0.05))},
    ],
    ids=["limits", "admission"],
)
def test_ncopy_refuses_limits_it_cannot_apply(kwargs):
    """Limits would land on the wrapper, which serves nothing itself, so
    the run fails before it starts instead of running unshed."""
    with pytest.raises(ExperimentError, match="N-copy"):
        run_micro(quick("N-copy", **kwargs))


def test_suggest_timing_scales_with_concurrency():
    d1, w1 = suggest_timing(1, 102)
    d2, w2 = suggest_timing(3200, 100 * 1024)
    assert d2 > d1
    assert w2 > w1
    assert d1 > w1 and d2 > w2


def test_workers_default_capped():
    assert MicroConfig(server="x", concurrency=1000).workers == 16
    assert MicroConfig(server="x", concurrency=4).workers == 4
    assert MicroConfig(server="x", concurrency=1000).tomcat_workers == 32


def test_registry_contains_all_paper_artifacts():
    for artifact in ["fig1", "fig2", "tab1", "tab2", "fig4", "tab3", "tab4",
                     "fig6", "fig7", "fig9", "fig11"]:
        assert artifact in EXPERIMENTS


def test_registry_lookup_unknown():
    with pytest.raises(ExperimentError):
        get_experiment("fig99")


def test_bench_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    assert bench_scale() == 0.5
    monkeypatch.setenv("REPRO_BENCH_SCALE", "abc")
    with pytest.raises(ExperimentError):
        bench_scale()
    monkeypatch.setenv("REPRO_BENCH_SCALE", "3.0")
    with pytest.raises(ExperimentError):
        bench_scale()
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    assert bench_scale() == 1.0


def test_make_server_returns_architecture(env, cpu):
    config = quick("NettyServer")
    server = make_server("NettyServer", env, cpu, config)
    assert server.architecture == "NettyServer"
