"""The parallel sweep executor: determinism, caching, and fallbacks."""

import pytest

from repro.dag import DagConfig, Edge, ServiceNode
from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.micro import MicroConfig, run_micro
from repro.experiments.parallel import (
    SweepExecutor,
    cached_call,
    cached_micro,
    cached_ntier,
    clear_cache,
    consume_sweep_totals,
    point_digest,
    resolve_jobs,
)
from repro.experiments.registry import run_experiment
from repro.experiments.report import render_sweep_summary
from repro.net.messages import Request
from repro.ntier.topology import NTierConfig, run_ntier
from repro.workload.mixes import RequestMix


def _tiny(server="SingleT-Async", **kwargs):
    kwargs.setdefault("concurrency", 4)
    kwargs.setdefault("duration", 0.25)
    kwargs.setdefault("warmup", 0.05)
    return MicroConfig(server=server, **kwargs)


def _tiny_points():
    return {
        (server, concurrency): _tiny(server, concurrency=concurrency)
        for server in ("SingleT-Async", "sTomcat-Sync")
        for concurrency in (2, 4)
    }


# ----------------------------------------------------------------------
# resolve_jobs
# ----------------------------------------------------------------------
def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_reads_environment(monkeypatch):
    monkeypatch.setenv(parallel.JOBS_ENV, "3")
    assert resolve_jobs(None) == 3


def test_resolve_jobs_explicit_overrides_environment(monkeypatch):
    monkeypatch.setenv(parallel.JOBS_ENV, "3")
    assert resolve_jobs(2) == 2
    assert resolve_jobs("5") == 5


def test_resolve_jobs_auto_means_cpu_count(monkeypatch):
    import os

    monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
    assert resolve_jobs("auto") == (os.cpu_count() or 1)


@pytest.mark.parametrize("bad", ["zero", "", "-2", 0, -1])
def test_resolve_jobs_rejects_nonsense(monkeypatch, bad):
    monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
    with pytest.raises(ExperimentError):
        resolve_jobs(bad)


# ----------------------------------------------------------------------
# point_digest
# ----------------------------------------------------------------------
def test_point_digest_is_stable_for_equal_configs():
    assert point_digest(_tiny()) == point_digest(_tiny())


def test_point_digest_sees_every_field():
    base = _tiny()
    assert point_digest(base) != point_digest(_tiny(seed=2))
    assert point_digest(base) != point_digest(_tiny(concurrency=8))
    assert point_digest(base) != point_digest(_tiny(added_latency=1e-3))


def test_point_digest_covers_mix_objects():
    class TwoSizes(RequestMix):
        def __init__(self, heavy):
            self.heavy = heavy

        def sample(self, env, rng):
            return Request(env, kind="page", response_size=self.heavy)

        def kinds(self):
            return ["page"]

    assert point_digest(_tiny(mix=TwoSizes(100))) != point_digest(
        _tiny(mix=TwoSizes(200))
    )


# ----------------------------------------------------------------------
# Determinism: parallel == serial, order-independent
# ----------------------------------------------------------------------
def test_parallel_results_identical_to_serial():
    serial = SweepExecutor("det", jobs=1, cache_dir=None)
    fanned = SweepExecutor("det", jobs=4, cache_dir=None)
    a = serial.map_micro(_tiny_points())
    b = fanned.map_micro(_tiny_points())
    assert a == b
    assert fanned.stats.computed == len(a)
    assert fanned.stats.cache_hits == 0


def test_results_do_not_depend_on_point_order():
    points = _tiny_points()
    reversed_points = dict(reversed(list(points.items())))
    a = SweepExecutor("order", jobs=1, cache_dir=None).map_micro(points)
    b = SweepExecutor("order", jobs=1, cache_dir=None).map_micro(reversed_points)
    assert a == b
    assert list(b) == list(reversed_points)  # input ordering is preserved


def test_derived_seeds_separate_artifacts():
    """The same config simulates under different seeds in different sweeps."""
    config = _tiny()
    one = SweepExecutor("art-one", jobs=1, cache_dir=None)
    two = SweepExecutor("art-two", jobs=1, cache_dir=None)
    assert one._prepare("micro", "k", config).seed != two._prepare(
        "micro", "k", config
    ).seed


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_second_run_does_zero_simulation_work(tmp_path, monkeypatch):
    points = _tiny_points()
    first = SweepExecutor("memo", jobs=1, cache_dir=tmp_path)
    warm = first.map_micro(points)
    assert first.stats.computed == len(points)

    def exploding_run_point(runner, config):
        raise AssertionError("cache miss: a point was re-simulated")

    monkeypatch.setattr(parallel, "_run_point", exploding_run_point)
    second = SweepExecutor("memo", jobs=1, cache_dir=tmp_path)
    again = second.map_micro(points)
    assert again == warm
    assert second.stats.cache_hits == len(points)
    assert second.stats.computed == 0


def test_cache_disabled_recomputes(tmp_path):
    executor = SweepExecutor("nocache", jobs=1, cache_dir=None)
    executor.map_micro({"p": _tiny()})
    executor.map_micro({"p": _tiny()})
    assert executor.stats.computed == 2
    assert list(tmp_path.iterdir()) == []


def test_cache_key_includes_scale(tmp_path):
    config = _tiny()
    SweepExecutor("scaled", scale=1.0, jobs=1, cache_dir=tmp_path).map_micro(
        {"p": config}
    )
    other = SweepExecutor("scaled", scale=0.5, jobs=1, cache_dir=tmp_path)
    other.map_micro({"p": config})
    assert other.stats.cache_hits == 0  # different scale, different entry


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    first = SweepExecutor("corrupt", jobs=1, cache_dir=tmp_path)
    warm = first.map_micro({"p": _tiny()})
    (entry,) = tmp_path.rglob("*.pkl")
    entry.write_bytes(b"not a pickle")
    second = SweepExecutor("corrupt", jobs=1, cache_dir=tmp_path)
    assert second.map_micro({"p": _tiny()}) == warm
    assert second.stats.computed == 1


def test_clear_cache_counts_entries(tmp_path):
    executor = SweepExecutor("clear", jobs=1, cache_dir=tmp_path)
    executor.map_micro(_tiny_points())
    assert clear_cache(tmp_path) == len(_tiny_points())
    assert not tmp_path.exists()
    assert clear_cache(tmp_path) == 0


def test_cached_micro_matches_run_micro(tmp_path, monkeypatch):
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path))
    config = _tiny()
    assert cached_micro(config, label="match") == run_micro(config)


def test_cached_call_memoises_by_arguments(tmp_path, monkeypatch):
    monkeypatch.delenv(parallel.CACHE_ENV, raising=False)
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path))
    assert cached_call(divmod, 7, 3, label="memo") == (2, 1)
    assert cached_call(divmod, 7, 3, label="memo") == (2, 1)  # from cache
    assert cached_call(divmod, 9, 3, label="memo") == (3, 0)  # new entry
    assert len(list(tmp_path.rglob("*.pkl"))) == 2

    monkeypatch.setenv(parallel.CACHE_ENV, "0")
    assert cached_call(divmod, 8, 3, label="memo") == (2, 2)  # plain call
    assert len(list(tmp_path.rglob("*.pkl"))) == 2



def test_stray_environment_cannot_poison_the_memo(tmp_path, monkeypatch):
    """The memo key covers the config, not the environment, so nothing
    outside the config may change what a run computes: a stray
    ``REPRO_DAG=0`` must neither turn the DAG off nor leave a
    linear-chain result in the memo for later DAG runs."""
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path))
    config = NTierConfig(
        "async", users=10, think_mean=0.2, duration=0.6, warmup=0.2,
        dag=DagConfig(entry="front", nodes=(
            ServiceNode("front", edges=(Edge("back"),)),
            ServiceNode("back"),
        )),
    )
    monkeypatch.setenv("REPRO_DAG", "0")
    cached_ntier(config, label="poison")
    monkeypatch.delenv("REPRO_DAG")
    result = cached_ntier(config, label="poison")
    assert result.dag_stats
    assert result == run_ntier(config)


def test_sharded_results_are_not_served_to_serial_runs(tmp_path, monkeypatch):
    """A sharded run's ``kernel_events`` sums the islands' kernels (cut
    bookkeeping included) and takes part in result equality, so the
    shard count is part of the memo key: a ``REPRO_SHARDS=2`` entry
    must not answer a later serial call."""
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path))
    config = NTierConfig(
        "async", users=10, think_mean=0.2, duration=0.6, warmup=0.2,
        client_latency=0.002,
    )
    monkeypatch.setenv("REPRO_SHARDS", "2")
    assert cached_ntier(config, label="shards").shard_events
    monkeypatch.delenv("REPRO_SHARDS")
    result = cached_ntier(config, label="shards")
    assert not result.shard_events
    assert result == run_ntier(config)


def test_segment_path_results_are_not_served_to_fast_path_runs(tmp_path, monkeypatch):
    """The per-segment TCP path processes more kernel events than the
    fast path, and ``kernel_events`` takes part in result equality, so
    the TCP path is part of the memo key: a ``REPRO_TCP_FASTPATH=0``
    entry must not answer a later fast-path call."""
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    config = _tiny(
        concurrency=20, response_size=100 * 1024, added_latency=0.002,
        duration=0.3, warmup=0.1,
    )
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "0")
    segment = cached_micro(config, label="tcp")
    monkeypatch.setenv("REPRO_TCP_FASTPATH", "1")
    result = cached_micro(config, label="tcp")
    assert result.kernel_events < segment.kernel_events
    assert result == run_micro(config)


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------
def _local_mix_points():
    class LocalMix(RequestMix):  # local class: cannot cross processes
        def sample(self, env, rng):
            return Request(env, kind="page", response_size=100)

        def kinds(self):
            return ["page"]

    return {c: _tiny(mix=LocalMix(), concurrency=c) for c in (2, 4)}


def test_unpicklable_points_fall_back_to_serial():
    executor = SweepExecutor("local", jobs=4, cache_dir=None)
    results = executor.map_micro(_local_mix_points())
    assert len(results) == 2
    assert executor.stats.serial_fallbacks == 1
    assert executor.stats.computed == 2


def test_sweep_summary_says_a_sweep_fell_back_to_serial():
    """The fallback reaches the drained totals the CLI prints."""
    consume_sweep_totals()  # drop accounting left over from earlier tests
    SweepExecutor("local", jobs=4, cache_dir=None).map_micro(_local_mix_points())
    totals = consume_sweep_totals()
    assert totals.serial_fallbacks == 1
    summary = render_sweep_summary(1.0, totals)
    assert "1 sweep(s) fell back to serial" in summary
    assert "fell back" not in render_sweep_summary(1.0, consume_sweep_totals())


def test_broken_pool_falls_back_to_serial(monkeypatch):
    def broken_pool(self, runner, pending):
        raise OSError("no processes for you")

    monkeypatch.setattr(SweepExecutor, "_compute_parallel", broken_pool)
    executor = SweepExecutor("broken", jobs=4, cache_dir=None)
    results = executor.map_micro(_tiny_points())
    assert len(results) == len(_tiny_points())
    assert executor.stats.serial_fallbacks == 1


# ----------------------------------------------------------------------
# Artifact-level: identical rows for any job count
# ----------------------------------------------------------------------
def test_artifact_rows_identical_serial_vs_parallel(monkeypatch, tmp_path):
    """tab1 regenerated with jobs=1 and jobs=4 yields the same rows.

    Each run gets its own empty cache directory so the parallel run
    actually simulates instead of replaying the serial run's entries.
    """
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path / "serial"))
    serial = run_experiment("tab1", scale=0.1, jobs=1)
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path / "fanned"))
    fanned = run_experiment("tab1", scale=0.1, jobs=4)
    assert serial.rows == fanned.rows
    assert [c.passed for c in serial.checks] == [c.passed for c in fanned.checks]
