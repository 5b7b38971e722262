"""Quick mode: every workload runs twice and repeats itself exactly."""

import json

import pytest

import run as bench

WORKLOADS = [w["name"] for w in json.loads(bench.SPEC_PATH.read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_runs_repeat_exactly(workload):
    samples, errors = bench.measure(bench.SRC, workload, seed=1, quick=True, repeats=2)
    assert errors == []
    pinned = bench.pinned_digest(workload, 1, quick=True)
    assert pinned is not None
    # Same pinned digest, same kernel events, same exact counters, and
    # every conservation check passed, in two fresh processes.
    assert bench.problems(samples, pinned) == [[], []]


def test_repro_variables_do_not_reach_the_child(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    env, removed = bench.child_env()
    assert "REPRO_CACHE" not in env
    assert removed["REPRO_CACHE"] == "0"
    samples, errors = bench.measure(bench.SRC, "rubbos-cache", seed=1, quick=True, repeats=1)
    assert errors == []
    assert samples[0]["counters"]["cache.l1_hit_ratio"] is not None
