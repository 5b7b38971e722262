"""Request mixes."""

import pickle
import random

import pytest

from repro.errors import WorkloadError
from repro.experiments.micro import MicroConfig, run_micro
from repro.workload.mixes import (
    SIZE_LARGE,
    SIZE_SMALL,
    BimodalMix,
    FixedMix,
    WeightedMix,
    ZipfMix,
)


def test_fixed_mix_always_same(env):
    mix = FixedMix(1234)
    rng = random.Random(0)
    for _ in range(5):
        request = mix.sample(env, rng)
        assert request.response_size == 1234
        assert request.kind == "fixed-1234B"
    assert mix.kinds() == ["fixed-1234B"]


def test_fixed_mix_validation():
    with pytest.raises(WorkloadError):
        FixedMix(-1)


def test_bimodal_fraction_validation():
    with pytest.raises(WorkloadError):
        BimodalMix(1.5)


def test_bimodal_empirical_fraction(env):
    mix = BimodalMix(0.2)
    rng = random.Random(42)
    heavy = sum(
        1 for _ in range(5000) if mix.sample(env, rng).kind == "heavy"
    )
    assert 0.17 <= heavy / 5000 <= 0.23


def test_bimodal_extremes(env):
    rng = random.Random(0)
    assert all(BimodalMix(0.0).sample(env, rng).kind == "light" for _ in range(50))
    assert all(BimodalMix(1.0).sample(env, rng).kind == "heavy" for _ in range(50))


def test_bimodal_sizes(env):
    rng = random.Random(1)
    mix = BimodalMix(0.5, light_size=10, heavy_size=20)
    sizes = {mix.sample(env, rng).response_size for _ in range(100)}
    assert sizes == {10, 20}


def test_weighted_mix_validation():
    with pytest.raises(WorkloadError):
        WeightedMix([])
    with pytest.raises(WorkloadError):
        WeightedMix([("a", 10, -1.0)])
    with pytest.raises(WorkloadError):
        WeightedMix([("a", 10, 0.0)])
    with pytest.raises(WorkloadError):
        WeightedMix([("a", -10, 1.0)])


def test_weighted_mix_distribution(env):
    mix = WeightedMix([("a", 1, 3.0), ("b", 2, 1.0)])
    rng = random.Random(7)
    counts = {"a": 0, "b": 0}
    for _ in range(4000):
        counts[mix.sample(env, rng).kind] += 1
    assert 0.70 <= counts["a"] / 4000 <= 0.80


def test_weighted_mean_response_size():
    mix = WeightedMix([("a", 100, 1.0), ("b", 300, 1.0)])
    assert mix.mean_response_size == pytest.approx(200.0)


def test_zipf_light_requests_dominate(env):
    mix = ZipfMix([SIZE_SMALL, 1024, 10240, SIZE_LARGE], exponent=1.0)
    rng = random.Random(3)
    smallest = sum(
        1
        for _ in range(4000)
        if mix.sample(env, rng).response_size == SIZE_SMALL
    )
    # Zipf with s=1 over 4 ranks: P(rank 1) = 1/H4 ~ 0.48.
    assert smallest / 4000 > 0.4


def test_zipf_validation():
    with pytest.raises(WorkloadError):
        ZipfMix([])
    with pytest.raises(WorkloadError):
        ZipfMix([100], exponent=-1)


def test_stateless_mix_clone_is_shared():
    mix = FixedMix(100)
    assert mix.clone_for_client() is mix


def test_mixes_compare_by_value():
    rows = [("a", 100, 1.0), ("b", 300, 3.0)]
    assert FixedMix(100) == FixedMix(100)
    assert hash(FixedMix(100)) == hash(FixedMix(100))
    assert FixedMix(100) != FixedMix(200)
    assert BimodalMix(0.05) == BimodalMix(0.05) != BimodalMix(0.1)
    assert WeightedMix(rows) == WeightedMix(rows)
    assert hash(ZipfMix([1, 2])) == hash(ZipfMix([1, 2]))
    assert ZipfMix([1, 2]) != ZipfMix([1, 2], exponent=2.0)
    assert FixedMix(100, kind="a") != WeightedMix([("a", 100, 1.0)])


def test_run_equals_its_pickled_copy():
    """What the sweep executor hands back from a worker or the memo is a
    pickled copy: it must equal the run, config (and its mix) included."""
    result = run_micro(MicroConfig(
        "sTomcat-Sync", 4, mix=BimodalMix(0.05), duration=0.1, warmup=0.02
    ))
    assert pickle.loads(pickle.dumps(result)) == result


@pytest.mark.dag
def test_two_runs_of_a_pinned_dag_row_compare_equal():
    from tests.test_kernel_determinism_golden import _DIRECT

    run = _DIRECT["dag-wait-all"]
    assert run() == run()
