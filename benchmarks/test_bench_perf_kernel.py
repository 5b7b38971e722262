"""Tracked kernel perf-benchmark suite (``repro-bench perf`` as a test).

Measures DES-kernel events/sec, timeout churn, TCP transfer throughput and
the wall time of a full micro-benchmark, writes the results next to the
other generated artifacts, and — when a committed ``BENCH_core.json``
baseline exists at the repository root — asserts that no rate metric has
regressed beyond a generous tolerance.

The tolerance is deliberately loose (default 50% here, 30% in the
``perf-smoke`` CI tier which runs on a known host): these are wall-clock
numbers and this file must not flake on a slow laptop.  Override with
``REPRO_PERF_TOLERANCE`` (a fraction, e.g. ``0.4``).
"""

from __future__ import annotations

import os
import pathlib

from repro.experiments.artifacts_perf import (
    EXACT_METRICS,
    RATE_METRICS,
    compare_to_baseline,
    load_baseline,
    render_perf_suite,
    run_perf_suite,
    write_bench_json,
)
from repro.experiments.registry import bench_scale

GENERATED_DIR = pathlib.Path(__file__).parent / "generated"
BASELINE = pathlib.Path(__file__).parent.parent / "BENCH_core.json"


def _tolerance() -> float:
    return float(os.environ.get("REPRO_PERF_TOLERANCE", "0.5"))


def test_perf_kernel_suite(capsys):
    payload = run_perf_suite(scale=bench_scale(), repeats=2)
    with capsys.disabled():
        print()
        print(render_perf_suite(payload))
    GENERATED_DIR.mkdir(exist_ok=True)
    write_bench_json(payload, GENERATED_DIR / "BENCH_core.json")

    results = payload["results"]
    for metric in RATE_METRICS + EXACT_METRICS:
        assert results[metric] > 0, f"{metric} did not measure"
    # Lazy cancellation keeps the abandoned-timer heap bounded: the churn
    # benchmark abandons 1s timers at a >=100k/s simulated rate, so an
    # eager heap would hold tens of thousands of entries.
    assert results["timeout_churn_peak_heap"] < 4096

    if BASELINE.exists():
        failures = compare_to_baseline(payload, load_baseline(BASELINE),
                                       tolerance=_tolerance())
        assert not failures, "; ".join(failures)
