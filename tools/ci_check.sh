#!/usr/bin/env bash
# CI gate: run the test suite in seven tiers and report each tier's wall clock.
#
#   fast tier     everything except the real-socket, chaos and shard
#                 tests, plus the cache, failover, DAG and million-client
#                 artifact benchmarks, with sweeps fanned out over all
#                 cores (REPRO_JOBS=auto) and the on-disk result cache
#                 enabled -- a warm .repro-cache/ makes this tier cheap.
#   bench tier    the repo benchmark's own tests (bench/tests): the
#                 layer map must cover every src/repro entry, the verdict
#                 rules must hold, and a quick run of each of the five
#                 workloads must reproduce its pinned result digest.
#   chaos tier    the fault-injection sweeps plus the resilience-marked
#                 tests (-m "chaos or resilience") and the metastable-
#                 failure benchmark: slower end-to-end determinism and
#                 recovery checks across worker processes.
#   shard tier    the shard-marked tests (island partitioning rules,
#                 conservative-sync primitives, the sharded golden rows
#                 and the shard artifact benchmark) with REPRO_SHARDS=2
#                 pinned, so every eligible simulation in the tier
#                 actually exercises the forked-island kernel and must
#                 still reproduce the serial digests bit-for-bit.
#   realnet tier  the loopback-socket tests (-m realnet) on their own, so
#                 timing-sensitive socket work is not interleaved with the
#                 CPU-heavy simulation tier.
#   tcpfast tier  the tcpfast-marked equivalence tests (including the
#                 golden-digest matrix) re-run with REPRO_TCP_FASTPATH=0,
#                 proving the per-segment TCP path still produces
#                 bit-identical results so any digest mismatch can be
#                 bisected to the flow-level fast path in one run.
#   perf-smoke    a reduced-scale run of the kernel perf suite -- including
#                 the tcp-spin benchmark (Table IV write-spin at 0/5 ms RTT
#                 plus the flow-level drain pattern) -- gated against the
#                 committed BENCH_core.json: fails when any rate metric
#                 (events/sec and friends) regresses more than 30% below
#                 the tracked baseline, and fails hard when the baseline's
#                 gated-metric set does not match the suite's (a stale
#                 baseline must be regenerated, not silently skipped).
#                 Wall times are not gated (they scale with --scale);
#                 rates are scale-free.  Skipped when BENCH_core.json is
#                 absent.
#
# A feature layer (cache, replicas, cohorts, DAGs) runs exactly when its
# config is given, so no tier has to pin a layer on or kill it.
#
# Usage: tools/ci_check.sh [extra pytest args for every pytest tier]

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src
export REPRO_JOBS="${REPRO_JOBS:-auto}"

run_tier() {
    local name=$1; shift
    local started elapsed
    started=$SECONDS
    python -m pytest -q "$@"
    elapsed=$((SECONDS - started))
    eval "${name}_elapsed=$elapsed"
    echo "[ci_check] $name tier: ${elapsed}s"
}

echo "[ci_check] fast tier (REPRO_JOBS=$REPRO_JOBS, memo cache: ${REPRO_CACHE:-on})"
run_tier fast -m "not realnet and not chaos and not shard" tests \
    benchmarks/test_bench_cache.py benchmarks/test_bench_failover.py \
    benchmarks/test_bench_dag.py benchmarks/test_bench_million.py "$@"

echo "[ci_check] bench tier"
run_tier bench bench/tests "$@"

echo "[ci_check] chaos tier"
run_tier chaos -m "chaos or resilience" tests benchmarks/test_bench_metastable.py "$@"

echo "[ci_check] shard tier (REPRO_SHARDS=2 pinned)"
_saved_repro_shards="${REPRO_SHARDS-__unset__}"
export REPRO_SHARDS=2
run_tier shard -m shard tests benchmarks/test_bench_shard.py "$@"
if [[ "$_saved_repro_shards" == "__unset__" ]]; then
    unset REPRO_SHARDS
else
    export REPRO_SHARDS="$_saved_repro_shards"
fi

echo "[ci_check] realnet tier"
run_tier realnet -m realnet "$@"

echo "[ci_check] tcpfast tier (REPRO_TCP_FASTPATH=0 equivalence)"
# Explicit export/unset: a VAR=x prefix on a *function* call would persist
# into the perf-smoke tier below (bash quirk), disabling the fast path
# during the very benchmark that gates its speedup.
export REPRO_TCP_FASTPATH=0
run_tier tcpfast -m tcpfast "$@"
unset REPRO_TCP_FASTPATH

perf_elapsed=0
if [[ -f BENCH_core.json ]]; then
    echo "[ci_check] perf-smoke tier (vs BENCH_core.json, tolerance 30%)"
    started=$SECONDS
    python -m repro perf --scale 0.2 --repeats 2 \
        --check BENCH_core.json --tolerance 0.30
    perf_elapsed=$((SECONDS - started))
    echo "[ci_check] perf-smoke tier: ${perf_elapsed}s"
else
    echo "[ci_check] perf-smoke tier skipped (no BENCH_core.json)"
fi

echo "[ci_check] done: fast ${fast_elapsed}s + bench ${bench_elapsed}s + chaos ${chaos_elapsed}s + shard ${shard_elapsed}s + realnet ${realnet_elapsed}s + tcpfast ${tcpfast_elapsed}s + perf ${perf_elapsed}s"
