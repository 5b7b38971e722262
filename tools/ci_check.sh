#!/usr/bin/env bash
# CI gate: run the test suite in six tiers and report each tier's wall clock.
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
#                 still reproduce the serial results bit-for-bit, hashed
#                 by the pin table's helper (tests/helpers.py
#                 result_digest).
#   realnet tier  the loopback-socket tests (-m realnet) on their own, so
#                 timing-sensitive socket work is not interleaved with the
#                 CPU-heavy simulation tier.
#   tcpfast tier  the tcpfast-marked equivalence tests re-run with
#                 REPRO_TCP_FASTPATH=0, among them the digest column of
#                 every row of the pin table
#                 (tests/test_kernel_determinism_golden.py), proving the
#                 per-segment TCP path still produces bit-identical
#                 results so any digest mismatch can be bisected to the
#                 flow-level fast path in one run.
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
# Explicit export/unset, not a VAR=x prefix on run_tier: whether such a
# prefix outlives a *function* call is shell-dependent (POSIX leaves it
# unspecified), and a leak would run any later tier without the fast path.
export REPRO_TCP_FASTPATH=0
run_tier tcpfast -m tcpfast "$@"
unset REPRO_TCP_FASTPATH

echo "[ci_check] done: fast ${fast_elapsed}s + bench ${bench_elapsed}s + chaos ${chaos_elapsed}s + shard ${shard_elapsed}s + realnet ${realnet_elapsed}s + tcpfast ${tcpfast_elapsed}s"
