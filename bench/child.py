"""One benchmark run in a fresh interpreter: build, simulate, report.

Invoked by ``bench/run.py`` as ``python -I bench/child.py --src <src> ...``
and prints one JSON object.  ``--profile PATH`` runs the same simulation
under cProfile and dumps the profile to ``PATH``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import hashlib
import heapq
import json
import resource
import sys
import time
from pathlib import Path


class _Event:
    __slots__ = ("proc", "value")

    def __init__(self, proc, value):
        self.proc = proc
        self.value = value


def reference_s(steps: int = 200_000) -> float:
    """Seconds this interpreter takes for a fixed pure-Python event loop.

    The loop has the simulator's shape (a heap of timed events resuming
    generators) but shares no code with it, and runs with the cyclic
    garbage collector off, so neither a change to ``repro`` nor the size
    of its heap can move it.  It measures how fast the host runs Python
    right now; the parent rescales wall times by it.
    """
    def worker(state, index):
        total = 0.0
        while True:
            delay = yield total
            total += delay * 0.5
            state[index % 16] = state.get(index % 16, 0) + 1

    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    state: dict = {}
    heap = []
    for index in range(64):
        proc = worker(state, index)
        next(proc)
        heapq.heappush(heap, (index * 1e-3, index, _Event(proc, 1.0)))
    seq = len(heap)
    for _ in range(steps):
        now, _, event = heapq.heappop(heap)
        out = event.proc.send(event.value)
        seq += 1
        due = now + 1e-3 + (seq % 7) * 1e-4
        heapq.heappush(heap, (due, seq, _Event(event.proc, out % 3.0 + 0.1)))
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


def report_digest(report) -> str:
    """16-hex sha256 of everything the run's report holds."""
    payload = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--profile", type=Path)
    args = parser.parse_args()

    src = args.src.resolve()
    ref_before_s = reference_s()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import_started = time.perf_counter()
    import repro
    import workloads
    import_s = time.perf_counter() - import_started
    if src not in Path(repro.__file__).resolve().parents:
        print(f"imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    scale = 1.0 / workloads.QUICK_FACTOR if args.quick else 1.0
    config = workload.config(args.seed, scale)
    profiler = cProfile.Profile() if args.profile is not None else None
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = workload.run(config)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - started
    if profiler is not None:
        profiler.dump_stats(str(args.profile))
    # Bracketing the run: the host's speed changes within seconds.
    ref_s = (ref_before_s + reference_s()) / 2.0

    json.dump(
        {
            "ref_s": ref_s,
            "wall_s": wall_s,
            "sim_wall_s": result.sim_wall_s,
            "import_s": import_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "kernel_events": result.kernel_events,
            "completed": result.report.completed,
            "digest": report_digest(result.report),
            "counters": workloads.layer_counters(result),
            "violations": workloads.invariant_violations(workload, result),
            "package_dir": str(Path(repro.__file__).resolve().parent),
        },
        sys.stdout,
    )
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
