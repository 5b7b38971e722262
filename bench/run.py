"""The repository benchmark: five simulator workloads, end to end and per layer.

Run from the repository root::

    python3 bench/run.py                          # every workload, 5 runs each
    python3 bench/run.py --workload hybrid-mix --seed 3 --seconds 20
    python3 bench/run.py --trace                  # per-layer metrics (cProfile)
    python3 bench/run.py --quick                  # simulated time cut 10x
    python3 bench/run.py --pin                    # re-record bench/digests.json

Every run is a fresh child process (``bench/child.py``), one at a time, so
the load of a run comes from a single process.  The child imports
``repro`` from this checkout's ``src`` with every ``REPRO_*`` variable
removed from its environment, builds the workload's config from the seed,
times the public ``run_micro`` / ``run_ntier`` call and reports its result.
Each run's report digest is checked against ``bench/digests.json`` (for
the pinned seeds), against the other runs of the same seed, and the
result against the workload's conservation checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with ``--trace``.
Details of every run go to ``bench/out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "bench"
OUT_DIR = BENCH_DIR / "out"
DIGESTS_PATH = BENCH_DIR / "digests.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

#: A timed measurement takes at least this many runs, however short.
MIN_RUNS = 3
#: Seeds whose report digests ``--pin`` records.
PINNED_SEEDS = range(32)
#: Child results that must repeat exactly across runs of one seed.
EXACT_KEYS = ("digest", "kernel_events", "completed", "counters")
CHILD_TIMEOUT_S = 120.0
#: Reference-loop time that end-to-end times are rescaled to (its median
#: on a 2-core x86-64 container host, CPython 3.11).
REF_NOMINAL_S = 0.16


class ChildError(RuntimeError):
    """A child process failed or printed no result."""


def child_env() -> Tuple[Dict[str, str], Dict[str, str]]:
    """The parent environment minus every ``REPRO_*`` variable.

    Returns ``(env, removed)``: a developer shell with, say,
    ``REPRO_CACHE=0`` or ``REPRO_SHARDS=2`` would otherwise benchmark a
    different program.
    """
    env, removed = {}, {}
    for key, value in os.environ.items():
        (removed if key.startswith("REPRO_") else env)[key] = value
    return env, removed


def run_child(
    src: Path, workload: str, seed: int, quick: bool, profile: Optional[Path] = None
) -> dict:
    """Run one workload once in a fresh interpreter and return its result."""
    cmd = [
        sys.executable, "-I", str(BENCH_DIR / "child.py"),
        "--src", str(src), "--workload", workload, "--seed", str(seed),
    ]
    if quick:
        cmd.append("--quick")
    if profile is not None:
        cmd += ["--profile", str(profile)]
    try:
        proc = subprocess.run(
            cmd, env=child_env()[0], capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} seed {seed}: no result after {CHILD_TIMEOUT_S:g}s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        raise ChildError(f"{workload} seed {seed}: exit {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError(f"{workload} seed {seed}: unreadable result") from None


def measure(
    src: Path,
    workload: str,
    seed: int,
    quick: bool,
    seconds: Optional[float] = None,
    repeats: int = 5,
) -> Tuple[List[dict], List[str]]:
    """Run ``workload`` repeatedly: ``repeats`` times, or, with ``seconds``,
    as many times as fit in that long (at least :data:`MIN_RUNS`).

    Returns ``(samples, errors)``; the first failing child ends the loop.
    """
    samples: List[dict] = []
    errors: List[str] = []
    took: List[float] = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        try:
            samples.append(run_child(src, workload, seed, quick))
        except ChildError as exc:
            errors.append(str(exc))
            break
        took.append(time.monotonic() - t0)
        if seconds is None:
            if len(samples) >= repeats:
                break
        elif len(samples) >= MIN_RUNS and (
            time.monotonic() - started + statistics.median(took) > seconds
        ):
            break
    return samples, errors


def problems(samples: Sequence[dict], pinned: Optional[str]) -> List[List[str]]:
    """Per sample, what is wrong with it (empty when it is correct)."""
    out = []
    for sample in samples:
        found = list(sample["violations"])
        if pinned is not None and sample["digest"] != pinned:
            found.append(f"digest {sample['digest']} differs from pinned {pinned}")
        found += [
            f"{key} differs from the first run"
            for key in EXACT_KEYS
            if sample[key] != samples[0][key]
        ]
        out.append(found)
    return out


def end_to_end(samples: Sequence[dict]) -> Dict[str, List[float]]:
    """Every end-to-end metric's value per sample.

    Each run's times are rescaled to a host on which the reference loop
    (``child.reference_s``, timed in the same process just before and just
    after the run) takes :data:`REF_NOMINAL_S`: a shared host's Python
    speed drifts by tens of percent within minutes, and the loop tracks
    the drift.
    """
    scale = [REF_NOMINAL_S / s["ref_s"] for s in samples]
    return {
        "wall_s": [k * s["wall_s"] for k, s in zip(scale, samples)],
        # Everything but the simulation itself: importing the package,
        # building the model and population, aggregating the report.
        "setup_s": [
            k * (s["import_s"] + s["wall_s"] - s["sim_wall_s"]) for k, s in zip(scale, samples)
        ],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        # A run that completed nothing has failed its checks already.
        "events_per_request": [s["kernel_events"] / max(s["completed"], 1) for s in samples],
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def layer_metrics(
    samples: Sequence[dict], traced: dict, profile: Path
) -> Dict[str, Optional[float]]:
    """Per-layer metrics from a traced run plus the untraced runs' counters."""
    stats = pstats.Stats(str(profile)).stats
    package_dir = traced["package_dir"]
    self_time, calls = layers.attribute(stats, package_dir)
    total = sum(self_time.values())
    completed = traced["completed"]
    metrics: Dict[str, Optional[float]] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_share"] = self_time.get(layer, 0.0) / total
        metrics[f"{layer}.calls_per_request"] = calls[layer] / completed
    metrics["trace.other_share"] = self_time.get(None, 0.0) / total
    metrics["trace.overhead"] = traced["wall_s"] / statistics.median(s["wall_s"] for s in samples)
    fallbacks = sum(
        entry[1]
        for func, entry in stats.items()
        if func[2] == "_fp_materialize" and layers.layer_of(func[0], package_dir) == "net"
    )
    metrics["net.fastpath_fallbacks_per_1k"] = 1000.0 * fallbacks / completed
    metrics["import_s"] = statistics.median(s["import_s"] for s in samples)
    metrics.update(samples[0]["counters"])
    return metrics


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": sys.version,
        "executable": sys.executable,
        "child_command": [sys.executable, "-I", "bench/child.py"],
        "repro_vars_cleared": child_env()[1],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def pinned_digest(workload: str, seed: int, quick: bool) -> Optional[str]:
    table = json.loads(DIGESTS_PATH.read_text())["quick" if quick else "full"]
    return table.get(workload, {}).get(str(seed))


def run_workload(args: argparse.Namespace, spec: dict, workload: str) -> dict:
    """Measure one workload; print its tables; return its record."""
    seconds = args.seconds
    if args.trace and seconds is not None:
        # The traced run takes about as long as the untraced ones together.
        seconds /= 2
    samples, errors = measure(SRC, workload, args.seed, args.quick, seconds, args.repeats)
    pinned = pinned_digest(workload, args.seed, args.quick)
    checked = samples
    layer: Dict[str, Optional[float]] = {}
    if args.trace and samples:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        profile = OUT_DIR / f"{workload}.pstats"
        try:
            traced = run_child(SRC, workload, args.seed, args.quick, profile)
        except ChildError as exc:
            errors.append(str(exc))
        else:
            # Tracing must not change results: the traced run joins the
            # exactness check against the untraced ones.
            checked = samples + [traced]
            layer = layer_metrics(samples, traced, profile)
    found = problems(checked, pinned)
    failures = errors + [f"run {i + 1}: {p}" for i, ps in enumerate(found) for p in ps]
    attempted = len(checked) + len(errors)
    failed = len(errors) + sum(1 for ps in found if ps)

    e2e = {}
    if samples:
        e2e = {name: quartiles(values) for name, values in end_to_end(samples).items()}
    print(f"== {workload}  seed {args.seed}{'  quick' if args.quick else ''}  "
          f"n={len(samples)}  error_rate {failed / attempted:.3g} ({failed}/{attempted})  "
          f"digest {samples[0]['digest'] if samples else '-'}"
          f"{'' if pinned else ' (seed not pinned)'}")
    for metric in spec["end_to_end"]:
        if metric["name"] in e2e:
            q1, median, q3 = e2e[metric["name"]]
            print(f"  {metric['name']:<22} {median:>12.6g} {metric['unit']:<6} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}]  bound {metric['bound']:.0%}")
    if samples:
        raw = statistics.median(s["wall_s"] for s in samples)
        ref = statistics.median(s["ref_s"] for s in samples)
        rate = statistics.median(s["completed"] / s["wall_s"] for s in samples)
        print(f"  not gated: unscaled wall {raw:.6g} s, reference loop {ref:.6g} s, "
              f"{rate:.6g} simulated requests per wall second")
    for metric in spec["per_layer"] if layer else ():
        value = layer[metric["name"]]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:<38} {shown:>12} {metric['unit']}")
    for failure in failures:
        print(f"  FAILED {failure}")

    metrics = {}
    if args.trace and layer:
        # A layer that does not run in this workload reads 0 here, n/a above.
        metrics = {m["name"]: (layer[m["name"]] or 0.0, m["unit"]) for m in spec["per_layer"]}
    elif not args.trace and e2e:
        metrics = {m["name"]: (e2e[m["name"]][1], m["unit"]) for m in spec["end_to_end"]}
    return {
        "seed": args.seed,
        "quick": args.quick,
        "pinned_digest": pinned,
        "samples": checked,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layer,
        "metrics": metrics,
    }


def pin(spec: dict, names: Sequence[str]) -> int:
    """Re-record the report digest of every pinned seed, both modes."""
    table = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}
    for quick, mode in ((False, "full"), (True, "quick")):
        for workload in names:
            row = table.setdefault(mode, {}).setdefault(workload, {})
            for seed in PINNED_SEEDS:
                result = run_child(SRC, workload, seed, quick)
                if result["violations"]:
                    print(f"{workload} seed {seed}: {result['violations']}", file=sys.stderr)
                    return 1
                row[str(seed)] = result["digest"]
                print(f"{mode} {workload} seed {seed}: {result['digest']}")
    DIGESTS_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for this long instead of --repeats runs")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one cProfile run per workload and report per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="cut simulated time 10x")
    parser.add_argument("--pin", action="store_true",
                        help="re-record bench/digests.json for the pinned seeds")
    args = parser.parse_args(argv)
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}", file=sys.stderr)
        return 2
    selected = args.workload or names
    if args.pin:
        return pin(spec, selected)

    records = {name: run_workload(args, spec, name) for name in selected}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results.json").write_text(
        json.dumps({"environment": environment(), "workloads": records}, indent=1) + "\n"
    )
    if len(selected) == 1:
        metrics = records[selected[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in records.items() for m, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
