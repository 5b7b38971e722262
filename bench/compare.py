"""Interleaved A/B comparison of two checkouts on the repository benchmark.

Run from the repository root::

    python3 bench/compare.py --base ../parent --head . [--pairs 10] [--seed 1]

Both sides are measured with this checkout's benchmark code, each against
its own checkout's ``src``, so only the program differs.  Per workload it
runs ``--pairs`` pairs, alternating which side goes first; each side of a
pair is ``--repeats`` fresh child runs, summarised by their median.  Every
run of both sides must produce the same report digest, on ``--seed`` and
on a held-out seed.  For each (end-to-end metric, workload) it prints
both sides' median and quartiles over the pairs and one verdict:

* ``improved``   -- the head wins at least 9 of 10 pairs and the medians
  differ by more than the base's interquartile range;
* ``worse``      -- the head's median is worse by more than the metric's
  bound, or the head's error rate is higher;
* ``unresolved`` -- either side's spread (IQR / median) exceeds the bound
  and not every head pair beats every base pair;
* ``unchanged``  -- otherwise.

Exits 1 when any verdict is ``worse`` or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import run as bench

#: The held-out seed is the measured seed plus this offset.
HELD_OUT_OFFSET = 1000


def iqr(values: Sequence[float]) -> float:
    q1, _median, q3 = bench.quartiles(values)
    return q3 - q1


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    median = statistics.median(values)
    return iqr(values) / abs(median) if median else 0.0


def verdict(
    base: Sequence[float],
    head: Sequence[float],
    better: str,
    bound: float,
    base_error_rate: float = 0.0,
    head_error_rate: float = 0.0,
) -> str:
    """Classify paired samples (``base[i]`` ran beside ``head[i]``)."""
    if head_error_rate > base_error_rate:
        return "worse"
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worsening = sign * (statistics.median(head) - base_median)
    if worsening > bound * abs(base_median):
        return "worse"
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    if worsening < 0 and wins >= 0.9 * len(base) and -worsening > iqr(base):
        return "improved"
    head_always_better = all(sign * (h - b) < 0 for h in head for b in base)
    if max(spread(base), spread(head)) > bound and not head_always_better:
        return "unresolved"
    return "unchanged"


def checkout_src(path: str) -> Path:
    src = Path(path).resolve() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"compare: {path} is not a checkout (no src/repro)")
    return src


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads(bench.SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--head", required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3, help="child runs per side per pair")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--quick", action="store_true", help="cut simulated time 10x")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeats < 1:
        parser.error("--pairs and --repeats must be positive")
    sides = {"base": checkout_src(args.base), "head": checkout_src(args.head)}
    held_out = args.seed + HELD_OUT_OFFSET

    bad = False
    for workload in args.workload or names:
        medians: Dict[str, Dict[str, List[float]]] = {side: {} for side in sides}
        digests: Dict[str, set] = {side: set() for side in sides}
        exact: Dict[str, set] = {side: set() for side in sides}
        attempted = dict.fromkeys(sides, 0)
        failed = dict.fromkeys(sides, 0)
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                samples, errors = bench.measure(
                    sides[side], workload, args.seed, args.quick, repeats=args.repeats
                )
                attempted[side] += len(samples) + len(errors)
                failed[side] += len(errors) + sum(1 for p in bench.problems(samples, None) if p)
                digests[side].update(s["digest"] for s in samples)
                exact[side].update(json.dumps(s["counters"], sort_keys=True) for s in samples)
                for metric, values in (bench.end_to_end(samples) if samples else {}).items():
                    medians[side].setdefault(metric, []).append(statistics.median(values))
        held = {}
        for side, src in sides.items():
            try:
                held[side] = bench.run_child(src, workload, held_out, args.quick)["digest"]
            except bench.ChildError as exc:
                held[side] = f"error: {exc}"
        same = len(digests["base"]) == 1 and digests["base"] == digests["head"]
        same_held = held["base"] == held["head"] and not held["base"].startswith("error")
        bad |= not (same and same_held)
        print(f"== {workload}  seed {args.seed}: digests {'identical' if same else 'DIFFER'} "
              f"{sorted(digests['base'] | digests['head'])}  held-out seed {held_out}: "
              f"{'identical' if same_held else 'DIFFER'}  exact counters "
              f"{'identical' if exact['base'] == exact['head'] else 'differ'}  "
              f"errors base {failed['base']}/{attempted['base']} "
              f"head {failed['head']}/{attempted['head']}")
        rates = {side: failed[side] / max(attempted[side], 1) for side in sides}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, head = medians["base"].get(name), medians["head"].get(name)
            if not base or not head or len(base) != len(head):
                print(f"  {name:<20} no paired samples")
                bad = True
                continue
            result = verdict(base, head, metric["better"], metric["bound"],
                             rates["base"], rates["head"])
            bad |= result == "worse"
            cells = []
            for values in (base, head):
                q1, median, q3 = bench.quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
            print(f"  {name:<20} {metric['unit']:<6} base {cells[0]:<34} head {cells[1]:<34} "
                  f"head wins {wins}/{len(base)}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
