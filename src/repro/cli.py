"""Command-line interface: ``repro-bench`` / ``python -m repro``.

Commands
--------
``repro-bench list``
    Show every reproducible artifact with its rough runtime.
``repro-bench run fig7 [--scale 0.3] [--jobs 4]``
    Regenerate one artifact, print the table and shape checks.  Besides
    the paper's figures and tables, the ids include ``chaos``,
    ``metastable``, ``cache``, ``failover``, ``million``, ``dag`` and
    ``shard`` (``repro-bench list`` shows them all).
``repro-bench all [--scale 0.3] [--jobs auto] [--markdown experiments.md]``
    Regenerate everything; optionally write a markdown report.
``repro-bench calibration``
    Print the calibration constants in use.
``repro-bench sweep-cache [--clear]``
    Show (or empty) the on-disk sweep-result cache.

``--jobs N`` fans each artifact's sweep points out over ``N`` worker
processes (``auto`` = one per core); results are bit-identical to a
serial run.  The ``REPRO_JOBS`` environment variable sets the default.
``--shards N`` runs each eligible simulation on the sharded parallel
kernel (N kernel islands in worker processes; bit-identical to serial);
the ``REPRO_SHARDS`` environment variable sets the default.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.calibration import DEFAULT_CALIBRATION
from repro.errors import ReproError
from repro.experiments.parallel import (
    cache_root,
    clear_cache,
    consume_sweep_totals,
    resolve_jobs,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import (
    render_artifact,
    render_markdown,
    render_sweep_summary,
)
from repro.shard import resolve_shards

__all__ = ["main", "build_parser"]


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="measurement-window scale in (0, 1]; lower = faster")
    parser.add_argument("--jobs", default=None, metavar="N",
                        help="sweep worker processes (integer or 'auto'; "
                        "default: $REPRO_JOBS, else serial)")
    parser.add_argument("--shards", default=None, metavar="N", type=int,
                        help="kernel islands per eligible simulation, a "
                        "positive integer (default: $REPRO_SHARDS, else 1 = "
                        "serial)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-bench argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of 'Improving "
        "Asynchronous Invocation Performance in Client-Server Systems' "
        "(ICDCS 2018).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifacts")
    sub.add_parser("calibration", help="print calibration constants")

    sweep_cache = sub.add_parser(
        "sweep-cache", help="show or clear the sweep-result cache"
    )
    sweep_cache.add_argument("--clear", action="store_true",
                             help="delete every cached sweep point")

    run = sub.add_parser("run", help="regenerate one artifact")
    run.add_argument("artifact", help="artifact id, e.g. fig7 or tab4")
    _add_sweep_flags(run)

    all_cmd = sub.add_parser("all", help="regenerate every artifact")
    _add_sweep_flags(all_cmd)
    all_cmd.add_argument("--markdown", default=None,
                         help="also write a markdown report to this path")
    return parser


def _cmd_list() -> int:
    width = max(len(a) for a in EXPERIMENTS)
    for artifact, spec in EXPERIMENTS.items():
        print(f"{artifact.ljust(width)}  {spec.title}  [{spec.cost}]")
    return 0


def _cmd_calibration() -> int:
    for key, value in DEFAULT_CALIBRATION.describe().items():
        print(f"{key:32s} {value}")
    return 0


def _cmd_cache(clear: bool) -> int:
    root = cache_root()
    if root is None:
        print("cache disabled (REPRO_CACHE=0)")
        return 0
    if clear:
        removed = clear_cache(root)
        print(f"removed {removed} cached point(s) from {root}")
        return 0
    entries = list(root.glob("*/*.pkl"))
    total = sum(path.stat().st_size for path in entries)
    print(f"cache directory: {root}")
    print(f"cached points:   {len(entries)}")
    print(f"total size:      {total / 1024:.1f} KiB")
    return 0


def _check_scale(scale: float) -> float:
    if not 0.0 < scale <= 1.0:
        raise ReproError(f"--scale must be in (0, 1], got {scale}")
    return scale


def _apply_shards(shards: Optional[int]) -> None:
    """Validate ``--shards`` (or ``REPRO_SHARDS``) and propagate it.

    The artifact runners construct their simulation configs internally,
    so the CLI cannot pass ``shards=`` through; the environment variable
    is the documented default channel and worker processes inherit it.
    Resolving here rejects a malformed count before anything simulates.
    """
    count = resolve_shards(shards)
    if shards is not None:
        os.environ["REPRO_SHARDS"] = str(count)


def _cmd_run(artifact: str, scale: float, jobs: Optional[str],
             shards: Optional[int] = None) -> int:
    _apply_shards(shards)
    spec = get_experiment(artifact)
    consume_sweep_totals()  # drop accounting left over from earlier runs
    started = time.time()
    result = spec.runner(_check_scale(scale), jobs=resolve_jobs(jobs))
    print(render_artifact(result))
    print(render_sweep_summary(time.time() - started, consume_sweep_totals(), scale))
    return 0 if result.all_passed else 1


def _cmd_all(scale: float, jobs: Optional[str], markdown: Optional[str],
             shards: Optional[int] = None) -> int:
    _apply_shards(shards)
    _check_scale(scale)
    resolved_jobs = resolve_jobs(jobs)
    sections: List[str] = []
    failures = 0
    consume_sweep_totals()  # drop accounting left over from earlier runs
    for artifact, spec in EXPERIMENTS.items():
        started = time.time()
        result = spec.runner(scale, jobs=resolved_jobs)
        print(render_artifact(result))
        print(render_sweep_summary(time.time() - started, consume_sweep_totals(), scale))
        print()
        sections.append(render_markdown(result))
        failures += len(result.failed_checks)
    if markdown:
        with open(markdown, "w", encoding="utf-8") as handle:
            handle.write("\n".join(sections))
        print(f"markdown report written to {markdown}")
    if failures:
        print(f"{failures} shape check(s) failed", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "calibration":
            return _cmd_calibration()
        if args.command == "sweep-cache":
            return _cmd_cache(args.clear)
        if args.command == "run":
            return _cmd_run(args.artifact, args.scale, args.jobs, args.shards)
        if args.command == "all":
            return _cmd_all(args.scale, args.jobs, args.markdown, args.shards)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
