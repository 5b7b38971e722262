#!/usr/bin/env python
"""Where an untraced bench run spends its time, by statistical sampling.

``bench/run.py --trace`` splits a workload's time by layer under cProfile,
which charges a fixed cost to every Python call and so inflates the
layers that make many small calls.  This tool runs one bench workload
in-process with no tracer at all: a ``SIGPROF`` interval timer
(``ITIMER_PROF``, process CPU time) interrupts the run, and each signal
records the Python stack it interrupted.  A function's *self* share is
the share of samples whose innermost frame is that function; its
*cumulative* share is the share of samples with the function anywhere on
the stack.  Layers are the ``LAYER_OF`` values of ``bench/layers.py``: a
sample's self layer is that of its innermost ``src/repro`` frame (time in
the standard library is charged to the ``repro`` code that called it, as
the trace does), and its cumulative layers are every layer on its stack.

The kernel delivers ``SIGPROF`` at its timer tick (about 4 ms on a
250 Hz kernel, some 450 samples in a full hybrid-mix run), so aggregate
several seeds.  CPython runs the handler only where the interpreter
checks for pending signals (function entries and loop back-edges), so a
sample lands on the next such point after the tick: function and layer
shares are sound, but time in a loop body or before a call can be
charged to the loop head or the callee's entry.  ``bench/workloads.py``
and ``bench/layers.py`` are imported read-only (no bytecode is written
under ``bench/``); the previous ``SIGPROF`` handler and timer are
restored afterwards.

Usage::

    python tools/sample_profile.py --workload hybrid-mix --seeds 1-4
    python tools/sample_profile.py --workload million-ntier --seeds 1,2 --top 15
"""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import signal
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"

#: (filename, first line, name) of one sampled function.
Func = Tuple[str, int, str]

#: Requested sampling interval in CPU seconds.  The kernel's timer tick
#: (about 4 ms) sets the real rate; asking for less just samples every tick.
INTERVAL = 0.001


def _load(name: str, path: pathlib.Path):
    """Import a bench module from its file, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: dataclasses looks its module up.
    sys.modules[name] = module
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def parse_seeds(text: str) -> List[int]:
    """``"1-4"`` -> [1, 2, 3, 4]; ``"1,3"`` -> [1, 3]."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


class Profile:
    """Sample counts of one or more runs."""

    def __init__(self) -> None:
        self.samples = 0
        #: Samples with no ``src/repro`` frame on the stack (charged to no
        #: layer and left out of the layer shares).
        self.outside = 0
        self.self_func: Counter = Counter()
        self.cum_func: Counter = Counter()
        self.self_layer: Counter = Counter()
        self.cum_layer: Counter = Counter()

    def shares(self, counts: Counter, total: Optional[int] = None) -> Dict:
        total = total if total is not None else self.samples
        return {key: n / total for key, n in counts.items()} if total else {}

    def layer_shares(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(self, cumulative) share of each layer over attributed samples."""
        attributed = self.samples - self.outside
        return (
            self.shares(self.self_layer, attributed),
            self.shares(self.cum_layer, attributed),
        )


def sample(workload_name: str, seeds: List[int], quick: bool = False) -> Profile:
    """Run ``workload_name`` once per seed under a ``SIGPROF`` sampler."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    workloads = _load("_bench_workloads", BENCH / "workloads.py")
    layers = _load("_bench_layers", BENCH / "layers.py")
    workload = workloads.WORKLOADS[workload_name]
    scale = 1.0 / workloads.QUICK_FACTOR if quick else 1.0
    package_dir = str(pathlib.Path(repro.__file__).resolve().parent)
    profile = Profile()
    layer_cache: Dict[str, Optional[str]] = {}

    def layer(filename: str) -> Optional[str]:
        if filename not in layer_cache:
            layer_cache[filename] = layers.layer_of(filename, package_dir)
        return layer_cache[filename]

    def on_sample(_signum, frame) -> None:
        profile.samples += 1
        code = frame.f_code
        profile.self_func[(code.co_filename, code.co_firstlineno, code.co_name)] += 1
        self_layer = None
        funcs = set()
        stack_layers = set()
        while frame is not None:
            code = frame.f_code
            funcs.add((code.co_filename, code.co_firstlineno, code.co_name))
            owner = layer(code.co_filename)
            if owner is not None:
                stack_layers.add(owner)
                if self_layer is None:
                    self_layer = owner
            frame = frame.f_back
        profile.cum_func.update(funcs)
        if self_layer is None:
            profile.outside += 1
        else:
            profile.self_layer[self_layer] += 1
            profile.cum_layer.update(stack_layers)

    previous = signal.signal(signal.SIGPROF, on_sample)
    try:
        for seed in seeds:
            config = workload.config(seed, scale)
            timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
            try:
                workload.run(config)
            finally:
                signal.setitimer(signal.ITIMER_PROF, *timer)
    finally:
        signal.signal(signal.SIGPROF, previous)
    return profile


def _name(func: Func) -> str:
    filename, line, name = func
    path = pathlib.Path(filename)
    try:
        shown = path.relative_to(SRC / "repro")
    except ValueError:
        shown = path.name
    return f"{shown}:{line} {name}"


def report(profile: Profile, top: int) -> str:
    """The function and layer tables, as text."""
    lines = [f"{profile.samples} samples, {profile.outside} outside src/repro"]
    if not profile.samples:
        return lines[0]
    self_share = profile.shares(profile.self_func)
    cum_share = profile.shares(profile.cum_func)
    lines += ["", f"{'self':>6} {'cum':>6}  function"]
    for func, share in sorted(self_share.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"{share:6.1%} {cum_share[func]:6.1%}  {_name(func)}")
    layer_self, layer_cum = profile.layer_shares()
    lines += ["", f"{'self':>6} {'cum':>6}  layer"]
    for name, share in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"{share:6.3f} {layer_cum[name]:6.3f}  {name}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="hybrid-mix")
    parser.add_argument("--seeds", default="1", help="e.g. 1-4 or 1,3 (default 1)")
    parser.add_argument("--quick", action="store_true", help="simulated time cut 10x")
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    args = parser.parse_args(argv)
    profile = sample(args.workload, parse_seeds(args.seeds), args.quick)
    print(report(profile, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
