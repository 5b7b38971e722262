"""Per-layer attribution of a cProfile run of the ``repro`` package.

A layer is a top-level entry of ``src/repro`` (a subpackage or a module),
mapped through :data:`LAYER_OF`.  Self time of functions outside the
package — C builtins and stdlib helpers such as ``heapq.heappush`` or
``random.Random.expovariate`` — is charged to the layer(s) that called
them, following the profile's caller edges transitively; only time with no
``repro`` frame anywhere up its caller chain stays unattributed ("other").
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: Top-level entry of ``src/repro`` -> layer.  Every entry must be listed
#: (a test enforces it), so a new package cannot fall into "other" unseen.
LAYER_OF: Dict[str, str] = {
    "sim": "sim",
    # The sharded kernel is kernel machinery: islands, barriers, merge.
    "shard": "sim",
    "net": "net",
    # Real-socket servers and clients: the same role as the simulated TCP.
    "realnet": "net",
    "cpu": "cpu",
    "servers": "servers",
    "core": "core",
    "workload": "workload",
    "metrics": "metrics",
    "ntier": "ntier",
    "cache": "cache",
    "replica": "replica",
    "dag": "dag",
    "cohort": "cohort",
    "faults": "faults",
    "resilience": "resilience",
    "calibration.py": "calibration",
    # Runners and entry points: model assembly and result packaging.
    "experiments": "experiments",
    "cli.py": "experiments",
    "__init__.py": "experiments",
    "__main__.py": "experiments",
    "errors.py": "experiments",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: cProfile's key for one function: (filename, first line, name).
Func = Tuple[str, int, str]


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer owning ``filename``, or ``None`` outside the package."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    entry = filename[len(prefix):].split(os.sep, 1)[0]
    return LAYER_OF.get(entry)


def attribute(stats: dict, package_dir: str) -> Tuple[Dict[Optional[str], float], Dict[str, int]]:
    """Self time and call counts per layer from a ``pstats.Stats.stats`` dict.

    Returns ``(self_time, calls)``: self seconds keyed by layer (``None``
    holds the unattributed rest) and calls into each layer's own
    functions.
    """
    own = {func: layer_of(func[0], package_dir) for func in stats}
    shares: Dict[Func, Dict[Optional[str], float]] = {}

    def share(func: Func, visiting: frozenset) -> Dict[Optional[str], float]:
        """Which layers ``func``'s time belongs to, as fractions."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func not in stats or func in visiting:
            return {None: 1.0}
        callers = stats[func][4]
        weights: Dict[Optional[str], float] = {}
        total = 0.0
        for caller, edge in callers.items():
            cumulative = edge[3]
            total += cumulative
            for key, fraction in share(caller, visiting | {func}).items():
                weights[key] = weights.get(key, 0.0) + cumulative * fraction
        result = {key: w / total for key, w in weights.items()} if total > 0 else {None: 1.0}
        shares[func] = result
        return result

    self_time: Dict[Optional[str], float] = {}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            self_time[layer] = self_time.get(layer, 0.0) + tt
            calls[layer] += nc
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for key, fraction in share(caller, frozenset((func,))).items():
                self_time[key] = self_time.get(key, 0.0) + edge[2] * fraction
            charged += edge[2]
        # Time not split over caller edges (a root such as the profiler's
        # own disable call) has no repro frame to charge.
        self_time[None] = self_time.get(None, 0.0) + max(tt - charged, 0.0)
    return self_time, calls
