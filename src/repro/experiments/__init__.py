"""Experiment harness: one registered reproduction per paper artifact.

The names below are imported on first access (PEP 562 module
``__getattr__``): a run that imports :mod:`repro.experiments.micro` does
not load the sweep executor (and with it :mod:`multiprocessing`), the
artifact registry or the artifact modules.
"""

import importlib

#: Where each re-exported name lives.
_HOMES = {
    "repro.experiments.capacity": (
        "CapacityEstimate",
        "closed_loop_capacity",
        "open_loop_capacity",
    ),
    "repro.experiments.micro": (
        "MicroConfig",
        "MicroResult",
        "SERVER_FACTORIES",
        "make_server",
        "run_micro",
        "suggest_timing",
    ),
    "repro.experiments.parallel": (
        "SweepExecutor",
        "SweepStats",
        "cache_root",
        "cached_call",
        "cached_micro",
        "cached_ntier",
        "clear_cache",
        "resolve_jobs",
    ),
    "repro.experiments.registry": (
        "EXPERIMENTS",
        "ExperimentSpec",
        "bench_jobs",
        "bench_scale",
        "get_experiment",
        "run_experiment",
    ),
    "repro.experiments.report": ("render_artifact", "render_markdown", "render_table"),
    "repro.experiments.results": ("ArtifactResult", "ShapeCheck"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [
    "CapacityEstimate",
    "closed_loop_capacity",
    "open_loop_capacity",
    "MicroConfig",
    "MicroResult",
    "SERVER_FACTORIES",
    "make_server",
    "run_micro",
    "suggest_timing",
    "SweepExecutor",
    "SweepStats",
    "cache_root",
    "cached_call",
    "cached_micro",
    "cached_ntier",
    "clear_cache",
    "resolve_jobs",
    "EXPERIMENTS",
    "ExperimentSpec",
    "bench_jobs",
    "bench_scale",
    "get_experiment",
    "run_experiment",
    "render_artifact",
    "render_markdown",
    "render_table",
    "ArtifactResult",
    "ShapeCheck",
]


def __getattr__(name: str):
    """Import a re-exported name on first access and keep it."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
