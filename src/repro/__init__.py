"""repro — reproduction of "Improving Asynchronous Invocation Performance
in Client-Server Systems" (Zhang, Wang, Kanemasa; ICDCS 2018).

The library provides:

* a discrete-event simulation substrate (:mod:`repro.sim`,
  :mod:`repro.cpu`, :mod:`repro.net`) that models CPU scheduling with
  context-switch accounting and TCP connections with send-buffer /
  wait-ACK dynamics;
* the six server architectures the paper studies (:mod:`repro.servers`)
  and its contribution, the hybrid server (:mod:`repro.core`);
* workload generation including the RUBBoS n-tier macro-benchmark
  (:mod:`repro.workload`, :mod:`repro.ntier`);
* an experiment harness that regenerates every table and figure of the
  paper's evaluation (:mod:`repro.experiments`), runnable via
  ``repro-bench`` or ``pytest benchmarks/``.

Quickstart::

    from repro import MicroConfig, run_micro

    result = run_micro(MicroConfig(server="SingleT-Async", concurrency=100,
                                   response_size=100 * 1024,
                                   duration=3.0, warmup=1.0))
    print(result.throughput, result.report.write_calls_per_request)
"""

import importlib

#: Where each re-exported name lives.  A name is imported on first access
#: (PEP 562 module ``__getattr__``), so ``import repro`` loads only the
#: modules a program then uses: a simulation run never loads the sweep
#: executor, the artifact registry or :mod:`multiprocessing`.
_HOMES = {
    "repro.calibration": ("Calibration", "DEFAULT_CALIBRATION", "default_calibration"),
    "repro.core": ("HybridServer", "PathCategory"),
    "repro.cpu": ("CPU", "SimThread"),
    "repro.errors": ("ReproError",),
    "repro.faults": ("FAULT_PRESETS", "FaultInjector", "FaultPlan", "FaultReport", "StallWindow"),
    "repro.experiments": (
        "EXPERIMENTS",
        "ArtifactResult",
        "MicroConfig",
        "MicroResult",
        "render_artifact",
        "run_experiment",
        "run_micro",
    ),
    "repro.metrics": ("RunRecorder", "RunReport", "SummaryStats"),
    "repro.net": ("Connection", "Link", "Request", "Selector"),
    "repro.ntier": ("NTierConfig", "ThreeTierSystem", "run_ntier"),
    "repro.servers": (
        "BaseServer",
        "ComputeApplication",
        "NettyServer",
        "ReactorFixServer",
        "ReactorServer",
        "ServerLimits",
        "SingleThreadedServer",
        "ThreadedServer",
        "TomcatAsyncServer",
        "TomcatSyncServer",
    ),
    "repro.sim": ("Environment", "SeedStreams"),
    "repro.workload": (
        "BimodalMix",
        "ClosedLoopClient",
        "FixedMix",
        "RetryPolicy",
        "RubbosMix",
        "ZipfMix",
        "build_population",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "default_calibration",
    "HybridServer",
    "PathCategory",
    "CPU",
    "SimThread",
    "ReproError",
    "FAULT_PRESETS",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "StallWindow",
    "EXPERIMENTS",
    "ArtifactResult",
    "MicroConfig",
    "MicroResult",
    "render_artifact",
    "run_experiment",
    "run_micro",
    "RunRecorder",
    "RunReport",
    "SummaryStats",
    "Connection",
    "Link",
    "Request",
    "Selector",
    "NTierConfig",
    "ThreeTierSystem",
    "run_ntier",
    "BaseServer",
    "ComputeApplication",
    "NettyServer",
    "ReactorFixServer",
    "ReactorServer",
    "ServerLimits",
    "SingleThreadedServer",
    "ThreadedServer",
    "TomcatAsyncServer",
    "TomcatSyncServer",
    "Environment",
    "SeedStreams",
    "BimodalMix",
    "ClosedLoopClient",
    "FixedMix",
    "RetryPolicy",
    "RubbosMix",
    "ZipfMix",
    "build_population",
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
