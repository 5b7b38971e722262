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

from repro.calibration import Calibration, DEFAULT_CALIBRATION, default_calibration
from repro.core import HybridServer, PathCategory
from repro.cpu import CPU, SimThread
from repro.errors import ReproError
from repro.faults import FAULT_PRESETS, FaultInjector, FaultPlan, FaultReport, StallWindow
from repro.experiments import (
    EXPERIMENTS,
    ArtifactResult,
    MicroConfig,
    MicroResult,
    render_artifact,
    run_experiment,
    run_micro,
)
from repro.metrics import RunRecorder, RunReport, SummaryStats
from repro.net import Connection, Link, Request, Selector
from repro.ntier import NTierConfig, ThreeTierSystem, run_ntier
from repro.servers import (
    BaseServer,
    ComputeApplication,
    NettyServer,
    ReactorFixServer,
    ReactorServer,
    ServerLimits,
    SingleThreadedServer,
    ThreadedServer,
    TomcatAsyncServer,
    TomcatSyncServer,
)
from repro.sim import Environment, SeedStreams
from repro.workload import (
    BimodalMix,
    ClosedLoopClient,
    FixedMix,
    RetryPolicy,
    RubbosMix,
    ZipfMix,
    build_population,
)

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
