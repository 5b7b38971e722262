"""Measurement and reporting utilities (JMeter + collectl analogues)."""

from repro.metrics.collector import RunRecorder, RunReport
from repro.metrics.queueing import (
    littles_law_concurrency,
    littles_law_residual,
    saturation_knee,
    utilization_law_demand,
)
from repro.metrics.stats import SummaryStats, percentile
from repro.metrics.tracing import RequestTrace, RequestTracer, TraceEvent

__all__ = [
    "RunRecorder",
    "RunReport",
    "littles_law_concurrency",
    "littles_law_residual",
    "saturation_knee",
    "utilization_law_demand",
    "SummaryStats",
    "percentile",
    "RequestTrace",
    "RequestTracer",
    "TraceEvent",
]
