"""Measurement collectors for simulated benchmark runs.

:class:`RunRecorder` plays the role of JMeter's aggregate report plus
collectl: it records per-request completions after a warm-up boundary and,
paired with CPU snapshots, yields the throughput / response time / CPU /
context-switch numbers the paper's tables and figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cpu.accounting import CPUSnapshot, CPUUsage
from repro.cpu.scheduler import CPU
from repro.metrics.stats import make_stats
from repro.net.messages import Request
from repro.sim.core import Environment

__all__ = ["RunRecorder", "RunReport"]


@dataclass(frozen=True)
class RunReport:
    """Aggregated results of one measurement window."""

    duration: float
    completed: int
    throughput: float
    response_time_mean: float
    response_time_p50: float
    response_time_p95: float
    response_time_p99: float
    write_calls_per_request: float
    zero_writes_per_request: float
    cpu: Optional[CPUUsage]
    per_kind_throughput: Dict[str, float] = field(default_factory=dict)
    per_kind_response_time: Dict[str, float] = field(default_factory=dict)
    #: Rejection responses received (server load shedding) in the window.
    rejected: int = 0
    #: Logical requests abandoned by clients after exhausting retries.
    failed: int = 0

    @property
    def goodput(self) -> float:
        """Successful responses per second (rejections excluded by
        construction: only full responses enter ``completed``)."""
        return self.throughput

    @property
    def context_switch_rate(self) -> float:
        """Context switches per second during the window (0 if no CPU)."""
        return self.cpu.context_switch_rate if self.cpu else 0.0


class RunRecorder:
    """Collects request completions within a [warmup, end) window.

    Usage::

        recorder = RunRecorder(env, warmup=0.5)
        recorder.watch_cpu(server_cpu)
        ... clients call recorder.record(request) on completion ...
        env.run(until=end)
        report = recorder.report()
    """

    def __init__(
        self,
        env: Environment,
        warmup: float = 0.0,
        streaming: bool = False,
        timeline_bucket: float = 0.0,
    ):
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup!r}")
        if timeline_bucket < 0:
            raise ValueError(
                f"timeline_bucket must be >= 0, got {timeline_bucket!r}"
            )
        self.env = env
        self.warmup = warmup
        #: Opt-in fixed-memory mode for huge runs: moments stay exact,
        #: percentiles become P² estimates (see repro.metrics.stats).
        #: The default keeps raw samples for exact percentiles.
        self.streaming = streaming
        self.response_times = make_stats(streaming)
        # The report reads only means of these and of the per-kind stats,
        # so a streaming recorder keeps no quantile estimators for them.
        self.write_calls = make_stats(streaming, quantiles=())
        self.zero_writes = make_stats(streaming, quantiles=())
        self._per_kind: Dict[str, object] = {}
        self._cpu: Optional[CPU] = None
        self._cpu_start: Optional[CPUSnapshot] = None
        self._started = False
        self.total_seen = 0
        #: Rejection responses observed inside the measurement window.
        self.rejected = 0
        #: Failed (retry-exhausted) logical requests inside the window.
        self.failed = 0
        #: Goodput timeline: successful completions bucketed by absolute
        #: simulation time (warm-up included — metastable-failure analysis
        #: needs the pre-stall baseline).  ``None`` when disabled.
        self._timeline_bucket = timeline_bucket
        self._timeline: Optional[list] = [] if timeline_bucket > 0 else None

    # ------------------------------------------------------------------
    def watch_cpu(self, cpu: CPU) -> None:
        """Snapshot ``cpu`` counters at the warm-up boundary and at report
        time so CPU usage covers exactly the measurement window."""
        self._cpu = cpu
        if self.env.now >= self.warmup:
            self._begin()
        else:
            boundary = self.env.timeout(self.warmup - self.env.now)
            boundary.callbacks.append(lambda _event: self._begin())

    def _begin(self) -> None:
        if self._started:
            return
        self._started = True
        if self._cpu is not None:
            self._cpu_start = self._cpu.snapshot()

    def _maybe_start(self) -> None:
        if not self._started and self.env.now >= self.warmup:
            self._begin()

    def record(self, request: Request) -> None:
        """Record a completed request (ignored while warming up).

        A request flagged ``rejected`` by server load shedding is counted
        separately and kept out of the response-time population — a tiny
        503-style response must not masquerade as a fast success.
        """
        self.total_seen += 1
        if (
            self._timeline is not None
            and request.completed_at is not None
            and not request.metadata.get("rejected")
        ):
            bucket = int(request.completed_at / self._timeline_bucket)
            while len(self._timeline) <= bucket:
                self._timeline.append(0)
            self._timeline[bucket] += 1
        self._maybe_start()
        if not self._started or request.completed_at is None:
            return
        if request.metadata.get("rejected"):
            self.rejected += 1
            return
        rt = request.response_time
        if rt is None:
            return
        self.response_times.add(rt)
        self.write_calls.add(request.write_calls)
        self.zero_writes.add(request.zero_writes)
        kind_stats = self._per_kind.get(request.kind)
        if kind_stats is None:
            kind_stats = self._per_kind[request.kind] = make_stats(
                self.streaming, quantiles=()
            )
        kind_stats.add(rt)

    def timeline(self) -> "tuple":
        """Per-bucket successful completions since t=0 (empty when the
        recorder was built without ``timeline_bucket``)."""
        if self._timeline is None:
            return ()
        return tuple(self._timeline)

    def record_failure(self, request: Request) -> None:
        """Record a logical request that exhausted its retries (no response)."""
        self._maybe_start()
        if not self._started:
            return
        self.failed += 1

    # ------------------------------------------------------------------
    def report(self) -> RunReport:
        """Summarise the window ending now."""
        self._maybe_start()
        start = self.warmup if self._started else self.env.now
        duration = max(self.env.now - start, 1e-12)
        completed = self.response_times.count
        cpu_usage: Optional[CPUUsage] = None
        if self._cpu is not None and self._cpu_start is not None:
            end = self._cpu.snapshot()
            if end.time > self._cpu_start.time:
                cpu_usage = end.usage_since(self._cpu_start, self._cpu.cores)
        if completed:
            rts = self.response_times
            per_kind_tput = {k: s.count / duration for k, s in self._per_kind.items()}
            per_kind_rt = {k: s.mean for k, s in self._per_kind.items()}
            return RunReport(
                duration=duration,
                completed=completed,
                throughput=completed / duration,
                response_time_mean=rts.mean,
                response_time_p50=rts.p50,
                response_time_p95=rts.p95,
                response_time_p99=rts.p99,
                write_calls_per_request=self.write_calls.mean,
                zero_writes_per_request=self.zero_writes.mean,
                cpu=cpu_usage,
                per_kind_throughput=per_kind_tput,
                per_kind_response_time=per_kind_rt,
                rejected=self.rejected,
                failed=self.failed,
            )
        return RunReport(
            duration=duration,
            completed=0,
            throughput=0.0,
            response_time_mean=float("nan"),
            response_time_p50=float("nan"),
            response_time_p95=float("nan"),
            response_time_p99=float("nan"),
            write_calls_per_request=float("nan"),
            zero_writes_per_request=float("nan"),
            cpu=cpu_usage,
            rejected=self.rejected,
            failed=self.failed,
        )
