"""Declarative description of what should go wrong during a run.

A :class:`FaultPlan` is a frozen value object: it carries probabilities and
offsets but no state, so it hashes into the sweep-executor cache key and
compares by value.  All randomness is drawn later, by the
:class:`repro.faults.injector.FaultInjector`, from seeded streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.errors import ExperimentError, SimulationError

__all__ = [
    "FaultPlan",
    "StallWindow",
    "CrashWindow",
    "DegradeWindow",
    "FAULT_PRESETS",
]


@dataclass(frozen=True)
class StallWindow:
    """One server-side stall: the CPU is seized for ``duration`` seconds.

    Models a stop-the-world pause (GC, page-fault storm, noisy neighbour)
    starting at sim time ``start``.
    """

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ExperimentError(f"stall start must be >= 0, got {self.start!r}")
        if self.duration <= 0:
            raise ExperimentError(f"stall duration must be > 0, got {self.duration!r}")


@dataclass(frozen=True)
class CrashWindow:
    """One crash–restart fault: a server *instance* dies and comes back.

    At sim time ``start`` the targeted instance crashes: every in-flight
    request on it fails, all of its connections reset (both the ones
    upstream tiers pooled towards it and its own outbound pool), and new
    connection attempts are refused while it is down.  At ``end`` the
    instance restarts **cold**: caches empty, circuit breakers back in
    their initial state, and — when ``warmup`` is non-zero — its CPU is
    seized for ``warmup`` seconds of system work (JIT/cache warm-up), so
    the first requests after the restart see degraded service.

    ``instance`` selects which member of the crash-target list dies
    (replica index in a replicated tier; ``0`` is the only valid value
    for a single-instance tier).  Field sanity lives in
    :meth:`FaultPlan.validate`, which rejects malformed windows with
    :class:`~repro.errors.SimulationError` before a run starts.
    """

    start: float
    end: float
    instance: int = 0
    #: Seconds of full-CPU warm-up penalty charged right after restart.
    warmup: float = 0.5


@dataclass(frozen=True)
class DegradeWindow:
    """One gray failure: an instance turns slow-but-alive for a while.

    Between ``start`` and ``end`` the targeted instance keeps accepting
    and answering requests, but ``share`` of its CPU capacity is gone
    (noisy neighbour, runaway compaction, thermal throttling): every
    burst its CPU runs is stretched by ``1 / (1 - share)``.  Nothing
    fails outright — no connection resets, no refused connects, health
    probes still answer — which is precisely why consecutive-failure
    ejection never notices and latency-aware ejection
    (:mod:`repro.replica.group`) is needed.

    ``instance`` selects the member of the fault-target list exactly as
    :class:`CrashWindow` does.  Field sanity lives in
    :meth:`FaultPlan.validate`, which also rejects a degrade window
    overlapping another degrade — or any crash — on the same instance
    (a gray failure of a dead instance has no defined semantics).
    """

    start: float
    end: float
    instance: int = 0
    #: Fraction of the instance's CPU capacity lost to the gray failure.
    share: float = 0.75


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ExperimentError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong, how often, and where.

    The default-constructed plan injects nothing (``enabled`` is False) and
    a run configured with it is bit-identical to a run with no plan at all.

    Probabilities are *per segment* (loss/corruption/spike, applied on the
    server→client data path), *per request* (connection reset on request
    arrival) or *per issued request* (client abort).
    """

    #: Probability a data segment is lost and must be retransmitted after
    #: an RTO — modelled as extra delivery delay, since only timing matters.
    segment_loss_prob: float = 0.0
    #: Probability a segment arrives corrupted and is retransmitted.
    segment_corrupt_prob: float = 0.0
    #: Probability a segment experiences an added latency spike.
    latency_spike_prob: float = 0.0
    #: Size of one latency spike in seconds.
    latency_spike: float = 0.020
    #: Probability the connection is reset when a request arrives.
    reset_request_prob: float = 0.0
    #: Reset the connection after this many requests have arrived on it.
    reset_after_requests: Optional[int] = None
    #: Probability a client abandons (aborts) an issued request early.
    client_abort_prob: float = 0.0
    #: How long an aborting client waits before giving up, in seconds.
    client_abort_delay: float = 0.050
    #: Server-side stop-the-world stall windows.
    server_stalls: Tuple[StallWindow, ...] = ()
    #: Crash–restart windows: a server instance dies at ``start`` and
    #: restarts cold at ``end`` (see :class:`CrashWindow`).  Applied to
    #: whatever crash targets the runner registers — the Tomcat tier
    #: instance(s) in the n-tier topology.
    crash_windows: Tuple[CrashWindow, ...] = ()
    #: Gray-failure windows: a server instance turns slow-but-alive
    #: between ``start`` and ``end`` (see :class:`DegradeWindow`).
    #: Applied to the same fault-target list as ``crash_windows``.
    degrade_windows: Tuple[DegradeWindow, ...] = ()
    #: Retransmission timeout charged per lost/corrupted segment.
    rto: float = 0.200

    def __post_init__(self) -> None:
        _check_prob("segment_loss_prob", self.segment_loss_prob)
        _check_prob("segment_corrupt_prob", self.segment_corrupt_prob)
        _check_prob("latency_spike_prob", self.latency_spike_prob)
        _check_prob("reset_request_prob", self.reset_request_prob)
        _check_prob("client_abort_prob", self.client_abort_prob)
        if self.latency_spike < 0:
            raise ExperimentError(f"latency_spike must be >= 0, got {self.latency_spike!r}")
        if self.client_abort_delay <= 0:
            raise ExperimentError(
                f"client_abort_delay must be > 0, got {self.client_abort_delay!r}"
            )
        if self.rto <= 0:
            raise ExperimentError(f"rto must be > 0, got {self.rto!r}")
        if self.reset_after_requests is not None and self.reset_after_requests < 1:
            raise ExperimentError(
                f"reset_after_requests must be >= 1, got {self.reset_after_requests!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when this plan can inject at least one fault."""
        return (
            self.segment_loss_prob > 0
            or self.segment_corrupt_prob > 0
            or self.latency_spike_prob > 0
            or self.reset_request_prob > 0
            or self.reset_after_requests is not None
            or self.client_abort_prob > 0
            or bool(self.server_stalls)
            or bool(self.crash_windows)
            or bool(self.degrade_windows)
        )

    @property
    def connection_faults_enabled(self) -> bool:
        """True when the plan injects faults on the TCP data path."""
        return (
            self.segment_loss_prob > 0
            or self.segment_corrupt_prob > 0
            or self.latency_spike_prob > 0
            or self.reset_request_prob > 0
            or self.reset_after_requests is not None
        )

    def validate(self) -> "FaultPlan":
        """Reject malformed stall/crash windows with :class:`SimulationError`.

        Called by the :class:`~repro.faults.injector.FaultInjector` before
        any process is spawned, so a bad plan fails loudly up front instead
        of silently misbehaving mid-run.  Checks: no negative times, every
        window must end after it starts, two crash windows targeting the
        same instance must not overlap (a crash of an already-crashed
        instance has no defined semantics), degrade windows must carry a
        CPU share strictly inside (0, 1) and may not overlap each other —
        or any crash window — on the same instance (crash-during-degrade
        would leave the gray-failure hogs seizing a dead instance's CPU
        through its restart warm-up, which has no defined semantics).
        """
        # Stall windows are range-checked at construction (StallWindow
        # __post_init__) and overlapping stalls just stack CPU hogs, so
        # only the crash windows need cross-window checks here.
        for window in self.crash_windows:
            if window.start < 0:
                raise SimulationError(
                    f"crash start must be >= 0, got {window.start!r}"
                )
            if window.end <= window.start:
                raise SimulationError(
                    f"crash end must be > start, got "
                    f"[{window.start!r}, {window.end!r}]"
                )
            if window.instance < 0:
                raise SimulationError(
                    f"crash instance must be >= 0, got {window.instance!r}"
                )
            if window.warmup < 0:
                raise SimulationError(
                    f"crash warmup must be >= 0, got {window.warmup!r}"
                )
        for window in self.degrade_windows:
            if window.start < 0:
                raise SimulationError(
                    f"degrade start must be >= 0, got {window.start!r}"
                )
            if window.end <= window.start:
                raise SimulationError(
                    f"degrade end must be > start, got "
                    f"[{window.start!r}, {window.end!r}]"
                )
            if window.instance < 0:
                raise SimulationError(
                    f"degrade instance must be >= 0, got {window.instance!r}"
                )
            if not 0.0 < window.share < 1.0:
                raise SimulationError(
                    f"degrade share must be in (0, 1), got {window.share!r}"
                )
        by_instance: Dict[int, list] = {}
        for window in self.crash_windows:
            by_instance.setdefault(window.instance, []).append(("crash", window))
        for window in self.degrade_windows:
            by_instance.setdefault(window.instance, []).append(("degrade", window))
        for instance, windows in by_instance.items():
            windows.sort(key=lambda kw: kw[1].start)
            for (kind_a, earlier), (kind_b, later) in zip(windows, windows[1:]):
                if later.start < earlier.end:
                    raise SimulationError(
                        f"overlapping {kind_a}/{kind_b} windows for instance "
                        f"{instance}: [{earlier.start:g}, {earlier.end:g}) "
                        f"and [{later.start:g}, {later.end:g})"
                    )
        return self

    def describe(self) -> str:
        """One-line summary listing only the non-default knobs."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default and f.name not in (
                "server_stalls", "crash_windows", "degrade_windows"
            ):
                parts.append(f"{f.name}={value:g}" if isinstance(value, float) else f"{f.name}={value}")
        if self.server_stalls:
            parts.append(f"stalls={len(self.server_stalls)}")
        if self.crash_windows:
            parts.append(f"crashes={len(self.crash_windows)}")
        if self.degrade_windows:
            parts.append(f"degrades={len(self.degrade_windows)}")
        return ", ".join(parts) if parts else "no faults"


#: Named fault intensities used by the chaos artifact (escalating severity).
FAULT_PRESETS: Dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "mild": FaultPlan(
        segment_loss_prob=0.002,
        latency_spike_prob=0.01,
        latency_spike=0.005,
        client_abort_prob=0.002,
    ),
    "moderate": FaultPlan(
        segment_loss_prob=0.01,
        segment_corrupt_prob=0.005,
        latency_spike_prob=0.03,
        latency_spike=0.010,
        reset_request_prob=0.002,
        client_abort_prob=0.01,
        server_stalls=(StallWindow(start=1.0, duration=0.05),),
    ),
    "severe": FaultPlan(
        segment_loss_prob=0.03,
        segment_corrupt_prob=0.01,
        latency_spike_prob=0.08,
        latency_spike=0.020,
        reset_request_prob=0.01,
        client_abort_prob=0.03,
        server_stalls=(
            StallWindow(start=0.8, duration=0.10),
            StallWindow(start=1.6, duration=0.10),
        ),
    ),
}
