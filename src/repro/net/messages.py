"""Request/response message types exchanged over simulated connections."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.sim.core import Environment, Event

__all__ = ["Request"]

_request_ids = iter(range(1, 1 << 62))


@dataclass
class Request:
    """One client request and the bookkeeping of its lifetime.

    The request is created by a workload client, travels over a
    :class:`~repro.net.tcp.Connection` to a server, is processed by one of
    the server architectures, and completes when the *entire* response has
    been delivered back to the client (the paper measures end-to-end
    response time the same way via JMeter).
    """

    env: Environment
    kind: str
    response_size: int
    request_size: int = 512
    id: int = field(default_factory=_request_ids.__next__)
    created_at: float = 0.0
    #: Set by the server when a worker first picks the request up.
    service_started_at: Optional[float] = None
    #: Set when the full response reached the client.
    completed_at: Optional[float] = None
    #: Triggered when the full response reached the client.
    completed: Event = None  # type: ignore[assignment]
    #: Number of socket.write() calls the server issued for this response.
    write_calls: int = 0
    #: Number of those calls that returned zero (buffer full).
    zero_writes: int = 0
    #: Free-form per-request annotations (e.g. hybrid path taken).
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Absolute simulation-time deadline carried in the request header.
    #: ``None`` (the default) means no deadline; tiers that receive a
    #: deadline refuse expired work immediately (see repro.resilience).
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.response_size < 0:
            raise ValueError(f"response_size must be >= 0, got {self.response_size!r}")
        if self.request_size < 1:
            raise ValueError(f"request_size must be >= 1, got {self.request_size!r}")
        self.created_at = self.env._now
        if self.completed is None:
            self.completed = Event(self.env)

    @property
    def response_time(self) -> Optional[float]:
        """End-to-end latency, or ``None`` if not yet completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    def mark_completed(self) -> None:
        """Record completion time and succeed the completion event with
        ``None`` (a value naming the request would make a reference cycle)."""
        if self.completed_at is None:
            self.completed_at = self.env.now
            self.completed.succeed()

    def __repr__(self) -> str:
        return f"<Request #{self.id} {self.kind!r} resp={self.response_size}B>"
