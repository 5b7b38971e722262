"""Frozen configuration for replicated tiers.

Follows the contract every optional layer in this repo obeys
(:mod:`repro.cache.config` is the template): a frozen value object that
hashes into sweep cache keys and golden-digest configs, and an
``active`` property that decides whether the Tomcat tier is built as a
replica group at all.  No config and ``replicas=1`` both build the
unreplicated chain: one Tomcat slice, no group, no prober.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError

__all__ = ["ReplicaConfig"]

#: Load-balancing policies the :class:`~repro.replica.group.LoadBalancer`
#: implements.
POLICIES = ("round_robin", "least_outstanding")


@dataclass(frozen=True)
class ReplicaConfig:
    """How the Tomcat tier is replicated and how Apache routes to it."""

    #: Number of Tomcat instances behind Apache.  ``1`` builds the
    #: unreplicated chain (one ``tomcat`` slice, no group), exactly as
    #: when no replica config is given.
    replicas: int = 1
    #: ``"round_robin"`` or ``"least_outstanding"``.
    policy: str = "round_robin"
    #: Consecutive failures that eject a replica from rotation
    #: (``0`` disables passive outlier ejection entirely).
    ejection_threshold: int = 5
    #: Seconds a freshly ejected replica sits out of rotation.
    ejection_duration: float = 1.0
    #: Multiplier applied to the sit-out on every re-ejection (a replica
    #: that fails its re-probe goes back out for longer).
    ejection_backoff: float = 2.0
    #: Ceiling on the backed-off sit-out duration.
    ejection_max_duration: float = 8.0
    #: Period of the active health prober (``0`` disables active probes;
    #: passive ejection then learns only from live request outcomes).
    probe_interval: float = 0.0
    #: Latency-aware outlier ejection: a replica whose EWMA success
    #: latency exceeds ``latency_factor`` × the group median is ejected
    #: even though every one of its requests *succeeds* — the gray
    #: failure consecutive-failure ejection is structurally blind to.
    #: ``0`` (the default) disables the comparison entirely, leaving the
    #: historical event sequence untouched; enabled values must be >= 1.
    latency_factor: float = 0.0
    #: EWMA weight given to each new success-latency sample, in (0, 1].
    latency_alpha: float = 0.2
    #: Success samples a replica (and at least one peer) must accumulate
    #: before the latency comparison is trusted.
    latency_min_samples: int = 10

    def validate(self) -> "ReplicaConfig":
        """Raise :class:`ExperimentError` on nonsensical settings."""
        if self.replicas < 1:
            raise ExperimentError(f"replicas must be >= 1, got {self.replicas!r}")
        if self.policy not in POLICIES:
            raise ExperimentError(
                f"unknown load-balancing policy {self.policy!r} "
                f"(expected one of {POLICIES})"
            )
        if self.ejection_threshold < 0:
            raise ExperimentError(
                f"ejection_threshold must be >= 0, got {self.ejection_threshold!r}"
            )
        if self.ejection_duration <= 0:
            raise ExperimentError(
                f"ejection_duration must be > 0, got {self.ejection_duration!r}"
            )
        if self.ejection_backoff < 1.0:
            raise ExperimentError(
                f"ejection_backoff must be >= 1, got {self.ejection_backoff!r}"
            )
        if self.ejection_max_duration < self.ejection_duration:
            raise ExperimentError(
                "ejection_max_duration must be >= ejection_duration, got "
                f"{self.ejection_max_duration!r}"
            )
        if self.probe_interval < 0:
            raise ExperimentError(
                f"probe_interval must be >= 0, got {self.probe_interval!r}"
            )
        if self.latency_factor != 0 and self.latency_factor < 1.0:
            raise ExperimentError(
                "latency_factor must be 0 (disabled) or >= 1, got "
                f"{self.latency_factor!r}"
            )
        if not 0.0 < self.latency_alpha <= 1.0:
            raise ExperimentError(
                f"latency_alpha must be in (0, 1], got {self.latency_alpha!r}"
            )
        if self.latency_min_samples < 1:
            raise ExperimentError(
                f"latency_min_samples must be >= 1, got "
                f"{self.latency_min_samples!r}"
            )
        return self

    @property
    def active(self) -> bool:
        """True when the Tomcat tier is built as a replica group.

        A single replica is *defined* as the unreplicated chain, so the
        group, its balancer and its prober (and the ``tomcat{i}``
        naming) only exist for ``replicas > 1`` — that is what makes
        ``replicas=1`` trivially bit-identical rather than accidentally
        so.
        """
        return self.replicas > 1
