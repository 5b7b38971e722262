"""Point-to-point network link model.

A :class:`Link` carries bytes between two machines with a fixed one-way
propagation latency and a finite bandwidth.  It is deliberately simple —
no loss, no reordering — because the paper's experiments run on a reliable
LAN where the dominant effects are latency (possibly injected with ``tc``)
and the TCP wait-ACK round trips, both of which this model captures.
"""

from __future__ import annotations

from repro.calibration import Calibration, DEFAULT_CALIBRATION

__all__ = ["Link"]


class Link:
    """A reliable full-duplex link with latency and bandwidth.

    Parameters
    ----------
    one_way_latency:
        Propagation delay in seconds for each direction.  This corresponds
        to the paper's ``tc``-injected latency *plus* the baseline LAN
        latency.
    bandwidth:
        Line rate in bytes/second (default: calibration's 1 GbE).
    """

    def __init__(
        self,
        one_way_latency: float = DEFAULT_CALIBRATION.lan_one_way_latency,
        bandwidth: float = DEFAULT_CALIBRATION.link_bandwidth,
    ):
        if one_way_latency < 0:
            raise ValueError(f"one_way_latency must be >= 0, got {one_way_latency!r}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth!r}")
        self.one_way_latency = float(one_way_latency)
        self.bandwidth = float(bandwidth)

    @classmethod
    def lan(cls, calibration: Calibration = DEFAULT_CALIBRATION, added_latency: float = 0.0) -> "Link":
        """A LAN link with optional injected latency (the paper's ``tc``)."""
        return cls(
            one_way_latency=calibration.lan_one_way_latency + added_latency,
            bandwidth=calibration.link_bandwidth,
        )

    def serialization_delay(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        return nbytes / self.bandwidth

    def chunk_schedule(self, now: float, wire_free_at: float, nbytes: int) -> "tuple[float, float]":
        """Departure bookkeeping for one cwnd-limited chunk.

        Returns ``(new_wire_free_at, delivery_delay)`` for a chunk handed
        to the link at ``now`` when the wire is busy until ``wire_free_at``:
        the chunk departs once the wire frees, serialises at line rate, and
        lands one propagation delay later.  The segment-level pump and the
        general planner of the flow-level fast path in :mod:`repro.net.tcp`
        call this method; the short branch of ``Connection._fp_extend``
        repeats its expressions inline.  The bit-identical-digest contract
        needs all of them to compute timestamps with literally the same
        float expressions, so change this method and that inline copy
        together, and do not algebraically "simplify" either.
        """
        serialization = nbytes / self.bandwidth
        depart = now if now > wire_free_at else wire_free_at
        free_at = depart + serialization
        return free_at, (depart - now) + serialization + self.one_way_latency

    def transfer_delay(self, nbytes: int) -> float:
        """One-way delivery time for a message of ``nbytes``."""
        return self.one_way_latency + nbytes / self.bandwidth

    @property
    def rtt(self) -> float:
        """Round-trip propagation time (excluding serialization)."""
        return 2.0 * self.one_way_latency

    def __repr__(self) -> str:
        return f"<Link latency={self.one_way_latency * 1e3:.3f}ms bw={self.bandwidth / 1e6:.0f}MB/s>"
