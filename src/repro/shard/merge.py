"""Merge island result fragments into the serial result types.

The merge is pure bookkeeping: every number was computed island-side
with the exact serial expressions, so this module only reassembles the
fragments — grafting the watched CPU's usage onto the client island's
report, unioning per-tier dicts, and summing cross-island counters.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

__all__ = ["merge_micro", "merge_ntier"]


def _graft_cpu(report, usage):
    """Replace ``report.cpu`` with the server island's measurement.

    ``usage`` is ``None`` exactly when serial ``report()`` would have
    skipped the computation (no started window), so the graft preserves
    the serial shape either way.
    """
    if usage is None:
        return report
    return dataclasses.replace(report, cpu=usage)


def merge_micro(config, payloads, shard_stats, sim_wall):
    """Assemble a serial-shaped MicroResult from island payloads."""
    from repro.experiments.micro import MicroResult

    client, server = payloads
    return MicroResult(
        config=config,
        report=_graft_cpu(client["report"], server["report_cpu"]),
        server_stats=server["server_stats"],
        client_stats=client["client_stats"],
        faults=None,
        resilience={},
        cohort_stats=client["cohort_stats"],
        kernel_events=sum(s.events for s in shard_stats),
        sim_wall_s=sim_wall,
        shard_events=shard_stats,
    )


def merge_ntier(config, payloads, shard_stats, sim_wall):
    """Assemble a serial-shaped NTierResult from island payloads."""
    from repro.ntier.topology import NTierResult

    client = payloads[0]
    report = client["report"]
    utilization: Dict[str, float] = {}
    switch_rate: Dict[str, float] = {}
    server_stats: Dict[str, float] = {}
    cache_stats: Dict[str, float] = {}
    dag_stats: Dict[str, float] = {}
    tomcat_peak = 0
    for payload in payloads[1:]:
        utilization.update(payload.get("tier_utilization", {}))
        switch_rate.update(payload.get("tier_switch_rate", {}))
        server_stats.update(payload.get("server_stats", {}))
        cache_stats.update(payload.get("cache_stats", {}))
        dag_stats.update(payload.get("dag_stats", {}))
        tomcat_peak += payload.get("tomcat_peak", 0)
        if "report_cpu" in payload:
            report = _graft_cpu(report, payload["report_cpu"])
    return NTierResult(
        config=config,
        report=report,
        tier_utilization=utilization,
        tier_switch_rate=switch_rate,
        tomcat_peak_concurrency=tomcat_peak,
        kernel_events=sum(s.events for s in shard_stats),
        client_stats=client["client_stats"],
        server_stats=server_stats,
        resilience={},
        cache_stats=cache_stats,
        replica_stats={},
        cohort_stats=client["cohort_stats"],
        dag_stats=dag_stats,
        faults=None,
        goodput_timeline=client["timeline"],
        sim_wall_s=sim_wall,
        shard_events=shard_stats,
    )
