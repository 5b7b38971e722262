"""Merge island result fragments into the serial result types.

The merge is pure bookkeeping: every number was computed island-side
with the exact serial expressions, so this module only reassembles the
fragments — grafting the watched CPU's usage onto the client island's
report, unioning per-tier dicts, and summing cross-island counters.
"""

from __future__ import annotations

import dataclasses

__all__ = ["merge"]


def merge(config, payloads, shard_stats, sim_wall, result):
    """Assemble a serial-shaped ``result`` from island payloads.

    Payload keys are ``result`` field names, plus ``report_cpu``: a
    server island's measurement of the watched CPU, which replaces the
    client island's report's.  It is ``None`` exactly when serial
    ``report()`` would have skipped the computation (no started window),
    so the graft keeps the serial shape either way.  The client island's
    payload comes first; every other island's dicts are unioned into it
    and its counts summed.
    """
    fields = dict(payloads[0])
    for payload in payloads[1:]:
        for name, value in payload.items():
            if name == "report_cpu":
                if value is not None:
                    fields["report"] = dataclasses.replace(fields["report"], cpu=value)
            elif isinstance(value, dict):
                fields[name] = {**fields.get(name, {}), **value}
            else:
                fields[name] = fields.get(name, 0) + value
    return result(
        config=config,
        kernel_events=sum(s.events for s in shard_stats),
        sim_wall_s=sim_wall,
        shard_events=shard_stats,
        **fields,
    )
