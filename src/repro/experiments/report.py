"""ASCII rendering of artifact results (for benchmark output and
EXPERIMENTS.md generation)."""

from __future__ import annotations

from typing import Iterable, List

from repro.experiments.results import ArtifactResult

__all__ = [
    "render_table",
    "render_artifact",
    "render_markdown",
    "render_sweep_summary",
]


def _cell(value: object) -> str:
    if value is None:  # not-applicable cell (e.g. coalesced w/o flight)
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


def render_table(headers: List[str], rows: Iterable[Iterable[object]]) -> str:
    """Monospace table with column alignment."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render_counters(result: ArtifactResult) -> str:
    """``name=value`` pairs of the aggregate robustness counters."""
    return ", ".join(
        f"{name}={_cell(value)}" for name, value in result.counters.items()
    )


def render_artifact(result: ArtifactResult) -> str:
    """Full ASCII report of one regenerated artifact."""
    lines = [
        "=" * 72,
        f"{result.artifact.upper()} — {result.title}",
        f"paper: {result.paper_claim}",
        "=" * 72,
    ]
    if result.rows:
        lines.append(render_table(result.headers, result.rows))
    if result.counters:
        lines.append("counters: " + _render_counters(result))
    for note in result.notes:
        lines.append(f"note: {note}")
    for check in result.checks:
        lines.append(str(check))
    return "\n".join(lines)


def render_sweep_summary(elapsed_s: float, totals: object, scale: float = 1.0) -> str:
    """One-line per-artifact execution summary for the CLI.

    ``totals`` is the :class:`~repro.experiments.parallel.SweepStats`
    drained after the artifact ran: wall time always, plus the kernel
    event count and simulation rate when any point was actually simulated
    (a fully cached regeneration has no meaningful rate to report), and
    the sweeps that fell back from the process pool to serial runs.
    """
    text = f"(regenerated in {elapsed_s:.1f}s at scale {scale:g}"
    points = getattr(totals, "points", 0)
    cache_hits = getattr(totals, "cache_hits", 0)
    events = getattr(totals, "kernel_events", 0)
    rate = getattr(totals, "events_per_sec", 0.0)
    shard_points = getattr(totals, "shard_points", 0)
    shard_stall = getattr(totals, "shard_stall_s", 0.0)
    if events and rate:
        text += f"; {events:,} kernel events at {rate:,.0f} events/s"
    if shard_points:
        text += (
            f"; {shard_points} point(s) sharded"
            f" ({shard_stall:.1f}s barrier stall)"
        )
    if points and cache_hits:
        text += f"; {cache_hits}/{points} point(s) cached"
    fallbacks = getattr(totals, "serial_fallbacks", 0)
    if fallbacks:
        text += f"; {fallbacks} sweep(s) fell back to serial"
    return text + ")"


def render_markdown(result: ArtifactResult) -> str:
    """Markdown section for EXPERIMENTS.md."""
    lines = [f"### {result.artifact}: {result.title}", ""]
    lines.append(f"**Paper:** {result.paper_claim}")
    lines.append("")
    if result.rows:
        lines.append("| " + " | ".join(result.headers) + " |")
        lines.append("|" + "|".join("---" for _ in result.headers) + "|")
        for row in result.rows:
            lines.append("| " + " | ".join(_cell(c) for c in row) + " |")
        lines.append("")
    if result.counters:
        lines.append(f"*Counters:* {_render_counters(result)}")
        lines.append("")
    if result.notes:
        for note in result.notes:
            lines.append(f"- *{note}*")
        lines.append("")
    lines.append("**Shape checks:**")
    lines.append("")
    for check in result.checks:
        mark = "x" if check.passed else " "
        detail = f" — {check.detail}" if check.detail else ""
        lines.append(f"- [{mark}] {check.name}{detail}")
    lines.append("")
    return "\n".join(lines)
