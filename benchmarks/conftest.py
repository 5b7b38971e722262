"""Benchmark harness support.

Every benchmark regenerates one of the paper's tables/figures via the
experiment registry, prints the regenerated rows next to the paper's
claim, and asserts the shape checks.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SCALE`` (e.g. ``0.3``) to shrink measurement windows
for a quick pass; sweeps keep their full point sets either way.  Set
``REPRO_JOBS`` (an integer or ``auto``) to fan sweep points out over
worker processes — results are bit-identical to a serial run.
"""

from __future__ import annotations

import pathlib
import subprocess

import pytest

from repro.experiments.registry import bench_jobs, bench_scale, run_experiment
from repro.experiments.report import render_artifact, render_markdown

#: Per-artifact markdown sections are dropped here; the repository's
#: EXPERIMENTS.md is assembled from them (see tools/assemble_experiments.py).
GENERATED_DIR = pathlib.Path(__file__).parent / "generated"


def _provenance(scale: float) -> str:
    """The line under a generated section's heading that says what
    produced it: the measurement scale and the commit checked out.
    tools/assemble_experiments.py keeps it with the section and knows it
    by its ``*Provenance`` prefix."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=GENERATED_DIR.parent, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = ""
    return f"*Provenance: `REPRO_BENCH_SCALE={scale}`, commit `{commit or 'unknown'}`.*"


@pytest.fixture
def regenerate(benchmark, capsys):
    """Run one artifact under pytest-benchmark and report it."""

    def _run(artifact: str):
        scale = bench_scale()
        jobs = bench_jobs()
        result = benchmark.pedantic(
            run_experiment,
            args=(artifact, scale),
            kwargs={"jobs": jobs},
            rounds=1,
            iterations=1,
        )
        with capsys.disabled():
            print()
            print(render_artifact(result))
        heading, _, body = render_markdown(result).partition("\n")
        GENERATED_DIR.mkdir(exist_ok=True)
        (GENERATED_DIR / f"{artifact}.md").write_text(
            f"{heading}\n\n{_provenance(scale)}\n{body}", encoding="utf-8"
        )
        failed = [check.name for check in result.failed_checks]
        assert not failed, f"shape checks failed: {failed}"
        return result

    return _run
