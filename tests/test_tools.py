"""The EXPERIMENTS.md assembler script."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def assembler(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "assemble_experiments", ROOT / "tools" / "assemble_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "GENERATED", tmp_path / "generated")
    monkeypatch.setattr(module, "OUTPUT", tmp_path / "EXPERIMENTS.md")
    return module


def test_fails_without_generated_dir(assembler):
    assert assembler.main() == 1


def test_assembles_sections_in_paper_order(assembler):
    assembler.GENERATED.mkdir()
    (assembler.GENERATED / "fig7.md").write_text("### fig7: latency\n")
    (assembler.GENERATED / "fig1.md").write_text("### fig1: rubbos\n")
    assert assembler.main() == 0
    text = assembler.OUTPUT.read_text()
    assert text.index("fig1: rubbos") < text.index("fig7: latency")
    assert text.startswith("# EXPERIMENTS")


def test_every_section_says_what_produced_it(assembler):
    """A section keeps the provenance line the benchmark harness writes
    under its heading; one without that line is marked as not recorded."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    bench_conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_conftest)
    recorded = bench_conftest._provenance(0.5)
    assert "`REPRO_BENCH_SCALE=0.5`, commit `" in recorded
    assembler.GENERATED.mkdir()
    (assembler.GENERATED / "fig1.md").write_text(f"### fig1: rubbos\n\n{recorded}\n\nrows\n")
    (assembler.GENERATED / "fig7.md").write_text("### fig7: latency\n\nrows\n")
    assert assembler.main() == 0
    text = assembler.OUTPUT.read_text()
    assert f"### fig1: rubbos\n\n{recorded}\n\nrows\n" in text
    assert f"### fig7: latency\n\n{assembler.UNRECORDED}\n\nrows\n" in text
    assert "REPRO_BENCH_SCALE=" not in assembler.PREAMBLE


def test_warns_on_missing_sections(assembler, capsys):
    assembler.GENERATED.mkdir()
    (assembler.GENERATED / "fig1.md").write_text("### fig1\n")
    assert assembler.main() == 0
    assert "missing sections" in capsys.readouterr().err


def test_keeps_the_speed_records(assembler):
    """The speed records are in no generated section: the assembler must
    append them, and EXPERIMENTS.md must hold them as assembled."""
    assembler.GENERATED.mkdir()
    (assembler.GENERATED / "shard.md").write_text("### shard: islands\n")
    assert assembler.main() == 0
    text = assembler.OUTPUT.read_text(encoding="utf-8")
    committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    records = committed[committed.index("### Simulator speed records"):]
    assert text.endswith(
        f"### shard: islands\n\n{assembler.UNRECORDED}\n\n---\n\n" + records
    )


def test_reassembles_experiments_md_byte_for_byte(assembler):
    """With nothing regenerated, assembling EXPERIMENTS.md reproduces it:
    the committed file is exactly what the assembler writes."""
    committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assembler.OUTPUT.write_text(committed, encoding="utf-8")
    assembler.GENERATED.mkdir()
    assert assembler.main() == 0
    assert assembler.OUTPUT.read_text(encoding="utf-8") == committed


def test_keeps_sections_it_did_not_regenerate(assembler, capsys):
    """A partial benchmark run replaces only what it regenerated: every
    other artifact keeps its current EXPERIMENTS.md section."""
    assembler.OUTPUT.write_text(
        assembler.PREAMBLE
        + "### fig1: rubbos\n\nold fig1 rows\n\n"
        + "### fig7: latency\n\nold fig7 rows\n\n---\n\n"
        + "### Simulator speed records\n\nold records\n",
        encoding="utf-8",
    )
    assembler.GENERATED.mkdir()
    (assembler.GENERATED / "fig7.md").write_text("### fig7: latency\n\nnew fig7 rows\n")
    assert assembler.main() == 0
    text = assembler.OUTPUT.read_text(encoding="utf-8")
    unrecorded = assembler.UNRECORDED
    assert (
        f"### fig1: rubbos\n\n{unrecorded}\n\nold fig1 rows\n\n"
        f"### fig7: latency\n\n{unrecorded}\n\nnew fig7 rows\n"
    ) in text
    assert "old fig7 rows" not in text
    assert "old records" not in text
    assert "kept the current EXPERIMENTS.md sections for fig1" in capsys.readouterr().err


def test_sample_profile_quick_run():
    """The sampler attributes a quick bench run: layer shares sum to 1,
    every layer is a ``LAYER_OF`` value, and the previous ``SIGPROF``
    handler and timer are back afterwards."""
    import signal

    spec = importlib.util.spec_from_file_location(
        "sample_profile", ROOT / "tools" / "sample_profile.py"
    )
    sampler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sampler)
    layers = sampler._load("_bench_layers", ROOT / "bench" / "layers.py")

    def previous_handler(_signum, _frame):
        pass

    original = signal.signal(signal.SIGPROF, previous_handler)
    try:
        profile = sampler.sample("hybrid-mix", [1, 2], quick=True)
        assert signal.getsignal(signal.SIGPROF) is previous_handler
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGPROF, original)
    assert profile.samples > profile.outside
    self_share, cum_share = profile.layer_shares()
    assert sum(self_share.values()) == pytest.approx(1.0)
    assert set(self_share) <= set(cum_share) <= set(layers.LAYER_OF.values())
    assert max(cum_share.values()) == pytest.approx(1.0)
    assert sum(profile.shares(profile.self_func).values()) == pytest.approx(1.0)
    assert sampler.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert "layer" in sampler.report(profile, top=5)
