"""CLI plumbing (argument parsing and cheap commands)."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS


def test_list_shows_every_artifact(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for artifact in EXPERIMENTS:
        assert artifact in out


def test_calibration_prints_constants(capsys):
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "tcp_send_buffer_bytes" in out


def test_unknown_artifact_is_an_error(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown artifact" in capsys.readouterr().err


def test_invalid_scale_is_an_error(capsys):
    assert main(["run", "tab4", "--scale", "7"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_run_defaults():
    args = build_parser().parse_args(["run", "fig7"])
    assert args.artifact == "fig7"
    assert args.scale == 1.0


def test_parser_all_markdown_flag():
    args = build_parser().parse_args(["all", "--scale", "0.2", "--markdown", "out.md"])
    assert args.markdown == "out.md"
    assert args.scale == 0.2


def test_parser_accepts_jobs():
    assert build_parser().parse_args(["run", "fig7", "--jobs", "4"]).jobs == "4"
    assert build_parser().parse_args(["all", "--jobs", "auto"]).jobs == "auto"
    assert build_parser().parse_args(["run", "fig7"]).jobs is None


def test_invalid_jobs_is_an_error(capsys):
    assert main(["run", "tab4", "--jobs", "many"]) == 2
    assert "jobs" in capsys.readouterr().err


@pytest.mark.parametrize("shards", ["0", "-3"])
def test_invalid_shards_is_an_error_before_simulating(shards, monkeypatch, capsys):
    def no_run(artifact):
        raise AssertionError("an artifact ran despite a malformed --shards")

    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.setattr("repro.cli.get_experiment", no_run)
    assert main(["run", "tab1", "--shards", shards]) == 2
    assert "shards" in capsys.readouterr().err


def test_sweep_cache_status_and_clear(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    (tmp_path / "fig7").mkdir(parents=True)
    (tmp_path / "fig7" / "micro-abc.pkl").write_bytes(b"x")
    assert main(["sweep-cache"]) == 0
    assert "cached points:   1" in capsys.readouterr().out
    assert main(["sweep-cache", "--clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert not tmp_path.exists()


def test_sweep_cache_clear_keeps_foreign_files(tmp_path, monkeypatch, capsys):
    """``--clear`` deletes the memo's points and interrupted writes only:
    ``REPRO_CACHE_DIR`` may name a directory that holds other files."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    (tmp_path / "notes.txt").write_text("keep")
    (tmp_path / "fig7").mkdir()
    (tmp_path / "fig7" / "micro-abc.pkl").write_bytes(b"x")
    (tmp_path / "fig7" / "micro-abd.tmp.4242").write_bytes(b"x")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "plan.md").write_text("keep")
    assert main(["sweep-cache", "--clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "docs", "docs/plan.md", "notes.txt",
    ]


def test_sweep_cache_disabled_message(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert main(["sweep-cache"]) == 0
    assert "disabled" in capsys.readouterr().out
