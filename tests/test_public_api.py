"""Public API surface checks."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def test_version_is_set():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_import_loads_only_what_a_run_uses():
    """A fresh ``import repro, repro.experiments.micro`` (what a run
    imports) leaves the sweep executor, the artifact registry and the
    process-pool modules unloaded: re-exported names resolve on first
    access."""
    unwanted = (
        "repro.experiments.registry",
        "repro.experiments.parallel",
        "multiprocessing",
        "concurrent.futures",
    )
    code = (
        "import sys, repro, repro.experiments.micro\n"
        f"print([name for name in {unwanted!r} if name in sys.modules])\n"
    )
    src = Path(repro.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_subpackage_all_exports_resolve():
    subpackages = [
        info.name
        for info in pkgutil.iter_modules(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    assert subpackages
    for module_name in subpackages:
        module = importlib.import_module(module_name)
        assert module.__all__, module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"


def test_paper_server_names_all_runnable():
    """The six paper architectures plus the full Tomcat pair and the two
    extensions are all constructible through the registry."""
    from repro.experiments.micro import SERVER_FACTORIES

    expected = {
        "sTomcat-Sync", "sTomcat-Async", "sTomcat-Async-Fix", "SingleT-Async",
        "NettyServer", "HybridNetty", "TomcatSync", "TomcatAsync",
        "Staged-SEDA", "N-copy",
    }
    assert expected == set(SERVER_FACTORIES)


def test_architecture_labels_are_unique():
    from repro.experiments.micro import MicroConfig, SERVER_FACTORIES, make_server
    from repro.calibration import default_calibration
    from repro.cpu.scheduler import CPU
    from repro.sim.core import Environment

    labels = set()
    for name in SERVER_FACTORIES:
        env = Environment()
        cpu = CPU(env, default_calibration())
        server = make_server(name, env, cpu, MicroConfig(server=name, concurrency=4))
        labels.add(server.architecture)
    assert len(labels) == len(SERVER_FACTORIES)
