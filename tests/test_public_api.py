"""Public API surface checks."""

import importlib
import pkgutil

import pytest

import repro


def test_version_is_set():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


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
