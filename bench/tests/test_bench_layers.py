"""The layer map covers the package; attribution charges callers."""

import pytest

import run as bench
from layers import LAYER_OF, LAYERS, attribute, layer_of


def test_every_package_entry_has_exactly_one_layer():
    package = bench.SRC / "repro"
    entries = {
        p.name for p in package.iterdir()
        if (p.is_dir() and (p / "__init__.py").is_file()) or p.suffix == ".py"
    }
    assert entries == set(LAYER_OF)
    assert set(LAYER_OF.values()) == set(LAYERS)


def test_layer_of_uses_the_first_path_component():
    pkg = "/x/src/repro"
    assert layer_of(f"{pkg}/net/tcp.py", pkg) == "net"
    assert layer_of(f"{pkg}/calibration.py", pkg) == "calibration"
    assert layer_of(f"{pkg}/shard/runtime.py", pkg) == "sim"
    assert layer_of("/usr/lib/python3/heapq.py", pkg) is None
    assert layer_of("~", pkg) is None


def test_builtins_and_stdlib_are_charged_to_their_callers():
    pkg = "/x/src/repro"
    kernel = (f"{pkg}/sim/core.py", 10, "run")
    tcp = (f"{pkg}/net/tcp.py", 5, "_pump")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    stdlib = ("/usr/lib/python3/random.py", 1, "expovariate")
    nested = ("~", 0, "<method 'random' of '_random.Random' objects>")
    root = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    # func: (primitive calls, calls, self s, cumulative s, {caller: edge})
    stats = {
        kernel: (1, 1, 2.0, 5.0, {}),
        tcp: (4, 4, 1.0, 1.7, {kernel: (4, 4, 1.0, 1.7)}),
        heappush: (6, 6, 0.6, 0.6, {kernel: (4, 4, 0.4, 0.4), tcp: (2, 2, 0.2, 0.2)}),
        # Called once from each layer, with equal cumulative time, so its
        # own callee splits evenly between them.
        stdlib: (2, 2, 0.5, 0.9, {kernel: (1, 1, 0.25, 0.45), tcp: (1, 1, 0.25, 0.45)}),
        nested: (2, 2, 0.4, 0.4, {stdlib: (2, 2, 0.4, 0.4)}),
        root: (1, 1, 0.1, 0.1, {}),
    }
    self_time, calls = attribute(stats, pkg)
    assert self_time["sim"] == pytest.approx(2.0 + 0.4 + 0.25 + 0.2)
    assert self_time["net"] == pytest.approx(1.0 + 0.2 + 0.25 + 0.2)
    assert self_time[None] == pytest.approx(0.1)
    assert sum(self_time.values()) == pytest.approx(sum(v[2] for v in stats.values()))
    assert calls["sim"] == 1 and calls["net"] == 4 and calls["cache"] == 0
