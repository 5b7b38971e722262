"""A run is a pure function of its config and ``run_inputs()``.

The sweep memo keys on :func:`repro.sim.inputs.run_inputs`, so an
environment variable read anywhere else that changed a result would let
the memo serve a result computed under one setting to a run under
another.  This walks every module of the package and fails on any read
of ``os.environ`` outside ``run_inputs()``, except of the variables that
change no result.
"""

import ast
from pathlib import Path

import repro

#: Variables that change no result: the worker count, the memo switch and
#: directory, and the artifacts' measurement scale (which the memo keys on
#: as a sweep coordinate).
HARMLESS = {"REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_BENCH_SCALE"}

_WRITE = object()


def _os_attr(node, names) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _read_key(node, parents):
    """The key node an ``os.environ``/``os.getenv`` use reads, ``_WRITE``
    for an assignment or deletion, ``None`` when it cannot tell."""
    parent = parents.get(node)
    if node.attr == "getenv":
        if isinstance(parent, ast.Call) and parent.func is node and parent.args:
            return parent.args[0]
        return None
    if isinstance(parent, ast.Subscript) and parent.value is node:
        if isinstance(parent.ctx, (ast.Store, ast.Del)):
            return _WRITE
        return parent.slice
    grandparent = parents.get(parent)
    if (
        isinstance(parent, ast.Attribute)
        and parent.attr == "get"
        and isinstance(grandparent, ast.Call)
        and grandparent.func is parent
        and grandparent.args
    ):
        return grandparent.args[0]
    return None


def _function_of(node, parents):
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name
    return None


def _environment_reads():
    """``(where, variable or None, inside run_inputs)`` per read."""
    root = Path(repro.__file__).resolve().parent
    reads = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        parents = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                if {alias.name for alias in node.names} & {"environ", "getenv"}:
                    reads.append((where, None, False))
                continue
            if not _os_attr(node, ("environ", "getenv")):
                continue
            key = _read_key(node, parents)
            if key is _WRITE:
                continue
            if isinstance(key, ast.Constant):
                key = key.value
            elif isinstance(key, ast.Name):
                key = constants.get(key.id)
            else:
                key = None
            reads.append((where, key, _function_of(node, parents) == "run_inputs"))
    return reads


def test_only_run_inputs_reads_result_changing_environment():
    reads = _environment_reads()
    inside = sorted(key for _, key, in_run_inputs in reads if in_run_inputs)
    assert inside == ["REPRO_SHARDS", "REPRO_TCP_FASTPATH"]
    stray = [
        (where, key) for where, key, in_run_inputs in reads
        if not in_run_inputs and key not in HARMLESS
    ]
    assert stray == []
