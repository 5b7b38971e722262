"""Helpers shared by several test modules."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys

#: Result fields the digest leaves out.  ``config`` is the input, not a
#: result; ``kernel_events`` is the pin table's own column, because the
#: sharded kernel and the per-segment TCP path change it and nothing else.
_UNHASHED = ("config", "kernel_events")


def _default(spec: dataclasses.Field) -> object:
    if spec.default is not dataclasses.MISSING:
        return spec.default
    if spec.default_factory is not dataclasses.MISSING:
        return spec.default_factory()
    return dataclasses.MISSING


def result_digest(result) -> str:
    """Stable hash of a :class:`~repro.workload.harness.RunResult`.

    Hashes ``(name, value)`` for each compared field except ``config``
    and ``kernel_events``, in declaration order.  A field equal to its
    default is skipped, so a layer that did not run, or a field added
    later with an empty default, moves no digest.  Dicts enter as sorted
    items and dataclasses through ``asdict``.
    """
    payload = []
    for spec in dataclasses.fields(result):
        if not spec.compare or spec.name in _UNHASHED:
            continue
        value = getattr(result, spec.name)
        if value == _default(spec):
            continue
        if dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        elif isinstance(value, dict):
            value = sorted(value.items())
        payload.append((spec.name, value))
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def count_calls(root, action) -> int:
    """Python calls into the package ``root`` while ``action()`` runs.

    Counted with ``sys.setprofile``: every ``call`` event whose code lives
    under ``root``'s directory.  A property read and a generator resume
    are calls too; C functions are not.
    """
    prefix = os.path.dirname(root.__file__) + os.sep
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls
