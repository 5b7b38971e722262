"""The rows of the pin table that run directly instead of through the
sweep executor.

The rows, their pins and the command that regenerates them live with the
other rows in :mod:`tests.test_kernel_determinism_golden`; these tests
check them the same way (digest and ``completed`` under the current run
inputs, ``kernel_events`` with ``REPRO_SHARDS`` and ``REPRO_TCP_FASTPATH``
cleared), one serial run each.

The three work shapes are the write-spin micro run (SingleT-Async, 50
users, 100 KB responses), a 200k-member lazy cohort that is mostly idle
and a 3-leaf ``wait_all`` DAG compose.  The fixed-think cohort is built
directly with ``build_population``: no runner sends ``FixedThink``, so
no other row pins the sampled-heap engine's work for it.
"""

from __future__ import annotations

import pytest

from tests.test_kernel_determinism_golden import check_pins

pytestmark = pytest.mark.tcpfast

#: The pin table row of each work shape.
_ROWS = {"micro": "write-spin", "cohort": "cohort-200k", "dag": "dag-wait-all"}


@pytest.mark.parametrize("shape", [
    "micro",
    pytest.param("cohort", marks=pytest.mark.cohort),
    pytest.param("dag", marks=pytest.mark.dag),
])
def test_work_is_pinned(shape):
    check_pins([_ROWS[shape]], {})


@pytest.mark.cohort
def test_fixed_think_cohort_work_is_pinned():
    check_pins(["cohort-fixed-think"], {})
