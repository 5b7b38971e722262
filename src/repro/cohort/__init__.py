"""Cohort-level flow aggregation with lazy client materialization.

Large homogeneous closed-loop populations run as aggregate arrival and
drain processes (:class:`~repro.cohort.engine.Cohort`) instead of N live
client/connection objects; see :mod:`repro.cohort.engine` for the model
and :mod:`repro.cohort.config` for the materialization modes.
"""

from repro.cohort.config import CohortConfig
from repro.cohort.engine import Cohort, CohortStats

__all__ = [
    "CohortConfig",
    "Cohort",
    "CohortStats",
]
