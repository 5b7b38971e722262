"""Service-dependency DAG workloads: declarative microservice graphs.

Replaces the linear Apache → Tomcat → MySQL chain with an arbitrary
acyclic service graph: each :class:`ServiceNode` is one server + CPU
slice, each :class:`Edge` a pooled sync or async downstream call
carrying the per-edge resilience stack (deadline propagation, named
breakers), and each node's async branches join under a declared fan-in
policy — ``wait_all``, ``quorum(k)`` or ``best_effort(timeout)`` — with
exact degraded-response accounting.

A run without a :class:`DagConfig` builds the classic linear chain.
"""

from repro.dag.config import DagConfig, Edge, FAN_IN_POLICIES, ServiceNode
from repro.dag.runtime import (
    DagServiceApplication,
    EdgeRuntime,
    fanin_outcome,
    settle_branches,
)

__all__ = [
    "DagConfig",
    "Edge",
    "FAN_IN_POLICIES",
    "ServiceNode",
    "DagServiceApplication",
    "EdgeRuntime",
    "fanin_outcome",
    "settle_branches",
]
