"""Replicated tiers: replica groups, load balancing, failover routing.

The paper's testbed is one Apache, one Tomcat, one MySQL; this package
lets the Tomcat tier run ``N`` instances behind Apache so the repo can
study what production systems actually buy with replication — surviving
*process death*.  Two pieces:

* :class:`ReplicaConfig` — frozen knobs (replica count, balancing
  policy, passive-ejection thresholds, active-probe period);
* :class:`Replica` / :class:`LoadBalancer` / :class:`ReplicaGroup` —
  per-instance failover state, round-robin / least-outstanding routing
  with Envoy-style outlier ejection and backoff re-probing, and the
  optional active health prober.

Apache's :class:`~repro.ntier.applications.ProxyApplication` routes over
the group, with optional budget-bounded hedging
(:class:`~repro.resilience.hedge.HedgePolicy`), through the same
:func:`~repro.ntier.applications.route` and
:func:`~repro.ntier.applications.call_downstream` every inter-tier call
uses.

No ``ReplicaConfig`` and ``replicas=1`` are both bit-identical to the
classic single-instance topology: the replicated build path simply never
executes.
"""

from repro.replica.config import ReplicaConfig
from repro.replica.group import LoadBalancer, Replica, ReplicaGroup

__all__ = [
    "ReplicaConfig",
    "Replica",
    "LoadBalancer",
    "ReplicaGroup",
]
