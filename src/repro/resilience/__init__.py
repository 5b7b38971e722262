"""Cross-tier resilience: deadlines, retry budgets, breakers, admission.

PR 2 stopped resilience at the single-server boundary (client
:class:`~repro.workload.client.RetryPolicy`, static
:class:`~repro.servers.base.ServerLimits`).  This package adds the four
mechanisms that keep a *multi-tier* chain off the metastable-failure
attractor the paper's collapse measurements hint at:

* **deadline propagation** — requests carry an absolute deadline; every
  tier refuses expired work with a cheap rejection instead of doomed full
  service (:mod:`repro.resilience.policy`, enforcement lives in
  :mod:`repro.servers.base` and :mod:`repro.ntier.applications`);
* **retry budgets** — a shared token bucket caps population-wide retry
  amplification (:class:`RetryBudget`);
* **circuit breakers** — per-upstream failure windows fast-fail calls to
  a sick tier (:class:`CircuitBreaker`, consulted by
  :func:`repro.ntier.applications.route`);
* **adaptive admission control** — an AIMD concurrency limiter discovers
  a server's sustainable ``max_inflight`` from observed latency
  (:class:`AdaptiveLimiter`, wired through
  :class:`~repro.servers.base.ServerLimits`);
* **hedged requests** — against a replicated tier, a backup attempt to a
  different replica after a streaming-quantile delay, first response
  wins, paid for out of the retry budget (:class:`HedgePolicy`, consumed
  by :class:`~repro.ntier.applications.ProxyApplication`).

Everything is deterministic (no RNG draws, no wall clock) and provably
zero-impact when disabled: with ``ResiliencePolicy`` absent no object in
this package is instantiated and no extra simulation events exist.
"""

from repro.resilience.admission import AdaptiveLimiter
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import RetryBudget
from repro.resilience.hedge import HedgePolicy
from repro.resilience.policy import (
    AdmissionConfig,
    BreakerConfig,
    HedgeConfig,
    ResiliencePolicy,
    RetryBudgetConfig,
)

__all__ = [
    "ResiliencePolicy",
    "RetryBudgetConfig",
    "BreakerConfig",
    "AdmissionConfig",
    "HedgeConfig",
    "HedgePolicy",
    "RetryBudget",
    "CircuitBreaker",
    "AdaptiveLimiter",
]
