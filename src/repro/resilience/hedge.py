"""Budget-bounded request hedging (The Tail at Scale, CACM 2013).

A :class:`HedgePolicy` is the runtime companion of the frozen
:class:`~repro.resilience.policy.HedgeConfig`: it tracks observed
response latencies in a streaming :class:`~repro.metrics.stats.P2Quantile`
and answers two questions for Apache's proxy over a replica group —

* *when* to issue the backup (``delay()``: the configured latency
  quantile, floored at ``min_delay``, with a fixed ``initial_delay``
  until enough samples exist); and
* *whether* one may be issued at all (``try_hedge()``: a token must be
  available in the shared retry budget, so a sick tier cannot turn
  hedging into a 2x load amplifier — exactly the bound retries live
  under).

Everything here is deterministic: no RNG, no wall clock, state advanced
only by observed completions.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.stats import P2Quantile
from repro.resilience.budget import RetryBudget
from repro.resilience.policy import HedgeConfig

__all__ = ["HedgePolicy"]


class HedgePolicy:
    """Decides when and whether to issue one backup request."""

    def __init__(self, config: HedgeConfig, budget: Optional[RetryBudget] = None):
        self.config = config
        #: Shared retry-budget bucket hedges draw from (``None`` → every
        #: hedge is granted, bounded only by the one-backup-per-request cap).
        self.budget = budget
        self._quantile = P2Quantile(config.quantile)
        #: Backup attempts actually launched.
        self.hedges_issued = 0
        #: Hedged requests where the *backup* response arrived first.
        self.hedges_won = 0
        #: Backup attempts cancelled because the primary won.
        self.hedges_cancelled = 0
        #: Hedge opportunities denied by the retry budget.
        self.hedges_denied = 0

    # ------------------------------------------------------------------
    def observe(self, latency: float) -> None:
        """Feed one completed-attempt latency into the delay estimator."""
        self._quantile.add(latency)

    def delay(self) -> float:
        """Seconds the primary may run before the backup is issued."""
        cfg = self.config
        if self._quantile.count < cfg.min_samples:
            return max(cfg.initial_delay, cfg.min_delay)
        return max(self._quantile.value(), cfg.min_delay)

    def try_hedge(self) -> bool:
        """Withdraw a budget token for one backup; False when denied."""
        if self.budget is not None and not self.budget.try_spend():
            self.hedges_denied += 1
            return False
        self.hedges_issued += 1
        return True

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Snapshot of the hedge counters for result reports."""
        return {
            "hedges_issued": float(self.hedges_issued),
            "hedges_won": float(self.hedges_won),
            "hedges_cancelled": float(self.hedges_cancelled),
            "hedges_denied": float(self.hedges_denied),
        }

    def __repr__(self) -> str:
        return (
            f"<HedgePolicy issued={self.hedges_issued} won={self.hedges_won} "
            f"denied={self.hedges_denied}>"
        )
