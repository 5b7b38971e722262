"""Per-upstream circuit breaker (closed → open → half-open).

Callers consult :meth:`CircuitBreaker.allow` *before* touching the
downstream connection pool and report every call outcome back via
:meth:`record_success` / :meth:`record_failure`, or hand an admission
that was never judged back via :meth:`release`.  While open, the caller
fast-fails — a tiny rejection instead of pinning a worker thread on a
sick tier.  All transitions are driven by simulation time and a bounded
deque of outcomes: no RNG, no timers, no extra events.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.resilience.policy import BreakerConfig
from repro.sim.core import Environment

__all__ = ["CircuitBreaker"]

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Rolling failure-window breaker for one upstream→downstream edge."""

    def __init__(self, env: Environment, config: BreakerConfig, name: str = "breaker"):
        self.env = env
        self.config = config
        self.name = name
        self._state = CLOSED
        self._opened_at = 0.0
        self._window: Deque[int] = deque(maxlen=config.window)
        self._probes_inflight = 0
        self._probe_successes = 0
        #: Calls fast-failed while the breaker was open.
        self.fast_failures = 0
        #: closed/half-open → open transitions.
        self.opens = 0
        #: half-open → closed transitions.
        self.closes = 0

    @property
    def state(self) -> str:
        """Current state, accounting for open-window expiry."""
        if self._state == OPEN and (
            self.env.now >= self._opened_at + self.config.open_duration
        ):
            return HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the caller issue a downstream call right now?

        Open: no (counted as a fast failure).  Half-open: only up to
        ``half_open_probes`` concurrent probe calls.  Closed: yes.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == OPEN:
            self.fast_failures += 1
            return False
        # Half-open: admit a bounded number of probes.
        if self._state == OPEN:
            # First allow() after the open window expired: enter half-open.
            self._state = HALF_OPEN
            self._probes_inflight = 0
            self._probe_successes = 0
        if self._probes_inflight >= self.config.half_open_probes:
            self.fast_failures += 1
            return False
        self._probes_inflight += 1
        return True

    def record_success(self) -> None:
        """A downstream call completed in time."""
        if self._state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self._state = CLOSED
                self._window.clear()
                self.closes += 1
            return
        if self._state == CLOSED:
            self._window.append(0)

    def release(self) -> None:
        """Give back an admission whose call was never judged.

        A cancelled attempt (a hedge loser, a fan-in cut) or an admitted
        call that never went out reports neither success nor failure.  In
        half-open it would otherwise hold its probe slot for good; here
        it frees one (never below zero).  In any other state admissions
        hold nothing, so this does nothing.
        """
        if self._state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)

    def record_failure(self) -> None:
        """A downstream call failed, expired, or timed out."""
        if self._state == HALF_OPEN:
            # A failed probe re-opens immediately.
            self._trip()
            return
        if self._state == OPEN:
            return
        self._window.append(1)
        if (
            len(self._window) >= self.config.min_samples
            and sum(self._window) / len(self._window) >= self.config.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self.env.now
        self._probes_inflight = 0
        self._probe_successes = 0
        self._window.clear()
        self.opens += 1

    def reset(self) -> None:
        """Return to the cold (CLOSED) state, as after a process restart.

        Clears the outcome window and any half-open probe bookkeeping but
        keeps the cumulative counters: a crash–restart wipes the breaker's
        *memory*, not the run's accounting of what it did before dying.
        """
        self._state = CLOSED
        self._opened_at = 0.0
        self._window.clear()
        self._probes_inflight = 0
        self._probe_successes = 0

    def counters(self) -> Dict[str, float]:
        """Snapshot of the breaker counters for result reports."""
        return {
            f"{self.name}_opens": float(self.opens),
            f"{self.name}_closes": float(self.closes),
            f"{self.name}_fast_failures": float(self.fast_failures),
        }

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.name!r} state={self.state} "
            f"opens={self.opens} fast_failures={self.fast_failures}>"
        )
