"""Closed-loop workload clients (the JMeter model).

The paper: "JMeter uses one thread to simulate each end-user. We set the
think time between the consecutive requests sent from the same thread to
be zero, thus we can precisely control the concurrency of the workload to
the target server by specifying the number of threads."

:class:`ClosedLoopClient` is that thread: it keeps exactly one request in
flight on its connection, with a pluggable think time between completions
(zero for the micro-benchmarks, ~7 s for RUBBoS users).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConnectionClosedError, WorkloadError
from repro.metrics.collector import RunRecorder
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.sim.core import Environment
from repro.workload.mixes import RequestMix

__all__ = [
    "ThinkTime",
    "NoThink",
    "FixedThink",
    "ExponentialThink",
    "RetryPolicy",
    "ClientStats",
    "ClosedLoopClient",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resilience: per-request timeout plus bounded retries.

    Back-off between attempts is exponential
    (``backoff_base * backoff_factor ** (attempt - 1)``) with symmetric
    multiplicative ``jitter`` drawn from the client's own seeded RNG, so
    retry schedules are deterministic per seed yet de-synchronised across
    clients (no retry storms in lockstep).  A rejection response from a
    shedding server is retried within the same bound.
    """

    #: Seconds a client waits for a response before giving up on the attempt.
    timeout: float = 1.0
    #: Extra attempts after the first one (0 disables retrying).
    max_retries: int = 3
    #: Base back-off before the first retry, in seconds.
    backoff_base: float = 0.050
    #: Multiplier applied to the back-off per further attempt.
    backoff_factor: float = 2.0
    #: Symmetric jitter fraction applied to each back-off (0 disables).
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise WorkloadError(f"timeout must be > 0, got {self.timeout!r}")
        if self.max_retries < 0:
            raise WorkloadError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_base < 0:
            raise WorkloadError(f"backoff_base must be >= 0, got {self.backoff_base!r}")
        if self.backoff_factor < 1.0:
            raise WorkloadError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise WorkloadError(f"jitter must be in [0, 1), got {self.jitter!r}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Back-off before retry number ``attempt`` (1-based), jittered."""
        delay = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        if self.jitter > 0 and delay > 0:
            delay *= 1.0 + self.jitter * (rng.random() * 2.0 - 1.0)
        return delay


class ClientStats:
    """Per-client resilience counters (attempts, retries, failures...)."""

    __slots__ = (
        "attempts",
        "successes",
        "retries",
        "timeouts",
        "rejected",
        "failures",
        "aborts",
        "reconnects",
    )

    def __init__(self) -> None:
        self.attempts = 0
        self.successes = 0
        self.retries = 0
        self.timeouts = 0
        self.rejected = 0
        self.failures = 0
        self.aborts = 0
        self.reconnects = 0


class ThinkTime:
    """Distribution of the pause between a response and the next request."""

    def sample(self, rng: random.Random) -> float:
        """Draw the next think-time duration in seconds."""
        raise NotImplementedError


class NoThink(ThinkTime):
    """Zero think time: workload concurrency == number of clients."""

    def sample(self, rng: random.Random) -> float:
        """Always zero."""
        return 0.0


class FixedThink(ThinkTime):
    """Constant think time."""

    def __init__(self, seconds: float):
        if seconds < 0:
            raise WorkloadError(f"think time must be >= 0, got {seconds!r}")
        self.seconds = seconds

    def sample(self, rng: random.Random) -> float:
        """The fixed duration."""
        return self.seconds


class ExponentialThink(ThinkTime):
    """Exponentially distributed think time (memoryless user behaviour)."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise WorkloadError(f"mean think time must be > 0, got {mean!r}")
        self.mean = mean

    def sample(self, rng: random.Random) -> float:
        """An exponential draw with the configured mean."""
        return rng.expovariate(1.0 / self.mean)


class ClosedLoopClient:
    """One emulated user: request → wait for response → think → repeat.

    With neither ``retry`` nor ``faults`` set the client runs the exact
    historical loop (send, wait forever, record) — no timers, no extra
    events, bit-identical behaviour.  With a :class:`RetryPolicy` it
    becomes a resilient user: per-request timeout, bounded retries with
    jittered exponential back-off, reconnection through the ``reconnect``
    factory, and recognition of server rejection responses.  ``faults``
    (duck-typed like :class:`repro.faults.ClientFaults`) additionally
    injects user abandonment: the client gives up on a request early and
    closes the connection, exactly like an impatient browser user.
    """

    def __init__(
        self,
        env: Environment,
        connection: Connection,
        mix: RequestMix,
        rng: random.Random,
        recorder: Optional[RunRecorder] = None,
        think: Optional[ThinkTime] = None,
        initial_delay: float = 0.0,
        name: str = "",
        retry: Optional[RetryPolicy] = None,
        reconnect: Optional[Callable[[], Connection]] = None,
        faults=None,
        budget=None,
        deadline: Optional[float] = None,
        stop_after: Optional[int] = None,
    ):
        self.env = env
        self.connection = connection
        self.mix = mix
        self.rng = rng
        self.recorder = recorder
        self.think = think or NoThink()
        self.initial_delay = initial_delay
        self.name = name or f"client-{connection.id}"
        self.requests_completed = 0
        #: Stop after this many *logical* requests (``None`` → run until
        #: the simulation ends).  Cohort episodes use this to bound a
        #: materialized client's lifetime before it folds back.
        self.stop_after = stop_after
        if stop_after is not None and stop_after < 1:
            raise WorkloadError(f"stop_after must be >= 1, got {stop_after!r}")
        self._logical_done = 0
        self.retry = retry
        self.reconnect = reconnect
        self.faults = faults
        #: Shared :class:`repro.resilience.RetryBudget` (duck-typed): every
        #: initial attempt deposits, every retry must win a token first.
        self.budget = budget
        #: Per-logical-request deadline in seconds; stamped on requests as
        #: an absolute time and propagated by the tiers.
        self.deadline = deadline
        if deadline is not None and deadline <= 0:
            raise WorkloadError(f"deadline must be > 0, got {deadline!r}")
        self.stats = ClientStats()
        self.process = env.process(self._run(), name=self.name)

    def _run(self):
        if self.initial_delay > 0:
            # Stagger client start-up so closed-loop populations do not
            # fire in lockstep (JMeter's ramp-up).
            yield self.env.timeout(self.initial_delay)
        if (
            self.retry is None
            and self.faults is None
            and self.budget is None
            and self.deadline is None
        ):
            yield from self._run_simple()
        else:
            yield from self._run_resilient()

    def _run_simple(self):
        """The historical fast path: wait for every response, forever."""
        while not self.connection.closed:
            request = self.mix.sample(self.env, self.rng)
            self.connection.send_request(request)
            yield request.completed
            self.requests_completed += 1
            if self.recorder is not None:
                self.recorder.record(request)
            if self.stop_after is not None and self.requests_completed >= self.stop_after:
                return
            pause = self.think.sample(self.rng)
            if pause > 0:
                yield self.env.timeout(pause)

    # ------------------------------------------------------------------
    # Resilient path
    # ------------------------------------------------------------------
    def _run_resilient(self):
        """Timeout/retry/abort-aware request loop."""
        policy = self.retry or RetryPolicy()
        while True:
            if self.connection.closed and not self._swap_connection():
                return
            template = self.mix.sample(self.env, self.rng)
            keep_going = yield from self._one_logical_request(template, policy)
            if not keep_going:
                return
            self._logical_done += 1
            if self.stop_after is not None and self._logical_done >= self.stop_after:
                return
            pause = self.think.sample(self.rng)
            if pause > 0:
                yield self.env.timeout(pause)

    def _swap_connection(self) -> bool:
        """Replace a dead connection via the ``reconnect`` factory.

        Returns False when the client must stop: no factory, or the
        server refused the new connection (it came back closed).
        """
        if self.reconnect is None:
            return False
        self.connection = self.reconnect()
        self.stats.reconnects += 1
        return not self.connection.closed

    def _clone_request(self, template: Request) -> Request:
        """A fresh request identical in shape to ``template`` (per attempt).

        Retries inherit the template's *absolute* deadline: the logical
        request's time budget is shared across attempts, not reset.
        """
        return Request(
            self.env,
            kind=template.kind,
            response_size=template.response_size,
            request_size=template.request_size,
            deadline=template.deadline,
        )

    def _may_retry(self, deadline_at: Optional[float]) -> bool:
        """Budget/deadline gate consulted before every retry.

        A passed deadline refuses for free; otherwise the shared retry
        budget (when present) must grant a token.
        """
        if deadline_at is not None and self.env.now >= deadline_at:
            return False
        if self.budget is not None and not self.budget.try_spend():
            return False
        return True

    def _one_logical_request(self, template: Request, policy: RetryPolicy):
        """Drive one user-visible request through attempts and retries.

        Generator; returns True when the client should continue with its
        next request and False when it must stop (connection gone and not
        replaceable).
        """
        abort_after: Optional[float] = None
        if self.faults is not None and self.faults.should_abort():
            abort_after = self.faults.abort_delay
        deadline_at: Optional[float] = None
        if self.deadline is not None:
            deadline_at = self.env.now + self.deadline
            template.deadline = deadline_at
        if self.budget is not None:
            self.budget.on_request()
        attempt = 0
        request = template
        while True:
            attempt += 1
            self.stats.attempts += 1
            sent = True
            try:
                self.connection.send_request(request)
            except ConnectionClosedError:
                sent = False
            if sent:
                deadline = policy.timeout
                if abort_after is not None:
                    deadline = min(deadline, abort_after)
                if deadline_at is not None:
                    deadline = min(deadline, max(deadline_at - self.env.now, 0.0))
                timer = self.env.timeout(deadline)
                fired = yield self.env.any_of([request.completed, self.connection.on_close, timer])
                if request.completed.triggered:
                    if not request.metadata.get("rejected"):
                        # Success: the full response reached this client.
                        self.stats.successes += 1
                        self.requests_completed += 1
                        if self.recorder is not None:
                            self.recorder.record(request)
                        return True
                    # Server shed the request with a rejection response
                    # (already recorded as a rejection — not a failure,
                    # the server answered).
                    self.stats.rejected += 1
                    if self.recorder is not None:
                        self.recorder.record(request)
                    if attempt > policy.max_retries or not self._may_retry(deadline_at):
                        return True
                    self.stats.retries += 1
                    backoff = policy.backoff(attempt, self.rng)
                    if backoff > 0:
                        yield self.env.timeout(backoff)
                    request = self._clone_request(template)
                    continue
                elif timer in fired and abort_after is not None and deadline == abort_after:
                    # Injected user abandonment: close and walk away.
                    self.stats.aborts += 1
                    self.faults.record_abort()
                    self.connection.close()
                    return self._swap_connection()
                else:
                    # Timeout or mid-request connection loss: this
                    # connection is no longer trustworthy.
                    if timer in fired and not self.connection.closed:
                        self.stats.timeouts += 1
                    self.connection.close()
            if attempt > policy.max_retries or not self._may_retry(deadline_at):
                self.stats.failures += 1
                if self.recorder is not None:
                    self.recorder.record_failure(request)
                return self.connection.closed is False or self._swap_connection()
            self.stats.retries += 1
            backoff = policy.backoff(attempt, self.rng)
            if backoff > 0:
                yield self.env.timeout(backoff)
            if self.connection.closed and not self._swap_connection():
                self.stats.failures += 1
                if self.recorder is not None:
                    self.recorder.record_failure(request)
                return False
            request = self._clone_request(template)

    def __repr__(self) -> str:
        return f"<ClosedLoopClient {self.name!r} completed={self.requests_completed}>"
