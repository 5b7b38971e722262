"""Replica groups: per-instance state, routing, and outlier ejection.

A :class:`Replica` bundles everything that belongs to *one* instance of a
replicated tier — its server, its CPU, the upstream connection pool that
reaches it, its own downstream pool, and its private cache — and gives
the fault injector a crash target: :meth:`Replica.crash` kills the
instance (connections reset, new connects refused) and
:meth:`Replica.restart` brings it back **cold** (empty caches, reset
breakers); the CPU warm-up penalty is charged by the injector itself.

The :class:`LoadBalancer` routes requests across replicas with either
round-robin or least-outstanding selection and implements passive
outlier ejection in the style of Envoy: ``ejection_threshold``
consecutive failures take a replica out of rotation for
``ejection_duration`` seconds, after which it re-enters *probation* —
the next failure re-ejects it immediately with the sit-out multiplied by
``ejection_backoff`` (capped), while any success restores full health.
When every replica is ejected the balancer panics and routes over all of
them anyway (a dead pick beats no pick; the alternative is a self-
inflicted full blackout).

:class:`ReplicaGroup` owns the replica list, the balancer, and the
optional active health prober: a deterministic periodic process that
detects a crashed instance without spending a live request on it, and
restores an ejected instance as soon as it answers probes again.

Everything here is deterministic — no RNG, no wall clock; rotation state
and ejection clocks advance only with simulated time and call order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.replica.config import ReplicaConfig
from repro.sim.core import Environment

__all__ = ["Replica", "LoadBalancer", "ReplicaGroup"]


class Replica:
    """One instance of a replicated tier, with its failover state."""

    def __init__(self, index: int, server, cpu, pool, db_pool=None, cache=None):
        #: Position in the group (stable; used for deterministic ties).
        self.index = index
        #: The instance's server (must expose ``down``/``connections``).
        self.server = server
        #: The instance's CPU — the fault injector seizes it for the
        #: post-restart warm-up penalty.
        self.cpu = cpu
        #: Upstream connection pool reaching this instance.
        self.pool = pool
        #: The instance's own downstream pool (its connections die with it).
        self.db_pool = db_pool
        #: The instance's private cache tier (cold after a restart).
        self.cache = cache
        #: The balancer routing to this replica (set when one adopts it);
        #: routed calls report their outcome to it.
        self.balancer: Optional["LoadBalancer"] = None
        #: Requests currently routed to this replica and not yet resolved.
        self.outstanding = 0
        #: Consecutive failed attempts, cleared by any success.
        self.consecutive_failures = 0
        #: Sim time until which this replica is out of rotation
        #: (``None`` → healthy; a *past* time → probation).
        self.ejected_until: Optional[float] = None
        #: Next sit-out duration (backed off; ``None`` → the base value).
        self.sitout: Optional[float] = None
        #: Crash windows executed against this replica.
        self.crashes = 0
        #: EWMA of success latencies (``None`` until the first sample;
        #: only maintained when latency-aware ejection is configured).
        self.latency_ewma: Optional[float] = None
        #: Success-latency samples folded into the EWMA so far.
        self.latency_samples = 0
        #: Whether the current ejection was latency-based — a *success*
        #: must not restore such a replica early (its requests succeed,
        #: that is the whole problem).
        self.latency_ejected = False

    # ------------------------------------------------------------------
    # Crash-target protocol (consumed by repro.faults.injector)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the instance: in-flight work fails, connections reset.

        Every connection attached to the server (the upstream pool's
        members) and every member of its own downstream pool is closed —
        both sides observe the reset, handlers abort, and the pools evict
        the corpses on their next release.  While ``down``, fresh connect
        attempts are refused at :meth:`repro.servers.base.BaseServer.attach`.
        """
        self.crashes += 1
        self.server.down = True
        for connection in list(self.server.connections):
            if not connection.closed:
                connection.close()
        if self.db_pool is not None:
            for connection in list(self.db_pool.connections):
                if not connection.closed:
                    connection.close()

    def restart(self) -> None:
        """Bring the instance back **cold**: empty cache, reset breakers.

        The restarted process has no memory: its cache starts empty (the
        PR 6 stampede trigger) and its own outbound circuit breaker is
        back in the initial CLOSED state.  Upstream state — the balancer's
        ejection clock, Apache's breaker toward this replica — belongs to
        *other* processes and survives, which is exactly why re-probing
        exists.
        """
        self.server.down = False
        if self.cache is not None:
            self.cache.clear()
        if self.db_pool is not None and self.db_pool.breaker is not None:
            self.db_pool.breaker.reset()
        # Reconnection storm: the pools facing the revived instance (and
        # its own outbound pool) eagerly replace their dead idle members,
        # as real proxy/JDBC pools do, instead of drip-feeding one fresh
        # connection per failed borrow.
        self.pool.evict_closed_idle()
        if self.db_pool is not None:
            self.db_pool.evict_closed_idle()

    def __repr__(self) -> str:
        return (
            f"<Replica {self.index} outstanding={self.outstanding} "
            f"failures={self.consecutive_failures} "
            f"ejected_until={self.ejected_until}>"
        )


class LoadBalancer:
    """Failure-aware replica selection with passive outlier ejection."""

    def __init__(self, env: Environment, config: ReplicaConfig,
                 replicas: List[Replica]):
        if not replicas:
            raise SimulationError("load balancer needs at least one replica")
        self.env = env
        self.config = config.validate()
        self.replicas = replicas
        for replica in replicas:
            replica.balancer = self
        self._rr = 0
        #: Successful pick decisions handed out.
        self.picks = 0
        #: Picks made in panic mode (every replica was ejected).
        self.panic_picks = 0
        #: Ejection events (re-ejections after a failed probation count).
        self.ejections = 0
        #: Latency-based ejections (gray failures caught by the EWMA
        #: comparison; disjoint from failure-based ``ejections``).
        self.latency_ejections = 0

    # ------------------------------------------------------------------
    def _in_ejection(self, replica: Replica) -> bool:
        return (
            replica.ejected_until is not None
            and self.env.now < replica.ejected_until
        )

    def pick(self, exclude: Optional[Replica] = None) -> Optional[Replica]:
        """Choose the replica for one attempt (``None`` only when
        ``exclude`` removes the sole candidate).

        Ejected replicas are skipped; a replica whose sit-out has lapsed
        is in probation and eligible again.  If *every* candidate is
        ejected the balancer panics and selects among all of them.
        """
        candidates = [r for r in self.replicas if r is not exclude]
        if not candidates:
            return None
        healthy = [r for r in candidates if not self._in_ejection(r)]
        if not healthy:
            self.panic_picks += 1
            healthy = candidates
        self.picks += 1
        if self.config.policy == "least_outstanding":
            return min(healthy, key=lambda r: (r.outstanding, r.index))
        # Round-robin over the full ring, skipping ineligible slots, so
        # the rotation pointer stays meaningful as replicas come and go.
        n = len(self.replicas)
        eligible = set(id(r) for r in healthy)
        for step in range(n):
            replica = self.replicas[(self._rr + step) % n]
            if id(replica) in eligible:
                self._rr = (self._rr + step + 1) % n
                return replica
        return healthy[0]  # unreachable; healthy is non-empty

    # ------------------------------------------------------------------
    def on_success(self, replica: Replica, latency: Optional[float] = None) -> None:
        """A routed attempt succeeded: restore full health.

        With latency-aware ejection configured (``latency_factor > 0``)
        and a measured ``latency``, the sample first updates the
        replica's success-latency EWMA and may *eject* the replica
        instead of restoring it: a slow-but-succeeding instance is
        exactly the case where successes must not reset the clock.  A
        latency-ejected replica is also not restored early by further
        successes (panic picks, in-flight stragglers, health probes —
        gray failures answer probes just fine); it re-enters rotation
        when its sit-out lapses, and stays there only if its EWMA has
        recovered.  With the feature off (the default) this is the
        historical unconditional restore.
        """
        replica.consecutive_failures = 0
        cfg = self.config
        if latency is not None and cfg.latency_factor > 0:
            if replica.latency_ewma is None:
                replica.latency_ewma = latency
            else:
                alpha = cfg.latency_alpha
                replica.latency_ewma = (
                    alpha * latency + (1.0 - alpha) * replica.latency_ewma
                )
            replica.latency_samples += 1
            if not self._in_ejection(replica) and self._slow_outlier(replica):
                duration = (
                    replica.sitout if replica.sitout is not None
                    else cfg.ejection_duration
                )
                replica.ejected_until = self.env.now + duration
                replica.sitout = min(
                    duration * cfg.ejection_backoff, cfg.ejection_max_duration
                )
                replica.latency_ejected = True
                self.latency_ejections += 1
                return
        if replica.latency_ejected and self._in_ejection(replica):
            return
        replica.ejected_until = None
        replica.sitout = None
        replica.latency_ejected = False

    def _slow_outlier(self, replica: Replica) -> bool:
        """Whether ``replica``'s EWMA is a latency outlier vs its peers.

        Requires enough samples on the replica *and* at least one peer
        (upper-median of peer EWMAs is the baseline), and never fires
        when every other replica is already out of rotation — ejecting
        the last standing instance would be a self-inflicted blackout.
        """
        cfg = self.config
        if replica.latency_samples < cfg.latency_min_samples:
            return False
        peers = [
            r for r in self.replicas
            if r is not replica and r.latency_samples >= cfg.latency_min_samples
        ]
        if not peers:
            return False
        if all(
            self._in_ejection(r) for r in self.replicas if r is not replica
        ):
            return False
        ewmas = sorted(r.latency_ewma for r in peers)
        median = ewmas[len(ewmas) // 2]
        return replica.latency_ewma > cfg.latency_factor * median

    def on_failure(self, replica: Replica) -> None:
        """A routed attempt failed: count it, maybe eject.

        A failure while already sitting out (panic-mode picks land here)
        does not stack another ejection; a failure during probation
        re-ejects immediately with the backed-off sit-out.
        """
        cfg = self.config
        if cfg.ejection_threshold <= 0:
            return
        replica.consecutive_failures += 1
        if self._in_ejection(replica):
            return
        if replica.consecutive_failures >= cfg.ejection_threshold:
            duration = (
                replica.sitout if replica.sitout is not None
                else cfg.ejection_duration
            )
            replica.ejected_until = self.env.now + duration
            replica.sitout = min(
                duration * cfg.ejection_backoff, cfg.ejection_max_duration
            )
            self.ejections += 1

    def counters(self) -> Dict[str, float]:
        """Balancer counters for result reports.

        The latency-ejection counter appears only when the feature is
        configured, so pre-existing replica results (and their golden
        digests) keep their exact key set.
        """
        counts = {
            "lb_picks": float(self.picks),
            "lb_panic_picks": float(self.panic_picks),
            "lb_ejections": float(self.ejections),
        }
        if self.config.latency_factor > 0:
            counts["lb_latency_ejections"] = float(self.latency_ejections)
        return counts

    def __repr__(self) -> str:
        return (
            f"<LoadBalancer {self.config.policy} replicas={len(self.replicas)} "
            f"ejections={self.ejections}>"
        )


class ReplicaGroup:
    """The replicas of one tier plus their balancer and health prober."""

    def __init__(self, env: Environment, config: ReplicaConfig,
                 replicas: List[Replica]):
        self.env = env
        self.config = config
        self.replicas = replicas
        self.balancer = LoadBalancer(env, config, replicas)
        #: Active-probe outcomes (0 until :meth:`start_probes` runs).
        self.probe_successes = 0
        self.probe_failures = 0

    def start_probes(self) -> None:
        """Spawn the periodic health prober (no-op when disabled)."""
        if self.config.probe_interval > 0:
            self.env.process(self._probe_loop(), name="health-prober")

    def _probe_loop(self):
        """Probe every replica each period; deterministic, zero-RNG.

        A probe models a trivial connect/ping: against a crashed instance
        it fails instantly (counting toward ejection without burning a
        live request), against a healthy one it succeeds — and a success
        against a sitting-out or probation replica restores it to
        rotation early, giving crash *recovery* the same detection speed
        as the crash itself.
        """
        interval = self.config.probe_interval
        balancer = self.balancer
        while True:
            yield self.env.timeout(interval)
            for replica in self.replicas:
                if replica.server.down:
                    self.probe_failures += 1
                    balancer.on_failure(replica)
                else:
                    self.probe_successes += 1
                    if replica.ejected_until is not None:
                        balancer.on_success(replica)

    def counters(self) -> Dict[str, float]:
        """Group counters (balancer + probes + crash/outstanding state)."""
        counts = self.balancer.counters()
        counts["probe_successes"] = float(self.probe_successes)
        counts["probe_failures"] = float(self.probe_failures)
        counts["replica_crashes"] = float(sum(r.crashes for r in self.replicas))
        return counts

    def __repr__(self) -> str:
        return f"<ReplicaGroup replicas={len(self.replicas)}>"
