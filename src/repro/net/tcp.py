"""TCP connection model with send buffer, congestion window and wait-ACK.

This module reproduces — mechanistically — the behaviour the paper blames
for the write-spin problem (Section IV):

* the socket send buffer is small by default (16 KB);
* data occupies the buffer until the peer's ACK returns one RTT later
  (the *TCP wait-ACK mechanism*, Figure 5);
* a **non-blocking** write copies only ``min(free, len)`` bytes and may
  return zero, so pushing a 100 KB response through a 16 KB buffer takes
  on the order of ``response_size / ack_granularity`` ≈ 100 syscalls
  (the paper's Table IV measures 102);
* a **blocking** write is a single syscall: the thread sleeps in the kernel
  while ACK rounds complete, so thread-based servers dodge the spin at the
  price of one blocked thread per in-flight response;
* the congestion window starts at 10 segments (RFC 6928), grows in slow
  start, and — like Linux with ``tcp_slow_start_after_idle=1`` — collapses
  back after an idle period, which is what starves the kernel's send-buffer
  *autotuning* of information (Figure 6).

Only byte *counts* travel through the model (payload content is irrelevant
to performance), but every syscall, copy, segment and ACK is an explicit
simulated event.

Flow-level fast path
--------------------
The ACK-clocked drain is fully deterministic when no faults are armed and
the buffer is not autotuning, so the per-segment event churn (one delivery
timer plus one ACK timer per ack-granularity chunk — the dominant event
source of every large-response sweep) can be collapsed into a *plan*: at
each ``write()`` the connection computes the whole remaining drain in
closed form — slow-start growth, per-round in-flight caps, wire
serialization — and records the exact per-chunk send/delivery/ACK
timestamps.  Only **boundary events** reach the scheduler:

* one *completion* boundary per response at the exact delivery time of
  its final byte (``_attribute_delivery`` → ``Request.mark_completed``);
* one *armed wake-up* per parked writer, pushed directly at the next ACK
  time (``Environment.schedule_event_at``);
* one pooled *tick* at the next ACK time while selector-style callback
  watchers are parked;
* one *settle* event at the current end of the plan, so the final ACK
  frees the buffer even when nobody is watching.

All other effects (byte attribution, cwnd growth, buffer release, stats
counters) are applied lazily by ``_fp_advance`` whenever simulated state
is observed; the entry points skip the call while ``env.now`` is before
``_fp_next``, the earliest pending plan entry.  Timestamps replicate the
segment path's float arithmetic expression-for-expression (the general
planner through ``Link.chunk_schedule``, the short branch of
``_fp_extend`` with its expressions inline), so every observable —
``TCPStats`` counters, report floats, event ordering — is bit-identical;
the golden-digest matrix in ``tests/test_kernel_determinism_golden.py``
pins that contract.  The fast path self-disables per connection when
faults are attached, when autotuning is on, when bytes are written with
no open transfer to attribute them to (``_fp_materialize``), and at
``close()``; the ``REPRO_TCP_FASTPATH=0`` environment kill-switch disables
it globally for one-run bisection.

Per-response path
-----------------
A light response makes 19 calls into :mod:`repro.net`, pinned by
``tests/net/test_call_counts.py``: the write entry points do the closed
check and the idle-restart check inline and skip ``_fp_advance`` while
nothing is due; ``_fp_extend`` plans the common write (nothing planned
ahead, cwnd sends it all at once) on a short branch.

Per-connection state
--------------------
A connection holds its link and calibration, the request a server is
serving on it (``in_service``), a :class:`SendBuffer`, :class:`TCPStats`,
an ``on_close`` event, congestion state, and the FIFOs and plan lists of
both paths.  ``Connection`` and ``SendBuffer`` declare ``__slots__``, the
FIFOs are plain lists (none holds more than one entry in any pinned run
or bench workload, so ``pop(0)`` is cheap), and the two fast-path sets
are made on first use: an idle connection costs about 1.4 KB (traced
with :mod:`tracemalloc` over 1,000 connections on CPython 3.11; pinned
at 1,500 bytes by ``tests/net/test_connection_memory.py``).  ``close()``
empties the watcher lists and drops the buffer's park hook, so a closed
connection sits in no reference cycle of its own and is freed by
reference counting when its last holder lets go: the server registry
when ``on_close`` fires, the handler at its next work item, a selector
at its next scan, a cancelled plan event when it pops.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional

from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpu.scheduler import SimThread
from repro.errors import ConnectionClosedError
from repro.net.buffer import SendBuffer
from repro.net.link import Link
from repro.net.messages import Request
from repro.sim.core import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Environment,
    Event,
    ReusableEvent,
)
from repro.sim.inputs import run_inputs

__all__ = ["Connection", "ResponseTransfer", "TCPStats", "fastpath_enabled"]

#: Retransmission-timeout-ish idle threshold after which Linux (with
#: tcp_slow_start_after_idle=1, the default) resets cwnd to the initial
#: window.  200 ms matches the minimum RTO.
IDLE_RESET_THRESHOLD = 0.200

_INF = float("inf")


def fastpath_enabled() -> bool:
    """Global kill-switch for the flow-level fast path.

    ``REPRO_TCP_FASTPATH=0`` forces every new connection onto the
    per-segment path; reports are bit-identical either way, so flipping
    the switch bisects any future digest mismatch to this layer in one
    run.  Read per connection (:func:`~repro.sim.inputs.run_inputs`) so
    tests can monkeypatch the environment.
    """
    return run_inputs().tcp_fastpath


class TCPStats:
    """Per-connection syscall and transfer counters."""

    __slots__ = (
        "write_calls",
        "zero_writes",
        "bytes_written",
        "bytes_delivered",
        "responses_completed",
        "requests_received",
        "acks_received",
        "idle_resets",
    )

    def __init__(self) -> None:
        self.write_calls = 0
        self.zero_writes = 0
        self.bytes_written = 0
        self.bytes_delivered = 0
        self.responses_completed = 0
        self.requests_received = 0
        self.acks_received = 0
        self.idle_resets = 0


class ResponseTransfer:
    """Tracks delivery of one response to the client.

    Created by the server before it starts writing the response; completes
    (``completed_at``, ``Request.completed``) when the final byte reaches the
    client.  Transfers on a connection complete in FIFO order (a byte stream).
    """

    __slots__ = ("request", "total", "delivered", "completed_at")

    def __init__(self, total: int, request: Optional[Request]):
        if total < 0:
            raise ValueError(f"transfer size must be >= 0, got {total!r}")
        self.request = request
        self.total = total
        self.delivered = 0
        self.completed_at: Optional[float] = None

    @property
    def remaining(self) -> int:
        return self.total - self.delivered


class Connection:
    """A full-duplex client↔server connection.

    The client→server direction carries small requests and is modelled as a
    simple delayed delivery.  The server→client direction (responses, where
    all the interesting behaviour lives) is modelled with the full send
    buffer / cwnd / wait-ACK machinery.
    """

    __slots__ = (
        "id",
        "env",
        "link",
        "calibration",
        "autotune",
        "closed",
        "_stats",
        "faults",
        "on_close",
        "in_service",
        "buffer",
        "_cwnd",
        "_cwnd_max",
        "_mss",
        "_ack_granularity",
        "_unsent",
        "_in_flight",
        "_wire_free_at",
        "_last_activity",
        "_transfers",
        "inbox",
        "_readable_watchers",
        "_fp_active",
        "_fp_sends",
        "_fp_delivs",
        "_fp_acks",
        "_fp_sends_i",
        "_fp_delivs_i",
        "_fp_acks_i",
        "_fp_planned",
        "_fp_demand",
        "_fp_boundaries",
        "_fp_done_evs",
        "_fp_settle",
        "_fp_tick",
        "_fp_armed",
        "_fp_closing",
        "_fp_boundary_hook",
        "_fp_advancing",
        "_fp_next",
        "__weakref__",
    )

    _ids = 0

    def __init__(
        self,
        env: Environment,
        link: Link,
        calibration: Calibration = DEFAULT_CALIBRATION,
        send_buffer_size: Optional[int] = None,
        autotune: bool = False,
        faults=None,
    ):
        Connection._ids += 1
        self.id = Connection._ids
        self.env = env
        self.link = link
        self.calibration = calibration
        self.autotune = autotune
        self.closed = False
        self._stats = TCPStats()
        #: Optional per-connection fault hooks (duck-typed like
        #: :class:`repro.faults.ConnectionFaults`).  ``None`` — the default —
        #: keeps the data path entirely fault-free: no extra branches draw
        #: randomness or schedule events.
        self.faults = faults
        #: Fires (once) when the connection closes; resilient clients wait
        #: on it alongside the response so a mid-request reset wakes them
        #: immediately instead of after a full timeout.
        self.on_close: Event = env.event()
        #: The request a server last read from this connection, kept for
        #: abort accounting: ``BaseServer._read_request`` sets it and
        #: ``BaseServer._abort_connection`` takes it when a close
        #: interrupts service.
        self.in_service: Optional[Request] = None

        initial_capacity = send_buffer_size or calibration.tcp_send_buffer
        if autotune:
            initial_capacity = min(
                max(calibration.tcp_send_buffer, 2 * self._initial_cwnd_bytes()),
                calibration.tcp_wmem_max,
            )
        self.buffer = SendBuffer(initial_capacity)

        # Congestion control state (server→client direction).
        self._cwnd = self._initial_cwnd_bytes()
        self._cwnd_max = 256 * calibration.mss
        # Cached constants for the per-chunk hot path (_pump/_on_ack run
        # once per ack-granularity chunk — ~25 times per 100KB response).
        self._mss = calibration.mss
        self._ack_granularity = calibration.mss * calibration.segments_per_ack
        self._unsent = 0
        self._in_flight = 0
        self._wire_free_at = 0.0
        self._last_activity = env.now

        # Response transfers awaiting delivery (FIFO byte attribution).
        # This and the other FIFOs are lists popped at the head: a
        # connection carries one exchange at a time, so none grows past a
        # few entries, and an empty list is far smaller than a deque.
        self._transfers: List[ResponseTransfer] = []

        # Requests that arrived at the server but were not read yet.
        self.inbox: List[Request] = []

        # One-shot readability watchers: callbacks (Selector) or Events to
        # succeed directly (blocked readers), woken in registration order.
        self._readable_watchers: List = []

        # ---- Flow-level fast path (see module docstring) -------------
        # Eligibility is static per connection: faults and autotuning
        # perturb the drain in ways the closed form does not model, so
        # those connections stay on the per-segment path from birth.
        self._fp_active = faults is None and not autotune and fastpath_enabled()
        # The drain plan: exact per-chunk (send, delivery, ACK) records,
        # consumed from head indices by _fp_advance.  Entries before the
        # head are applied; entries after it are the pending future.
        self._fp_sends: List[tuple] = []  # (send_time, nbytes, wire_free_after)
        self._fp_delivs: List[tuple] = []  # (delivery_time, nbytes)
        self._fp_acks: List[tuple] = []  # (ack_time, nbytes)
        self._fp_sends_i = 0
        self._fp_delivs_i = 0
        self._fp_acks_i = 0
        # Global byte-stream offsets: bytes planned (== accepted writes)
        # and bytes of declared response demand (sum of transfer totals).
        # The fast path requires planned <= demand at all times — bytes
        # written with no transfer to attribute them to have no knowable
        # completion boundary, so _fp_materialize bails to real events.
        self._fp_planned = 0
        self._fp_demand = 0
        # Response-completion bookkeeping: (end_offset, transfer) pairs
        # not yet covered by planned bytes, and the scheduled completion
        # events for covered ones.
        self._fp_boundaries: List[tuple] = []
        self._fp_done_evs: List[tuple] = []  # (end_offset, event, transfer)
        # Boundary triggers: the settle event at the current end of the
        # plan, the pooled tick arming callback watchers, the set of
        # armed (pre-triggered, heap-scheduled) writer wake-ups, and the
        # armed events re-delivered at close whose stale ACK-time heap
        # entries must die as lazy tombstones.  Both sets are made on
        # first use: most connections never park a writer.
        self._fp_settle = None
        self._fp_tick = None
        self._fp_armed: Optional[set] = None
        self._fp_closing: Optional[set] = None
        # Observer for planned/retracted completion boundaries: the sharded
        # kernel (repro.shard) registers one per cut connection so it can
        # emit a cross-shard completion message the moment the delivery time
        # of a response's final byte becomes known — and retract it if a
        # later write replans the tail.  ``hook(transfer, d)`` announces a
        # boundary planned to land at ``d``; ``hook(transfer, None)``
        # retracts it.  None (the default) costs one guard per plan append.
        self._fp_boundary_hook = None
        self._fp_advancing = False
        # Timestamp of the earliest pending plan entry (_INF when the plan
        # is fully applied): lets _fp_advance — called on every observation
        # of simulated state, usually with nothing to do — exit on a single
        # float compare instead of probing three list heads.
        self._fp_next = _INF
        if self._fp_active:
            self.buffer.on_park = self._fp_on_park

    # ------------------------------------------------------------------
    # Congestion window helpers
    # ------------------------------------------------------------------
    def _initial_cwnd_bytes(self) -> int:
        return self.calibration.initial_cwnd_segments * self.calibration.mss

    @property
    def stats(self) -> TCPStats:
        """Per-connection counters (current as of ``env.now``)."""
        if self.env._now >= self._fp_next:
            self._fp_advance()
        return self._stats

    @property
    def cwnd(self) -> int:
        """Current congestion window in bytes."""
        if self.env._now >= self._fp_next:
            self._fp_advance()
        return self._cwnd

    @property
    def ack_granularity(self) -> int:
        """Bytes acknowledged per ACK (delayed-ACK granularity)."""
        return self._ack_granularity

    def _idle_restart(self) -> None:
        """Linux tcp_slow_start_after_idle: restart from the initial window.

        The writers call this when the gap since the last send activity
        exceeds :data:`IDLE_RESET_THRESHOLD`, then stamp the activity.
        """
        self._cwnd = self._initial_cwnd_bytes()
        self._stats.idle_resets += 1
        self._retune_buffer()

    def _retune_buffer(self) -> None:
        """Kernel send-buffer autotuning: track ~2x cwnd (BDP heuristic).

        The kernel sizes the buffer to keep the *link* busy; it knows
        nothing about application response sizes — which is exactly why the
        paper found autotuning insufficient to stop the write-spin.
        """
        if not self.autotune:
            return
        target = 2 * self._cwnd
        target = max(target, self.calibration.tcp_send_buffer)
        target = min(target, self.calibration.tcp_wmem_max)
        if target > self.buffer.capacity:
            self.buffer.capacity = target

    # ------------------------------------------------------------------
    # Client side: issue requests
    # ------------------------------------------------------------------
    def send_request(self, request: Request) -> None:
        """Client sends ``request``; it arrives at the server one
        transfer-delay later and becomes readable."""
        if self.closed:
            raise self._closed_error()
        delay = self.link.transfer_delay(request.request_size)
        # Pooled timer carrying the request as its value: the bound-method
        # callback replaces a per-request closure (safe: nothing retains
        # the timer and the callback reads only the value).
        arrival = self.env.pooled_timeout(delay, request)
        arrival.callbacks.append(self._request_arrival_cb)

    def _request_arrival_cb(self, event: Event) -> None:
        self._on_request_arrival(event._value)

    def _on_request_arrival(self, request: Request) -> None:
        if self.closed:
            return
        if self.faults is not None and self.faults.on_request_arrival():
            # Injected connection reset: the request is lost with the
            # connection (the client observes the close, not a response).
            self.close()
            return
        self.inbox.append(request)
        self._stats.requests_received += 1
        if self._readable_watchers:
            self._notify_readable()

    # ------------------------------------------------------------------
    # Server side: read requests
    # ------------------------------------------------------------------
    @property
    def readable(self) -> bool:
        """True when at least one request is waiting to be read."""
        return bool(self.inbox)

    @property
    def writable(self) -> bool:
        """True when the send buffer has free space."""
        if self.env._now >= self._fp_next:
            self._fp_advance()
        buffer = self.buffer
        return buffer._used < buffer._capacity

    def read_request(self) -> Optional[Request]:
        """Pop the oldest pending request (``None`` if the inbox is empty).

        The caller is responsible for charging the read syscall to a
        thread (see :meth:`SimThread.syscall`).
        """
        if self.closed:
            raise self._closed_error()
        inbox = self.inbox
        if not inbox:
            return None
        return inbox.pop(0)

    def wait_readable(self) -> Event:
        """Event that succeeds when the connection has a pending request."""
        event = self.env.event()
        if self.inbox:
            event.succeed()
        else:
            self._readable_watchers.append(event)
        return event

    def add_readable_watcher(self, callback: Callable[[], None]) -> None:
        """One-shot callback on readability (used by the selector)."""
        if self.inbox:
            callback()
        else:
            self._readable_watchers.append(callback)

    def _notify_readable(self) -> None:
        watchers, self._readable_watchers = self._readable_watchers, []
        for watcher in watchers:
            if isinstance(watcher, Event):
                watcher.succeed()
            else:
                watcher()

    # ------------------------------------------------------------------
    # Server side: write responses
    # ------------------------------------------------------------------
    def open_transfer(self, total: int, request: Optional[Request] = None) -> ResponseTransfer:
        """Declare the next response of ``total`` bytes on this connection."""
        if self.closed:
            raise self._closed_error()
        transfer = ResponseTransfer(total, request)
        if total == 0:
            transfer.completed_at = self.env.now
            self._stats.responses_completed += 1
            if request is not None:
                request.mark_completed()
        else:
            self._transfers.append(transfer)
            if self._fp_active:
                # planned <= demand holds (enforced at every write), so a
                # new transfer's completion offset is always beyond the
                # current plan: queue it for coverage by future writes.
                self._fp_demand += total
                self._fp_boundaries.append((self._fp_demand, transfer))
        return transfer

    def try_write(self, nbytes: int, request: Optional[Request] = None) -> int:
        """Non-blocking write: copy up to ``nbytes`` into the send buffer.

        Returns the number of bytes accepted — possibly zero when the
        buffer is full (the write-spin case).  The caller must charge the
        syscall cost (``thread.syscall(bytes_copied=returned)``).
        """
        if self.closed:
            raise self._closed_error()
        now = self.env._now
        if now >= self._fp_next:
            self._fp_advance()
        if now - self._last_activity > IDLE_RESET_THRESHOLD:
            self._idle_restart()
        self._last_activity = now
        accepted = self.buffer.reserve(nbytes)
        stats = self._stats
        stats.write_calls += 1
        if request is not None:
            request.write_calls += 1
        if accepted == 0:
            stats.zero_writes += 1
            if request is not None:
                request.zero_writes += 1
            return 0
        stats.bytes_written += accepted
        self._unsent += accepted
        if self._fp_active and self._fp_planned + accepted <= self._fp_demand:
            self._fp_extend()
        else:
            if self._fp_active:
                # Bytes with no open transfer to attribute them to: their
                # completion boundaries are unknowable, so fall back to
                # real per-segment events for this connection.
                self._fp_materialize()
            self._pump()
        return accepted

    def blocking_write(self, thread: SimThread, nbytes: int, request: Optional[Request] = None):
        """Blocking write of ``nbytes`` — a generator to ``yield from``.

        Models the thread-based path: exactly **one** syscall; the calling
        thread sleeps in the kernel while the buffer drains and the kernel
        moves the remaining bytes in as ACKs free space.  No write-spin.
        """
        if self.closed:
            raise self._closed_error()
        stats = self._stats
        stats.write_calls += 1
        if request is not None:
            request.write_calls += 1
        # One kernel crossing up front; the per-byte copy cost is charged
        # chunk by chunk below, as the kernel moves data into the buffer
        # while earlier bytes are already draining onto the wire.
        yield thread.syscall(bytes_copied=0)
        stats.bytes_written += nbytes
        copy_cost = self.calibration.copy_cost_per_byte
        env = self.env
        buffer = self.buffer
        remaining = nbytes
        # One re-armable gate for the whole write: a 1 MB response through
        # a 16 KB buffer parks ~buffer/ack-granularity times, and each park
        # used to allocate a fresh Event plus a wake-up closure.
        gate: Optional[ReusableEvent] = None
        while remaining > 0:
            now = env._now
            if now >= self._fp_next:
                self._fp_advance()
            if now - self._last_activity > IDLE_RESET_THRESHOLD:
                self._idle_restart()
            self._last_activity = now
            accepted = buffer.reserve(remaining)
            if accepted > 0:
                remaining -= accepted
                self._unsent += accepted
                # Plan, or fall back to the segment path, as try_write does.
                if self._fp_active and self._fp_planned + accepted <= self._fp_demand:
                    self._fp_extend()
                else:
                    if self._fp_active:
                        self._fp_materialize()
                    self._pump()
                chunk_cost = copy_cost * accepted + self.calibration.tx_kernel_cost(accepted)
                if chunk_cost > 0:
                    yield thread.run(chunk_cost, "system")
            if remaining > 0:
                if not self.closed:
                    if gate is None:
                        gate = ReusableEvent(self.env)
                    self._park_space_event(gate.rearm())
                    yield gate
                if self.closed:
                    # Peer went away mid-write; unwind into the caller.
                    raise ConnectionClosedError(
                        f"connection #{self.id} closed during blocking write"
                    )

    def wait_writable(self) -> Event:
        """Event that succeeds when the send buffer has free space.

        Succeeds immediately on a closed connection (nothing will ever
        drain its buffer again) so that waiting writers wake up, retry,
        and observe the :class:`ConnectionClosedError`.
        """
        event = self.env.event()
        if self.closed:
            event.succeed()
        else:
            if self.env._now >= self._fp_next:
                self._fp_advance()
            self._park_space_event(event)
        return event

    def add_writable_watcher(self, callback: Callable[[], None]) -> None:
        """One-shot callback when the send buffer has space (selector path).

        Mirrors :meth:`SendBuffer.add_space_waiter` — fires immediately
        when space is free or the connection is closed — but goes through
        the connection so the fast path can bring buffer occupancy up to
        date first and arm a wake-up tick for the park.
        """
        if self.env._now >= self._fp_next:
            self._fp_advance()
        self.buffer.add_space_waiter(callback)

    def _park_space_event(self, event: Event) -> None:
        """Park ``event`` until buffer space appears.

        On the fast path with ACKs still pending, the waiter itself is
        pushed into the event heap at the next ACK's exact timestamp (an
        *armed wake-up*: one heap entry replaces the slow path's ACK timer
        plus wake event), with an advance callback prepended so the
        release happens before the writer resumes.  Otherwise this is
        plain buffer parking.
        """
        buffer = self.buffer
        if self.env._now >= self._fp_next:
            # The caller may have slept (e.g. the per-chunk copy charge in
            # blocking_write) since the last advance; apply any ACKs that
            # landed meanwhile so the head pending ACK is in the future.
            self._fp_advance()
        if (
            self._fp_active
            and self._fp_acks_i < len(self._fp_acks)
            and buffer.free <= 0
            and not buffer.closed
        ):
            event = self.env.schedule_event_at(event, self._fp_acks[self._fp_acks_i][0])
            event.callbacks.append(self._fp_wake_cb)
            if self._fp_armed is None:
                self._fp_armed = set()
            self._fp_armed.add(event)
        else:
            buffer.add_space_event(event)

    # ------------------------------------------------------------------
    # Kernel transmit path (segments out, ACKs back)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Transmit buffered data while the congestion window allows."""
        unsent = self._unsent
        in_flight = self._in_flight
        cwnd = self._cwnd
        if unsent <= 0 or in_flight >= cwnd:
            return
        ack_granularity = self._ack_granularity
        chunk_schedule = self.link.chunk_schedule
        now = self.env._now
        faults = self.faults
        pooled_timeout = self.env.pooled_timeout
        chunk_delivered_cb = self._chunk_delivered_cb
        wire_free_at = self._wire_free_at
        while unsent > 0 and in_flight < cwnd:
            chunk = min(ack_granularity, unsent, cwnd - in_flight)
            unsent -= chunk
            in_flight += chunk
            wire_free_at, delivery_delay = chunk_schedule(now, wire_free_at, chunk)
            if faults is not None:
                # Injected loss/corruption/latency spike: retransmissions
                # only matter as extra delivery delay in this model.
                delivery_delay += faults.chunk_delay(chunk)
            delivered = pooled_timeout(delivery_delay, chunk)
            delivered.callbacks.append(chunk_delivered_cb)
        self._unsent = unsent
        self._in_flight = in_flight
        self._wire_free_at = wire_free_at

    def _chunk_delivered_cb(self, event: Event) -> None:
        self._on_chunk_delivered(event._value)

    def _ack_cb(self, event: Event) -> None:
        self._on_ack(event._value)

    def _on_chunk_delivered(self, nbytes: int) -> None:
        if self.closed:
            return
        self._stats.bytes_delivered += nbytes
        self._attribute_delivery(nbytes)
        ack = self.env.pooled_timeout(self.link.one_way_latency, nbytes)
        ack.callbacks.append(self._ack_cb)

    def _on_ack(self, nbytes: int) -> None:
        if self.closed:
            return
        self._stats.acks_received += 1
        self._in_flight -= nbytes
        self._last_activity = self.env._now
        # Slow start: grow by one MSS per ACK, up to the cap.
        if self._cwnd < self._cwnd_max:
            self._cwnd = min(self._cwnd + self._mss, self._cwnd_max)
            self._retune_buffer()
        self.buffer.release(nbytes)
        self._pump()

    def _attribute_delivery(self, nbytes: int) -> None:
        """Assign delivered bytes to response transfers in FIFO order."""
        transfers = self._transfers
        while nbytes > 0 and transfers:
            head = transfers[0]
            remaining = head.total - head.delivered
            take = nbytes if nbytes < remaining else remaining
            head.delivered += take
            nbytes -= take
            if take == remaining:
                transfers.pop(0)
                head.completed_at = self.env._now
                self._stats.responses_completed += 1
                if head.request is not None:
                    head.request.mark_completed()

    # ------------------------------------------------------------------
    # Flow-level fast path
    # ------------------------------------------------------------------
    def _fp_advance(self) -> None:
        """Apply every planned effect with a timestamp <= ``env.now``.

        Walks the send/delivery/ACK plan in merged time order — at equal
        timestamps deliveries first, then the ACK, then the sends that
        ACK's pump emitted, matching the slow path's callback order inside
        one timestamp.  Re-entrant calls (a buffer release notifying a
        selector watcher that reads ``writable``) are no-ops; the outer
        walk finishes the job in the same order the slow path's discrete
        events would have.  Hot callers skip the call while ``env.now`` is
        before ``_fp_next``.

        The walk keeps only the plan and its cursors in locals; connection
        state (stats, cwnd, in-flight and unsent bytes) is read and written
        where an ACK run or a send applies it.  So the walk over a plan
        with no pending sends, nearly every plan, loads nothing it does
        not use and writes back only the three cursors.
        """
        now = self.env._now
        if now < self._fp_next or self._fp_advancing or self.closed:
            return
        delivs = self._fp_delivs
        acks = self._fp_acks
        sends = self._fp_sends
        di = self._fp_delivs_i
        ai = self._fp_acks_i
        si = self._fp_sends_i
        nd = len(delivs)
        na = len(acks)
        ns = len(sends)
        self._fp_advancing = True
        # Runs of consecutive same-kind entries batch into one effect
        # application: a run of deliveries becomes one attribution, a run
        # of ACKs one release.  Legal because nothing between two entries
        # of a run consumes an event id — the first observable divergence
        # point — so batching is indistinguishable from per-entry apply.
        deliv_acc = 0
        # The three head timestamps; each run below moves only its own.
        t_d = delivs[di][0] if di < nd else _INF
        t_a = acks[ai][0] if ai < na else _INF
        t_s = sends[si][0] if si < ns else _INF
        try:
            while True:
                if t_d <= t_a and t_d <= t_s:
                    if t_d > now:
                        self._fp_next = t_d
                        break
                    while True:
                        deliv_acc += delivs[di][1]
                        di += 1
                        if di >= nd:
                            t_d = _INF
                            break
                        t_d = delivs[di][0]
                        if t_d > now or t_d > t_a or t_d > t_s:
                            break
                elif t_a <= t_s:
                    if t_a > now:
                        self._fp_next = t_a
                        break
                    if deliv_acc:
                        self._stats.bytes_delivered += deliv_acc
                        self._attribute_delivery(deliv_acc)
                        deliv_acc = 0
                    n = 0
                    run = 0
                    while True:
                        entry = acks[ai]
                        n += entry[1]
                        last_a = entry[0]
                        run += 1
                        ai += 1
                        if ai >= na:
                            t_a = _INF
                            break
                        t_a = acks[ai][0]
                        if t_a > now or t_a >= t_d or t_a > t_s:
                            break
                    self._stats.acks_received += run
                    self._in_flight -= n
                    self._last_activity = last_a
                    cwnd = self._cwnd
                    cwnd_max = self._cwnd_max
                    if cwnd < cwnd_max:
                        grown = cwnd + self._mss * run
                        self._cwnd = grown if grown < cwnd_max else cwnd_max
                    # Waiters woken by the release observe connection state:
                    # write the cursors back before notifying.
                    self._fp_delivs_i = di
                    self._fp_acks_i = ai
                    self._fp_sends_i = si
                    self.buffer.release(n)
                else:
                    if t_s > now:
                        self._fp_next = t_s
                        break
                    entry = sends[si]
                    si += 1
                    self._unsent -= entry[1]
                    self._in_flight += entry[1]
                    self._wire_free_at = entry[2]
                    t_s = sends[si][0] if si < ns else _INF
        finally:
            if deliv_acc:
                self._stats.bytes_delivered += deliv_acc
                self._attribute_delivery(deliv_acc)
            self._fp_delivs_i = di
            self._fp_acks_i = ai
            self._fp_sends_i = si
            self._fp_advancing = False

    def _fp_extend(self) -> None:
        """Plan the drain of freshly accepted bytes (fast-path ``_pump``).

        Replicates ``_pump`` (and the ``_on_ack`` → ``_pump`` cascade at
        every future ACK) arithmetic expression-for-expression so that the
        planned timestamps equal the slow path's event times bit-for-bit.

        Nearly every call finds no future send planned and a cwnd that
        sends all of ``_unsent`` at once; the short branch plans exactly
        that and nothing else.  Every other call (a cwnd-limited write, or
        one that must replan future sends) takes the general branch.
        """
        env = self.env
        now = env._now
        delivs = self._fp_delivs
        acks = self._fp_acks
        sends = self._fp_sends
        unsent = self._unsent
        in_flight = self._in_flight
        cwnd = self._cwnd
        gran = self._ack_granularity
        planned = self._fp_planned

        if self._fp_sends_i == len(sends) and unsent <= cwnd - in_flight:
            # Short branch: step (2) alone, with each chunk the whole of
            # min(gran, unsent) (cwnd never binds) and Link.chunk_schedule
            # inline: the same expressions in the same order, since float
            # addition is not associative.  A change to chunk_schedule must
            # be made here too.
            link = self.link
            bandwidth = link.bandwidth
            latency = link.one_way_latency
            wire_free_at = self._wire_free_at
            boundaries = self._fp_boundaries
            next_end = boundaries[0][0] if boundaries else _INF
            while unsent > 0:
                chunk = gran if gran < unsent else unsent
                unsent -= chunk
                in_flight += chunk
                serialization = chunk / bandwidth
                depart = now if now > wire_free_at else wire_free_at
                wire_free_at = depart + serialization
                d = now + ((depart - now) + serialization + latency)
                delivs.append((d, chunk))
                acks.append((d + latency, chunk))
                planned += chunk
                if planned >= next_end:
                    next_end = self._fp_cover(planned, d)
            self._unsent = 0
            self._in_flight = in_flight
            self._wire_free_at = wire_free_at
            self._fp_planned = planned
            if self._fp_settle is None:
                ev = env.pooled_schedule_at(acks[-1][0])
                ev.callbacks.append(self._fp_settle_cb)
                self._fp_settle = ev
            # No send is pending, so the earliest pending entry is the head
            # delivery or the head ACK.  When the plan started fully applied
            # the head delivery is the first new one, and its own ACK,
            # later, heads the ACKs.
            nxt = delivs[self._fp_delivs_i][0]
            if self._fp_next != _INF:
                t = acks[self._fp_acks_i][0]
                if t < nxt:
                    nxt = t
            self._fp_next = nxt
            return

        # (1) Drop not-yet-applied future sends — a new write at `now`
        # changes what the pump at each future ACK would have sent, so the
        # mutable suffix (and its delivery/ACK/completion entries, which
        # are the tails in chunk order) is recomputed from scratch.
        boundaries = self._fp_boundaries
        si = self._fp_sends_i
        k = len(sends) - si
        if k:
            done_evs = self._fp_done_evs
            for i in range(si, len(sends)):
                planned -= sends[i][1]
            del sends[si:]
            del delivs[len(delivs) - k :]
            del acks[len(acks) - k :]
            hook = self._fp_boundary_hook
            while done_evs and done_evs[-1][0] > planned:
                end, ev, transfer = done_evs.pop()
                if ev.callbacks is not None:
                    env._cancel(ev)
                boundaries.insert(0, (end, transfer))
                if hook is not None:
                    hook(transfer, None)

        next_end = boundaries[0][0] if boundaries else _INF

        # (2) Send immediately what cwnd allows — the slow path's _pump at
        # `now`, with the delivery timer replaced by a plan entry.
        latency = self.link.one_way_latency
        chunk_schedule = self.link.chunk_schedule
        wire_free_at = self._wire_free_at
        while unsent > 0 and in_flight < cwnd:
            chunk = min(gran, unsent, cwnd - in_flight)
            unsent -= chunk
            in_flight += chunk
            wire_free_at, delivery_delay = chunk_schedule(now, wire_free_at, chunk)
            d = now + delivery_delay
            delivs.append((d, chunk))
            acks.append((d + latency, chunk))
            planned += chunk
            if planned >= next_end:
                next_end = self._fp_cover(planned, d)
        self._unsent = unsent
        self._in_flight = in_flight
        self._wire_free_at = wire_free_at

        # (3) The cwnd-limited remainder: simulate the ACK-clocked future.
        # Each pending ACK frees in-flight bytes and grows cwnd exactly as
        # _on_ack would, then pumps at the ACK's timestamp.  Appended ACK
        # entries extend the walk, so the whole remaining drain is planned.
        if unsent > 0:
            mss = self._mss
            cwnd_max = self._cwnd_max
            i = self._fp_acks_i
            while unsent > 0:
                a, ack_n = acks[i]
                i += 1
                in_flight -= ack_n
                if cwnd < cwnd_max:
                    grown = cwnd + mss
                    cwnd = grown if grown < cwnd_max else cwnd_max
                while unsent > 0 and in_flight < cwnd:
                    chunk = min(gran, unsent, cwnd - in_flight)
                    unsent -= chunk
                    in_flight += chunk
                    wire_free_at, delivery_delay = chunk_schedule(a, wire_free_at, chunk)
                    d = a + delivery_delay
                    sends.append((a, chunk, wire_free_at))
                    delivs.append((d, chunk))
                    acks.append((d + latency, chunk))
                    planned += chunk
                    if planned >= next_end:
                        next_end = self._fp_cover(planned, d)
        self._fp_planned = planned

        # (4) Settle event at the end of the plan: applies the final ACK's
        # release even when no writer or watcher is parked.  When it fires
        # mid-drain (the plan grew since) it hops to the new end.  Pooled:
        # the stored reference is nulled at every cancel/fire site before
        # the object can be recycled, satisfying the pool contract.
        if self._fp_settle is None and acks:
            ev = env.pooled_schedule_at(acks[-1][0])
            ev.callbacks.append(self._fp_settle_cb)
            self._fp_settle = ev

        # Refresh the earliest-pending-entry cache: the appends above may
        # have put a new head in front of an exhausted (or later) one.
        nxt = sends[self._fp_sends_i][0] if self._fp_sends_i < len(sends) else _INF
        if self._fp_delivs_i < len(delivs):
            t = delivs[self._fp_delivs_i][0]
            if t < nxt:
                nxt = t
        if self._fp_acks_i < len(acks):
            t = acks[self._fp_acks_i][0]
            if t < nxt:
                nxt = t
        self._fp_next = nxt

    def _fp_cover(self, planned: int, d: float) -> float:
        """Schedule the completion boundary, at delivery time ``d``, of
        every response that ends within the first ``planned`` bytes.

        Returns the end offset of the next response still uncovered.
        """
        env = self.env
        boundaries = self._fp_boundaries
        done_evs = self._fp_done_evs
        boundary_cb = self._fp_boundary_cb
        hook = self._fp_boundary_hook
        while boundaries and boundaries[0][0] <= planned:
            end, transfer = boundaries.pop(0)
            ev = env.schedule_at(d)
            ev.callbacks.append(boundary_cb)
            done_evs.append((end, ev, transfer))
            if hook is not None:
                hook(transfer, d)
        return boundaries[0][0] if boundaries else _INF

    def _fp_boundary_cb(self, event: Event) -> None:
        """A response's final byte lands exactly now: apply and complete."""
        if self.closed:
            return
        self._fp_advance()
        done_evs = self._fp_done_evs
        while done_evs and done_evs[0][1].callbacks is None:
            done_evs.pop(0)

    def _fp_settle_cb(self, event: Event) -> None:
        self._fp_settle = None
        if self.closed:
            return
        self._fp_advance()
        acks = self._fp_acks
        if self._fp_acks_i < len(acks):
            # The plan grew while we were queued: hop to the current end.
            ev = self.env.pooled_schedule_at(acks[-1][0])
            ev.callbacks.append(self._fp_settle_cb)
            self._fp_settle = ev
        else:
            # Fully drained: reset the plan storage so a long-lived
            # connection's memory stays flat across responses.
            del self._fp_sends[:]
            del self._fp_delivs[:]
            del acks[:]
            self._fp_sends_i = self._fp_delivs_i = self._fp_acks_i = 0

    def _fp_tick_cb(self, event: Event) -> None:
        self._fp_tick = None
        self._fp_advance()

    def _fp_wake_cb(self, event: Event) -> None:
        closing = self._fp_closing
        if closing and event in closing:
            # Re-delivered at close time; the original heap entry at the
            # ACK timestamp is now stale — mark it so the scheduler drops
            # it as a lazy tombstone when it pops (or compacts away).
            closing.discard(event)
            event._cancelled = True
            self.env._cancelled_entries += 1
            return
        self._fp_armed.discard(event)
        self._fp_advance()

    def _fp_on_park(self) -> None:
        """Buffer parked a callback watcher: make sure a wake-up exists.

        Armed writer wake-ups already advance (and therefore release and
        notify) at the next ACK; otherwise a pooled tick is scheduled at
        that exact timestamp.
        """
        if self._fp_tick is not None or self._fp_armed:
            return
        ai = self._fp_acks_i
        acks = self._fp_acks
        if ai < len(acks):
            t = self.env.pooled_schedule_at(acks[ai][0])
            t.callbacks.append(self._fp_tick_cb)
            self._fp_tick = t

    def _fp_materialize(self) -> None:
        """Bail out: turn the pending plan into real per-segment events.

        Engaged when the closed form stops being safe (bytes written with
        no open transfer).  Pending deliveries become delivery timers at
        their exact planned times; ACKs whose delivery already applied
        become ACK timers.  Future sends are simply dropped — their bytes
        are still in ``_unsent`` and the slow path's ``_on_ack`` → ``_pump``
        cascade re-sends them at the same timestamps.  ACK timers use
        urgent priority so a release always precedes any armed wake-up
        left in the heap at the same timestamp (matching the slow path's
        release-then-wake order); the armed wake-ups themselves fire as
        harmless advances of an empty plan.
        """
        env = self.env
        self._fp_active = False
        self.buffer.on_park = None
        if self._fp_tick is not None:
            env._cancel(self._fp_tick)
            self._fp_tick = None
        if self._fp_settle is not None:
            env._cancel(self._fp_settle)
            self._fp_settle = None
        for _end, ev, _transfer in self._fp_done_evs:
            if ev.callbacks is not None:
                env._cancel(ev)
        self._fp_done_evs.clear()
        self._fp_boundaries.clear()
        sends = self._fp_sends
        delivs = self._fp_delivs
        acks = self._fp_acks
        pending_delivs = len(delivs) - self._fp_delivs_i
        pending_acks = len(acks) - self._fp_acks_i
        # ACKs of already-delivered chunks (delivery applied, ACK not):
        # the leading pending ACK entries.
        for i in range(self._fp_acks_i, self._fp_acks_i + (pending_acks - pending_delivs)):
            a, n = acks[i]
            t = env.pooled_schedule_at(a, n, PRIORITY_URGENT)
            t.callbacks.append(self._ack_cb)
        # In-flight chunks (sent, not delivered): real delivery timers
        # which re-schedule their own ACKs, like the slow path.
        mat_cb = self._fp_mat_deliv_cb
        for i in range(self._fp_delivs_i, len(delivs)):
            d, n = delivs[i]
            t = env.pooled_schedule_at(d, n)
            t.callbacks.append(mat_cb)
        del sends[:]
        del delivs[:]
        del acks[:]
        self._fp_sends_i = self._fp_delivs_i = self._fp_acks_i = 0
        self._fp_next = _INF

    def _fp_mat_deliv_cb(self, event: Event) -> None:
        """Materialized delivery: slow-path effects, urgent ACK timer."""
        nbytes = event._value
        if self.closed:
            return
        self._stats.bytes_delivered += nbytes
        self._attribute_delivery(nbytes)
        env = self.env
        ack = env.pooled_schedule_at(
            env._now + self.link.one_way_latency, nbytes, PRIORITY_URGENT
        )
        ack.callbacks.append(self._ack_cb)

    def _fp_teardown(self) -> None:
        """Cancel every scheduled fast-path event at ``close()``.

        All pre-scheduled boundary events die through the kernel's lazy
        tombstone mechanism (O(1) marks, dropped at pop or compaction).
        Armed writer wake-ups are re-pushed at the current time so blocked
        writers wake immediately — exactly when the slow path's
        ``buffer.close()`` would have woken them — and their stale
        ACK-time entries are tombstoned by ``_fp_wake_cb``.
        """
        env = self.env
        self._fp_active = False
        self.buffer.on_park = None
        if self._fp_tick is not None:
            env._cancel(self._fp_tick)
            self._fp_tick = None
        if self._fp_settle is not None:
            env._cancel(self._fp_settle)
            self._fp_settle = None
        for _end, ev, _transfer in self._fp_done_evs:
            if ev.callbacks is not None:
                env._cancel(ev)
        self._fp_done_evs.clear()
        self._fp_boundaries.clear()
        del self._fp_sends[:]
        del self._fp_delivs[:]
        del self._fp_acks[:]
        self._fp_sends_i = self._fp_delivs_i = self._fp_acks_i = 0
        self._fp_next = _INF
        armed = self._fp_armed
        if armed:
            now = env._now
            queue = env._queue
            eid = env._eid
            closing = self._fp_closing
            if closing is None:
                closing = self._fp_closing = set()
            for ev in armed:
                if ev.callbacks is not None:
                    closing.add(ev)
                    heappush(queue, (now, PRIORITY_NORMAL, next(eid), ev))
            armed.clear()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection.

        Pending requests and undelivered responses are dropped; any
        process blocked waiting for readability or buffer space is woken
        so it can observe the closed state and unwind (servers translate
        the subsequent :class:`ConnectionClosedError` into per-connection
        cleanup).  Idempotent.
        """
        if self.closed:
            return
        if self._fp_active:
            # Apply everything the slow path would have processed by now,
            # then drop the rest of the plan (post-close deliveries and
            # ACKs are dropped by the slow path too).
            self._fp_advance()
            self._fp_teardown()
        self.closed = True
        self.inbox.clear()
        self._transfers.clear()
        self._notify_readable()
        # Closing the buffer both wakes currently-blocked writers and makes
        # any *later* space waiter fire immediately — a closed buffer never
        # drains, so parking on it would deadlock.
        self.buffer.close()
        self.on_close.succeed()

    def _closed_error(self) -> ConnectionClosedError:
        """What an operation on this closed connection raises."""
        return ConnectionClosedError(f"connection #{self.id} is closed")

    def __repr__(self) -> str:
        return (
            f"<Connection #{self.id} buf={self.buffer.used}/{self.buffer.capacity} "
            f"cwnd={self._cwnd} inbox={len(self.inbox)}>"
        )
