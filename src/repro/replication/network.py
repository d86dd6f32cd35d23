"""A deterministic discrete-event message-passing network.

The network is the asynchronous substrate of the Fig. 2 deployment.  Nodes
(replicas and clients) register a handler; ``send``/``broadcast`` schedule
deliveries at a future simulated time drawn from a seeded latency
distribution, and :meth:`SimulatedNetwork.run` pumps the event queue.

Fault injection hooks:

* per-link drop probability (lossy channels);
* partitions (pairs of nodes that temporarily cannot talk);
* Byzantine senders may ask the network to tamper with a payload *en
  route*, but the authenticated envelope means the receiver will reject it
  — the network itself never forges MACs, mirroring the assumption that a
  faulty process cannot impersonate a correct one.

Besides messages, the queue carries *timer events*
(:meth:`SimulatedNetwork.schedule_after` / :meth:`~SimulatedNetwork.
schedule_at`): callbacks that fire at a chosen virtual time, interleaved
with deliveries in strict ``(time, sequence)`` order.  Timers are what the
scenario engine (:mod:`repro.sim`) and the non-blocking client
retransmission path are built on.

Everything is driven by one thread; determinism comes from the seeded RNG
and the strict ``(time, sequence)`` ordering of the event queue.

This class is the reference implementation of the
:class:`~repro.net.transport.Transport` protocol — the contract the
whole replication stack (ordering nodes, clients, cluster, unified API)
is written against.  The real-concurrency implementations live in
:mod:`repro.net` (asyncio loopback and TCP); they share this surface but
run on wall-clock time, so only the simulation offers ``step``/
``run_until_time``/``advance_time`` and the fault-injection hooks.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.errors import SimulationError
from repro.obs.flight import NULL_FLIGHT
from repro.replication.crypto import KeyStore, MessageAuthenticator

__all__ = ["NetworkConfig", "Envelope", "Timer", "SimulatedNetwork"]


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Tunable parameters of the simulated network."""

    #: Mean one-way latency (simulated milliseconds).
    mean_latency: float = 1.0
    #: Latency jitter: each delivery adds U(0, jitter).
    jitter: float = 0.5
    #: Probability that a message is silently dropped.
    drop_probability: float = 0.0
    #: RNG seed (determinism).
    seed: int = 42
    #: Per-message processing cost at the receiver (simulated ms).  When
    #: positive, each node handles messages serially: a delivery waits for
    #: the receiver to finish its previous message, then occupies it for
    #: ``processing_time``.  This models the CPU cost of authenticating and
    #: handling one message — the resource that request batching amortises.
    #: The default of 0 keeps the latency-only model (no serialisation);
    #: 0.2 is the value fitted to the asyncio loopback's measured
    #: throughput, and the one the benchmark of record's sims inject.
    processing_time: float = 0.0


@dataclasses.dataclass(frozen=True)
class Envelope:
    """An authenticated message in flight.

    ``sealed`` is the canonical bytes the sender's MAC was computed over,
    carried beside the very object they were computed from so the
    receiver MACs them instead of re-serialising it; ``None`` when the
    payload was rewritten in flight (see
    :mod:`repro.replication.crypto`).
    """

    sender: Hashable
    receiver: Hashable
    payload: Any
    mac: str
    sealed: Optional[bytes] = None


class Timer:
    """A cancellable virtual-time callback scheduled on the network.

    Returned by :meth:`SimulatedNetwork.schedule_at` and
    :meth:`SimulatedNetwork.schedule_after`.  Cancelled timers stay in the
    event queue but are skipped (without advancing time) when popped.
    """

    __slots__ = ("when", "callback", "cancelled")

    def __init__(self, when: float, callback: Callable[[], None]) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"Timer(when={self.when:.3f}, {state})"


class SimulatedNetwork:
    """Discrete-event network with authenticated point-to-point channels."""

    #: Protocol markers (see :class:`repro.net.transport.Transport`): this
    #: transport's clock is virtual and single-threaded.
    virtual_time = True
    time_unit = "virtual ms"
    #: One event loop — the caller's thread (see ``pin``/``post``/``close``).
    reactor_count = 1

    def __init__(self, config: NetworkConfig | None = None, *, keystore: KeyStore | None = None) -> None:
        self._config = config or NetworkConfig()
        self._rng = random.Random(self._config.seed)
        self._authenticator = MessageAuthenticator(keystore or KeyStore())
        self._handlers: dict[Hashable, Callable[[Hashable, Any], None]] = {}
        self._queue: list[tuple[float, int, Envelope | Timer]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._partitioned: set[frozenset[Hashable]] = set()
        self._delivered = 0
        self._dropped = 0
        self._rejected = 0
        self._timers_fired = 0
        self._in_flight_tamper: dict[Hashable, Callable[[Any], Any]] = {}
        # Per-receiver serialisation horizon (only used when the config's
        # processing_time is positive).
        self._busy_until: dict[Hashable, float] = {}
        # Flight recorder for drop/reject accounting (attach_flight); the
        # network is the only component that can attribute a message that
        # never reached a handler.  Strictly passive: recording consumes
        # no randomness and schedules nothing.
        self._flight = NULL_FLIGHT

    def attach_flight(self, flight: Any) -> None:
        """Record message drops/rejects into ``flight`` (see repro.obs)."""
        self._flight = flight

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    @property
    def authenticator(self) -> MessageAuthenticator:
        """The shared-key MAC scheme of this deployment.

        Exposed so principals can compute MACs a *third party* will verify
        later — e.g. the client MAC vector carried inside a request, which
        backup replicas check when the primary relays the request in a
        ``PRE-PREPARE`` batch (the per-envelope MAC only authenticates the
        immediate link, not the original author).
        """
        return self._authenticator

    def register(self, node: Hashable, handler: Callable[[Hashable, Any], None]) -> None:
        """Attach ``node`` to the network with its message handler."""
        if node in self._handlers:
            raise SimulationError(f"node {node!r} is already registered")
        # repro-lint: disable=RL006 — the node registry: one entry per
        # registered network identity, bounded by the deployment shape.
        self._handlers[node] = handler

    def nodes(self) -> tuple[Hashable, ...]:
        return tuple(self._handlers)

    def has_node(self, node: Hashable) -> bool:
        """Whether ``node`` is registered (senders can probe before sending)."""
        return node in self._handlers

    def pin(self, node: Hashable, reactor: int) -> None:
        """No-op: every node shares the simulation's single loop."""

    def post(self, node: Hashable, callback: Callable[[], None]) -> None:
        """Run ``callback()`` now: the caller already is the event loop."""
        callback()

    def close(self) -> None:
        """No-op: the simulation holds no threads or sockets."""

    def partition(self, a: Hashable, b: Hashable) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: Hashable, b: Hashable) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def set_tampering(self, sender: Hashable, tamper: Callable[[Any], Any] | None) -> None:
        """Corrupt payloads sent by ``sender`` in flight (Byzantine link).

        The MAC is computed over the original payload, so receivers detect
        and reject the corruption; the hook exists to exercise that path.
        """
        if tamper is None:
            self._in_flight_tamper.pop(sender, None)
        else:
            self._in_flight_tamper[sender] = tamper

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds)."""
        return self._now

    def send(self, sender: Hashable, receiver: Hashable, payload: Any) -> None:
        """Schedule the authenticated delivery of ``payload``."""
        if receiver not in self._handlers:
            raise SimulationError(f"unknown receiver {receiver!r}")
        if frozenset((sender, receiver)) in self._partitioned:
            self._dropped += 1
            if self._flight.enabled:
                self._flight.record(
                    "msg-drop",
                    sender,
                    self._now,
                    receiver=str(receiver),
                    reason="partitioned",
                    type=type(payload).__name__,
                )
            return
        if self._config.drop_probability and self._rng.random() < self._config.drop_probability:
            self._dropped += 1
            if self._flight.enabled:
                self._flight.record(
                    "msg-drop",
                    sender,
                    self._now,
                    receiver=str(receiver),
                    reason="lossy-link",
                    type=type(payload).__name__,
                )
            return
        mac = self._authenticator.mac(sender, receiver, payload)
        sealed = self._authenticator.sealed_bytes(payload)
        if sender in self._in_flight_tamper:
            # The sealed bytes describe the sender's object, not the
            # rewrite: receivers must serialise what they are handed.
            payload = self._in_flight_tamper[sender](payload)
            sealed = None
        latency = self._config.mean_latency + self._rng.uniform(0, self._config.jitter)
        deliver_at = self._now + max(latency, 0.001)
        if self._config.processing_time > 0:
            # The receiver handles messages one at a time: this delivery
            # completes only after the receiver has finished everything
            # sent to it earlier, plus its own processing cost.
            deliver_at = (
                max(deliver_at, self._busy_until.get(receiver, 0.0))
                + self._config.processing_time
            )
            # repro-lint: disable=RL006 — keyed by receiver node id, so at
            # most one float per registered network identity.
            self._busy_until[receiver] = deliver_at
        envelope = Envelope(sender, receiver, payload, mac, sealed)
        heapq.heappush(self._queue, (deliver_at, next(self._sequence), envelope))

    def broadcast(self, sender: Hashable, receivers: Iterable[Hashable], payload: Any) -> None:
        """Send ``payload`` to every receiver (independent deliveries)."""
        for receiver in receivers:
            if receiver != sender:
                self.send(sender, receiver, payload)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback()`` to fire at virtual time ``when``.

        Times in the past are clamped to *now*.  Returns a cancellable
        :class:`Timer`.
        """
        timer = Timer(max(when, self._now), callback)
        heapq.heappush(self._queue, (timer.when, next(self._sequence), timer))
        return timer

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback()`` to fire ``delay`` virtual ms from now."""
        if delay < 0:
            raise SimulationError("timer delay cannot be negative")
        return self.schedule_at(self._now + delay, callback)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Process the next scheduled event; returns False when idle.

        An event is either a message delivery or a timer firing; cancelled
        timers are consumed without advancing the clock.
        """
        if not self._queue:
            return False
        deliver_at, _, item = heapq.heappop(self._queue)
        if isinstance(item, Timer):
            if item.cancelled:
                return True
            self._now = max(self._now, deliver_at)
            self._timers_fired += 1
            item.callback()
            return True
        envelope = item
        self._now = max(self._now, deliver_at)
        handler = self._handlers.get(envelope.receiver)
        if handler is None:
            self._dropped += 1
            return True
        if not self._authenticator.verify(
            envelope.sender, envelope.receiver, envelope.payload, envelope.mac, envelope.sealed
        ):
            self._rejected += 1
            if self._flight.enabled:
                self._flight.record(
                    "net-reject",
                    envelope.receiver,
                    self._now,
                    sender=str(envelope.sender),
                    reason="bad-mac",
                    type=type(envelope.payload).__name__,
                )
            return True
        self._delivered += 1
        handler(envelope.sender, envelope.payload)
        return True

    def run(self, *, max_events: int = 1_000_000) -> int:
        """Pump events until the queue drains; returns the number delivered."""
        events = 0
        while self.step():
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"network did not quiesce after {max_events} events (livelock?)"
                )
        return events

    def run_until(
        self, condition: Callable[[], bool], *, max_events: int = 1_000_000
    ) -> bool:
        """Pump events until ``condition()`` holds or the queue drains."""
        events = 0
        while not condition():
            if not self.step():
                return condition()
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"condition not reached after {max_events} events"
                )
        return True

    def run_until_time(self, deadline: float, *, max_events: int = 1_000_000) -> int:
        """Process every event scheduled up to ``deadline``, then advance to it.

        The clock ends exactly at ``deadline`` (or stays put if it is in the
        past); events scheduled later stay queued.  Returns the number of
        events processed.
        """
        events = 0
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"more than {max_events} events before time {deadline} (livelock?)"
                )
        self._now = max(self._now, deadline)
        return events

    def run_for(self, duration: float, *, max_events: int = 1_000_000) -> int:
        """Process events for ``duration`` virtual ms (see :meth:`run_until_time`)."""
        if duration < 0:
            raise SimulationError("duration cannot be negative")
        return self.run_until_time(self._now + duration, max_events=max_events)

    def advance_time(self, delta: float) -> None:
        """Advance the simulated clock without delivering anything.

        Used to trigger timeout-driven behaviour (view changes) when the
        network is otherwise idle.
        """
        if delta < 0:
            raise SimulationError("time cannot move backwards")
        self._now += delta

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def statistics(self) -> dict[str, float]:
        return {
            "now": self._now,
            "delivered": self._delivered,
            "dropped": self._dropped,
            "rejected": self._rejected,
            "timers_fired": self._timers_fired,
            # Handler exceptions propagate to the caller here (there is no
            # reactor to protect), so none is ever swallowed and counted.
            "handler_errors": 0,
            "pending": len(self._queue),
        }

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    @property
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next queued event, or ``None`` when idle."""
        return self._queue[0][0] if self._queue else None

    def __repr__(self) -> str:
        return (
            f"SimulatedNetwork(now={self._now:.3f}, pending={len(self._queue)}, "
            f"delivered={self._delivered})"
        )
