"""The delivery core, and the deterministic discrete-event network on it.

Section 2.1 assumes a faulty process cannot impersonate a correct one;
here that is a per-pair HMAC on every delivery, and :class:`DeliveryCore`
keeps that contract once for every transport: node registration, the
link filters (``partition``/``heal``/``heal_all``), the per-node fault
table (``set_fault``, ``set_tampering``), sealing with a per-receiver
MAC, verification where a delivery lands, the delivered/dropped/rejected
counts on ``net_*_total{transport=…}`` registry children, the
``msg-drop``/``net-reject`` flight events and the ``statistics`` view.
A transport adds only how a sealed delivery travels and how its clock
moves: :class:`SimulatedNetwork` (here) draws seeded loss and latency and
keeps a ``(time, sequence)`` heap; :class:`~repro.net.transport.RealTransport`
hands deliveries to a reactor mailbox, or to TCP frames.  A payload a
*link* rewrites in flight is rejected by every receiver: the core never
forges a MAC.  A payload a faulty *node* rewrites is its own word and
verifies (see :mod:`repro.replication.adversary`).

The simulation's heap also carries *timer events*
(:meth:`SimulatedNetwork.schedule_at` / ``schedule_after``), interleaved
with deliveries in strict ``(time, sequence)`` order; the scenario engine
(:mod:`repro.sim`) and client retransmission are built on them.  One
thread drives everything, so the seed fixes the whole run.
:class:`SimulatedNetwork` is the reference implementation of
:class:`~repro.net.transport.Transport`; only it offers ``step``/
``run_until_time``/``advance_time`` and per-link loss
(``NetworkConfig.drop_probability``).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
import threading
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.errors import SimulationError
from repro.obs import resolve_obs
from repro.replication.adversary import ReplicaFaultMode
from repro.replication.crypto import KeyStore, MessageAuthenticator

__all__ = ["NetworkConfig", "Timer", "FaultRow", "DeliveryCore", "SimulatedNetwork"]


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


@dataclasses.dataclass(frozen=True)
class FaultRow:
    """One node's row of the fault table (a node without one is correct,
    on honest links); :mod:`repro.replication.adversary` names the presets."""

    mode: ReplicaFaultMode = ReplicaFaultMode.CORRECT
    #: The node's own word in place of each payload it sends: runs before
    #: the seal, so its lies verify; ``None`` means it never sent it.
    rewrite: Optional[Callable[[Any], Any]] = None
    #: The node's link corrupting each payload after the MAC: every
    #: receiver rejects it.
    tamper: Optional[Callable[[Any], Any]] = None
    #: Whether ``post`` runs the node's callbacks.
    posts: bool = True
    #: The node's own handler while a sink stands in for it.
    sunk: Optional[Callable[[Hashable, Any], None]] = None


_HONEST = FaultRow()


def _sink(sender: Hashable, payload: Any) -> None:
    """A crashed node's handler: a delivery lands and nothing handles it."""


class DeliveryCore:
    """What every transport does to a message besides moving it.

    A transport's ``send`` passes each delivery through :meth:`_seal`
    (the sender's rewrite, address check, link filters, per-receiver MAC,
    link tampering) and moves what comes out; where it lands,
    :meth:`_authentic` verifies it and :meth:`_hand_over` counts it and
    calls the receiver's handler, whose exceptions propagate — a reactor
    catches them, the simulation lets them reach the caller of ``step``.
    Subclasses provide ``send``, ``now``, ``post`` (which runs nothing for
    a node whose row holds its posts) and ``pending_count``.  A correct
    node pays one ``dict.get`` per send and per post for the fault table.
    """

    #: Names this transport's ``transport=`` label (and reactor threads).
    name: str

    def __init__(self, *, keystore: KeyStore | None, obs: Any) -> None:
        self._authenticator = MessageAuthenticator(keystore or KeyStore())
        self._handlers: dict[Hashable, Callable[[Hashable, Any], None]] = {}
        self._partitioned: set[frozenset[Hashable]] = set()
        #: The fault table: node → its row, for faulty nodes only.
        self._faults: dict[Hashable, FaultRow] = {}
        #: Guards every counter child: reactors and caller threads count
        #: concurrently, and ``inc`` is a read-modify-write.
        self._lock = threading.Lock()
        self.obs = resolve_obs(obs)
        # The core is the only component that can attribute a message
        # that never reached a handler.  Recording is strictly passive: it
        # consumes no randomness and schedules nothing.
        self._events = self.obs.events
        registry = self.obs.registry
        families = {  # ``statistics`` key → family
            "delivered": registry.counter("net_frames_delivered_total", "Verified and handled"),
            "dropped": registry.counter("net_frames_dropped_total", "Cut, lost or unreachable"),
            "rejected": registry.counter("net_mac_rejects_total", "Failed MAC/codec verification"),
            "timers_fired": registry.counter("net_timers_fired_total", "Timer callbacks run"),
            "handler_errors": registry.counter("net_handler_errors_total", "Caught on a reactor"),
            "frames_sent": registry.counter("net_frames_sent_total", "Sealed and dispatched"),
            "bytes_sent": registry.counter("net_bytes_sent_total", "Wire bytes written"),
            "bytes_received": registry.counter("net_bytes_received_total", "Wire bytes read"),
        }
        self._counters = {
            key: family.labels(transport=self.name) for key, family in families.items()
        }

    @property
    def authenticator(self) -> MessageAuthenticator:
        """The shared-key MAC scheme of this deployment, exposed for MACs a
        *third party* verifies later: the client MAC vector inside a request,
        which backups check when the primary relays it in a ``PRE-PREPARE``."""
        return self._authenticator

    # ------------------------------------------------------------------
    # Topology and fault filters
    # ------------------------------------------------------------------

    def register(self, node: Hashable, handler: Callable[[Hashable, Any], None]) -> None:
        """Attach ``node`` with its message handler."""
        if node in self._handlers:
            raise SimulationError(f"node {node!r} is already registered")
        # repro-lint: disable=RL006 — the node registry: one entry per
        # registered network identity, bounded by the deployment shape.
        self._handlers[node] = handler

    def nodes(self) -> tuple[Hashable, ...]:
        return tuple(self._handlers)

    def has_node(self, node: Hashable) -> bool:
        """Whether ``node`` is reachable (senders can probe before sending)."""
        return node in self._handlers

    def partition(self, a: Hashable, b: Hashable) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: Hashable, b: Hashable) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def set_fault(
        self,
        node: Hashable,
        mode: ReplicaFaultMode,
        *,
        rewrite: Optional[Callable[[Any], Any]],
        sink: bool,
        posts: bool,
    ) -> None:
        """Write the registered ``node``'s row of the fault table; its link
        tampering is kept.  :func:`repro.replication.adversary.set_fault`
        maps a :class:`ReplicaFaultMode` preset onto these levers."""
        row = self._faults.get(node, _HONEST)
        handler = row.sunk or self._handlers[node]
        self._handlers[node] = _sink if sink else handler
        sunk = handler if sink else None
        self._write_row(
            node,
            dataclasses.replace(row, mode=mode, rewrite=rewrite, posts=posts, sunk=sunk),
        )

    def fault_of(self, node: Hashable) -> ReplicaFaultMode:
        """The mode ``node``'s row names (``CORRECT`` without a row)."""
        return self._faults.get(node, _HONEST).mode

    def set_tampering(self, sender: Hashable, tamper: Callable[[Any], Any] | None) -> None:
        """Corrupt payloads sent by ``sender`` in flight (a Byzantine *link*).

        The tamper runs after the MAC was computed over the original
        payload, so every receiver detects and rejects the corruption; a
        node that lies in its own name is the row's ``rewrite`` instead.
        """
        row = self._faults.get(sender, _HONEST)
        self._write_row(sender, dataclasses.replace(row, tamper=tamper))

    def _write_row(self, node: Hashable, row: FaultRow) -> None:
        if row == _HONEST:
            self._faults.pop(node, None)
        else:
            # repro-lint: disable=RL006 — one row per faulty node, bounded
            # by the registered network identities.
            self._faults[node] = row

    def _posts_held(self, node: Hashable) -> bool:
        return not self._faults.get(node, _HONEST).posts

    # ------------------------------------------------------------------
    # The delivery path
    # ------------------------------------------------------------------

    def broadcast(self, sender: Hashable, receivers: Iterable[Hashable], payload: Any) -> None:
        """Send ``payload`` to every receiver (independent deliveries)."""
        for receiver in receivers:
            if receiver != sender:
                self.send(sender, receiver, payload)

    def _lost(self) -> bool:
        """Whether a lossy link swallows the next delivery (the sim's draw)."""
        return False

    def _covered(self, payload: Any) -> Any:
        """What the MAC covers: the object itself, or its wire bytes."""
        return payload

    def _seal(
        self, sender: Hashable, receiver: Hashable, payload: Any
    ) -> Optional[tuple[Any, str, Optional[bytes]]]:
        """Admit one delivery and seal it, or ``None`` once it is dropped.

        The sender's own rewrite runs first: what it returns is sealed and
        verifies, and ``None`` leaves no trace at all.  Returns the payload
        as it travels (rewritten again when the sender's link tampers),
        its MAC, and the canonical bytes the MAC covers (``None`` for a
        tampered payload: its receivers serialise what they are handed).
        """
        row = self._faults.get(sender)
        if row is not None and row.rewrite is not None:
            payload = row.rewrite(payload)
            if payload is None:
                return None
        if not self.has_node(receiver):
            raise SimulationError(f"unknown receiver {receiver!r}")
        if self._partitioned and frozenset((sender, receiver)) in self._partitioned:
            self._drop(sender, receiver, "partitioned", payload)
            return None
        if self._lost():
            self._drop(sender, receiver, "lossy-link", payload)
            return None
        covered = self._covered(payload)
        mac = self._authenticator.mac(sender, receiver, covered)
        sealed = self._authenticator.sealed_bytes(covered)
        if row is not None and row.tamper is not None:
            payload, sealed = row.tamper(payload), None
        self._count("frames_sent")
        return payload, mac, sealed

    def _authentic(
        self,
        sender: Hashable,
        receiver: Hashable,
        covered: Any,
        mac: Any,
        sealed: Optional[bytes] = None,
    ) -> bool:
        """Verify a delivery where it lands; a forgery is counted and recorded."""
        if self._authenticator.verify(sender, receiver, covered, mac, sealed):
            return True
        self._reject(receiver, "bad-mac", sender, covered)
        return False

    def _hand_over(self, sender: Hashable, receiver: Hashable, payload: Any) -> None:
        """Count a verified delivery and run the receiver's handler."""
        self._count("delivered")
        self._handlers[receiver](sender, payload)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counters[key].inc(amount)

    def _drop(self, sender: Hashable, receiver: Hashable, reason: str, payload: Any) -> None:
        self._refuse("dropped", "msg-drop", sender, reason, payload, receiver=str(receiver))

    def _reject(
        self, receiver: Hashable, reason: str, sender: Hashable = None, payload: Any = None
    ) -> None:
        """Refuse a delivery at ``receiver`` (``sender`` and ``payload``
        are ``None`` when the frame never decoded)."""
        self._refuse("rejected", "net-reject", receiver, reason, payload, sender=str(sender))

    def _refuse(
        self, key: str, kind: str, node: Hashable, reason: str, payload: Any, **peer: str
    ) -> None:
        """Count a delivery no handler will see, and record why."""
        self._count(key)
        if self._events.enabled:
            self._events.record(
                kind, node, self.now, **peer, reason=reason, type=type(payload).__name__
            )

    @property
    def statistics(self) -> dict[str, float]:
        """A view over the registry children (and the clock and queue)."""
        with self._lock:
            counts = {key: int(child.value) for key, child in self._counters.items()}
        return {"now": self.now, **counts, "pending": self.pending_count}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(now={self.now:.3f}, nodes={len(self._handlers)}, "
            f"pending={self.pending_count}, delivered={self.statistics['delivered']})"
        )


class SimulatedNetwork(DeliveryCore):
    """Discrete-event network with authenticated point-to-point channels."""

    #: Protocol markers (see :class:`repro.net.transport.Transport`): this
    #: transport's clock is virtual and single-threaded.
    virtual_time = True
    time_unit = "virtual ms"
    #: How long a replica lets a buffered request wait before it votes the
    #: primary out, in this clock's ms (every node's default).
    view_change_timeout = 50.0
    #: One event loop — the caller's thread (see ``pin``/``post``/``close``).
    reactor_count = 1
    name = "sim"

    def __init__(
        self,
        config: NetworkConfig | None = None,
        *,
        keystore: KeyStore | None = None,
        obs: Any = None,
    ) -> None:
        super().__init__(keystore=keystore, obs=obs)
        self._config = config or NetworkConfig()
        self._rng = random.Random(self._config.seed)
        #: ``(time, sequence, event)``: a :class:`Timer`, or a delivery
        #: ``(sender, receiver, payload, mac, sealed)`` as :meth:`_seal` made it.
        self._queue: list[tuple[float, int, Any]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        # Per-receiver serialisation horizon (only used when the config's
        # processing_time is positive).
        self._busy_until: dict[Hashable, float] = {}

    #: Defined on this class too: the benchmark ladder wraps ``register``
    #: by name on each transport class.
    register = DeliveryCore.register

    def pin(self, node: Hashable, reactor: int) -> None:
        """No-op: every node shares the simulation's single loop."""

    def post(self, node: Hashable, callback: Callable[[], None]) -> None:
        """Run ``callback()`` now: the caller already is the event loop."""
        if not self._posts_held(node):
            callback()

    def close(self) -> None:
        """No-op: the simulation holds no threads or sockets."""

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds)."""
        return self._now

    def _lost(self) -> bool:
        probability = self._config.drop_probability
        return bool(probability) and self._rng.random() < probability

    def send(self, sender: Hashable, receiver: Hashable, payload: Any) -> None:
        """Schedule the authenticated delivery of ``payload``."""
        sealed = self._seal(sender, receiver, payload)
        if sealed is None:
            return
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
        heapq.heappush(
            self._queue, (deliver_at, next(self._sequence), (sender, receiver, *sealed))
        )

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
        timers are consumed without advancing the clock.  Exceptions from
        a handler or timer propagate to the caller: there is no reactor
        to protect, so none is ever swallowed (``handler_errors`` stays 0).
        """
        if not self._queue:
            return False
        deliver_at, _, item = heapq.heappop(self._queue)
        timer = isinstance(item, Timer)
        if timer and item.cancelled:
            return True
        self._now = max(self._now, deliver_at)
        if timer:
            self._count("timers_fired")
            item.callback()
        elif self._authentic(*item):
            self._hand_over(*item[:3])
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

    def run_until(self, condition: Callable[[], bool], *, max_events: int = 1_000_000) -> bool:
        """Pump events until ``condition()`` holds or the queue drains."""
        events = 0
        while not condition():
            if not self.step():
                return condition()
            events += 1
            if events > max_events:
                raise SimulationError(f"condition not reached after {max_events} events")
        return True

    def settle(self, future: Any, timeout: float | None = None) -> bool:
        """Pump events until ``future`` resolves (its own timers bound it)."""
        return self.run_until(lambda: future.done)

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

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    @property
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next queued event, or ``None`` when idle."""
        return self._queue[0][0] if self._queue else None
