"""The client-side proxy of the replicated PEATS.

A client broadcasts its request to every replica and accepts a result
under one of two rules:

* **Ordered path, ``f + 1``.**  Replicas order the request and execute
  it; with at most ``f`` faulty replicas one of ``f + 1`` matching
  replies comes from a correct replica, and correct replicas execute the
  same requests in the same order, so the matched value is the correct
  result.  This is the "basic voting protocol" of Section 4.
* **Read-only lane, ``2f + 1``.**  Every ``rdp`` is first sent flagged
  ``read_only`` (Castro–Liskov §5.1.3): each replica answers it from its
  executed state without ordering it, and the client needs ``2f + 1``
  matching replies.  A replica answers only once it has executed every
  sequence it ever sent a COMMIT for (its *commit frontier*), and holds
  the read until then.  That hold keeps the lane linearizable: a
  completed write W has ``f + 1`` replies, so at least one correct
  replica executed W.  That replica holds a commit certificate, so at
  least ``f + 1`` correct replicas sent COMMIT for W, and with the hold
  they cannot answer from a state before W.  At most ``f`` correct
  replicas plus ``f`` Byzantine ones remain, and ``2f < 2f + 1``.

  When the lane's tally reports that ``2f + 1`` can no longer agree
  (replies that disagree — a read racing a write, not divergence), or
  at the first retransmission timeout, the client falls back: it
  re-issues the read as an ordered ``rdp`` under the request id the
  lane read reserved, voted in a fresh ``f + 1`` tally, so no lane
  reply ever votes in the ordered round.

Every acceptance on this side is one :class:`~repro.replication.tally.
Tally` vote: a :class:`PendingRequest` holds one for its replies, an armed
:class:`~repro.notify.ClientWaiter` one for its ``Notify`` pushes, and a
cross-shard transaction (:mod:`repro.txn`) one per group it needs a push
certificate from — the client only forwards its pushes, by ``txn_id``.

The request path is *continuation-style*: :meth:`PEATSClient.submit`
broadcasts the request and returns a :class:`PendingRequest` immediately;
the vote is checked as replies arrive and completion callbacks fire inside
the network's event loop.  A retransmission timer (scheduled on the
network's virtual clock) re-broadcasts the request and nudges the
replicas' view-change timers whenever the reply vote has not succeeded in
time — exactly what a real client's retransmission timer achieves.  Many
requests from many clients can therefore be in flight concurrently, which
is what the :mod:`repro.sim` scenario engine builds on.

The synchronous :meth:`PEATSClient.invoke` is a thin wrapper: submit, then
pump the network until the request completes.

Like PBFT, the replicas keep only the *last* request id and reply per
client, so a replica group must see at most one request of a client
identity at a time: a later request that overtook an earlier one on the
network would make the earlier one stale for good.  The client enforces
this itself.  It keeps at most one request in flight per replica group
(keyed by the request's ``targets``); later submissions to the same group
wait in FIFO order and are broadcast as the one ahead of them resolves.
Requests to disjoint groups — a sharded client's scatter-gather probes —
still travel in parallel.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Hashable, Iterable, Optional, TYPE_CHECKING

from repro.errors import QuorumError
from repro.futures import OperationFuture
from repro.notify import ClientWaiter
from repro.obs import resolve_obs
from repro.replication.messages import (
    CancelWaiter,
    ClientReply,
    ClientRequest,
    Notify,
    RegisterWaiter,
    TxnAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
    authenticate_request,
)
from repro.replication.tally import ForgedVote, Tally

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport

__all__ = [
    "PendingRequest",
    "PEATSClient",
    "summed_statistics",
    "PUSH_TYPES",
]

#: The replica→client pushes: notify wake-ups and the transaction commit
#: protocol's owner-addressed leg.
PUSH_TYPES = (Notify, TxnPrepare, TxnVote, TxnDecision, TxnAck)


class PendingRequest(OperationFuture):
    """A request in flight: a future resolved by its reply vote.

    Created by :meth:`PEATSClient.submit`.  The future mechanics (result,
    exception, latency, completion callbacks) come from the backend-agnostic
    :class:`~repro.futures.OperationFuture`; this subclass adds what only
    the networked request path needs — the authenticated request itself,
    its target replica group, the tally its replies vote in, and the
    retransmission timer.  Completion callbacks fire (synchronously, inside
    the network event loop) when the vote succeeds or the request is
    abandoned after too many retransmissions.
    """

    __slots__ = ("request", "attempts", "targets", "tally", "_timer")

    def __init__(
        self,
        request: ClientRequest,
        submitted_at: float,
        *,
        targets: tuple[Hashable, ...],
        threshold: int,
    ) -> None:
        super().__init__(
            operation=request.operation,
            submitted_at=submitted_at,
            request_id=request.request_id,
        )
        self.request = request
        self.attempts = 0
        #: The replica group this request was addressed (and retransmitted) to.
        self.targets = targets
        #: Only ``targets`` vote on the result (``f + 1`` of them, or
        #: ``2f + 1`` on the read-only lane): f Byzantine replicas *per
        #: group* of a sharded cluster must not pool replies across groups
        #: into a quorum for a request their own group never executed.
        self.tally = Tally(targets, threshold)
        #: The armed retransmission timer — a cancellable handle from
        #: whichever transport carries the request (the simulation's
        #: ``Timer`` or a real transport's ``NetTimer``).
        self._timer: Optional[Any] = None

    @property
    def key(self) -> tuple:
        return self.request.key

    def _complete(self, now: float, result: Any = None, exception: BaseException | None = None) -> None:
        if not self.done and self._timer is not None:
            self._timer.cancel()
            self._timer = None
        super()._complete(now, result=result, exception=exception)

    def __repr__(self) -> str:
        state = "done" if self.done else "in-flight"
        return f"PendingRequest(key={self.key!r}, {state}, attempts={self.attempts})"


class PEATSClient:
    """One authenticated client identity of the replicated PEATS."""

    #: Retransmission backoff (transport ms): first retry after
    #: ``RETRANSMIT_INTERVAL``, each later one ``RETRANSMIT_BACKOFF`` times
    #: longer, capped at ``MAX_RETRANSMIT_INTERVAL``.
    RETRANSMIT_INTERVAL = 100.0
    RETRANSMIT_BACKOFF = 2.0
    MAX_RETRANSMIT_INTERVAL = 1600.0

    def __init__(
        self,
        client_id: Hashable,
        replica_ids: tuple[Hashable, ...],
        f: int,
        network: "Transport",
        *,
        nudge_timeouts: Any = None,
        max_retransmissions: int = 20,
        obs: Any = None,
    ) -> None:
        self.client_id = client_id
        self.replica_ids = tuple(replica_ids)
        self.f = f
        self.network = network
        self._next_request_id = 0
        # Request-id minting must be atomic: on a real transport a probe
        # chain can call submit() on a reactor thread while the caller's
        # thread submits through the same client identity.  Two requests
        # sharing one id would collide on the pending key (one future
        # never resolves) and defeat the replicas' per-client dedup.
        self._mint_lock = threading.Lock()
        self._pending: dict[tuple, PendingRequest] = {}
        # Per replica group, the request in flight (head) and the ones
        # waiting behind it, in submission order.  Guarded by _mint_lock:
        # a reactor thread frees a slot while the caller's thread submits.
        self._queues: dict[tuple[Hashable, ...], deque[PendingRequest]] = {}
        self._nudge_timeouts = nudge_timeouts
        self._max_retransmissions = max_retransmissions
        self.obs = resolve_obs(obs)
        registry = self.obs.registry
        self._events = self.obs.events
        client = str(client_id)
        self._obs_requests = registry.counter(
            "client_requests_total", "Requests submitted by replicated-PEATS clients"
        ).labels(client=client)
        self._obs_retransmissions = registry.counter(
            "client_retransmissions_total", "Request re-broadcasts after a stalled vote"
        ).labels(client=client)
        self._obs_mismatched_replies = registry.counter(
            "client_mismatched_replies_total",
            "Reply sets complete without an f+1 matching vote, and replies "
            "whose result did not hash to the digest they claimed",
        ).labels(client=client)
        self._obs_quorum_failures = registry.counter(
            "client_quorum_failures_total", "Requests abandoned without an f+1 reply vote"
        ).labels(client=client)
        self._obs_read_only = registry.counter(
            "client_read_only_total", "Reads sent down the read-only lane"
        ).labels(client=client)
        self._obs_read_only_fallbacks = registry.counter(
            "client_read_only_fallbacks_total",
            "Lane reads re-issued on the ordered path without a 2f+1 vote",
        ).labels(client=client)
        self._obs_wake_latency = registry.histogram(
            "notify_wake_latency",
            "Delay from arming a waiter to its first f+1-voted wake-up",
            buckets=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
        ).labels()
        # Armed waiters by id: soft client state mirroring the replicas'
        # waiter tables (repro.notify).
        self._waiters: dict[int, ClientWaiter] = {}
        self._next_waiter_id = 0
        # Cross-shard transactions in flight, by txn_id; each votes its
        # own pushes.
        self._txn_watchers: dict[tuple, Callable[[Hashable, Any], None]] = {}
        self._next_txn_seq = 0
        network.register(self._address, self._on_message)

    @property
    def _address(self) -> Hashable:
        # The client is registered on the network under its own identity:
        # replicas address their replies to ``request.client``, and the
        # reference monitor sees the same identifier — the authenticated
        # channel ties the two together.
        return self.client_id

    @property
    def statistics(self) -> dict[str, int]:
        return {
            "requests": int(self._obs_requests.value),
            "retransmissions": int(self._obs_retransmissions.value),
            "mismatched_replies": int(self._obs_mismatched_replies.value),
            "quorum_failures": int(self._obs_quorum_failures.value),
            "read_only": int(self._obs_read_only.value),
            "read_only_fallbacks": int(self._obs_read_only_fallbacks.value),
        }

    @property
    def pending_requests(self) -> tuple[PendingRequest, ...]:
        return tuple(self._pending.values())

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------

    def _on_message(self, sender: Hashable, payload: Any) -> None:
        # A replica may only speak for itself on its authenticated link.
        if isinstance(payload, PUSH_TYPES):
            if payload.replica == sender and payload.client == self.client_id:
                self._on_push(sender, payload)
            return
        if not isinstance(payload, ClientReply) or payload.replica != sender:
            return
        pending = self._pending.get(payload.request_key)
        if pending is None:
            # Stale reply for a request already resolved (or never issued).
            return
        try:
            voted = pending.tally.vote(sender, payload.result, claimed=payload.result_digest)
        except ForgedVote:
            # A result that does not hash to its claim is a lie: never
            # counted, never returned, however early it arrived.
            self._record_mismatch(pending)
            return
        if voted is not None:
            self._resolve(pending, voted[0])
        elif pending.request.read_only:
            # Replies that disagree on the lane are a read racing a write,
            # not divergence: re-ask on the ordered path.
            if not pending.tally.reachable():
                self._fall_back(pending)
        elif pending.tally.ballots() >= len(pending.targets):
            self._record_mismatch(pending)

    def _on_push(self, sender: Hashable, push: Any) -> None:
        """Vote a ``Notify`` in its waiter's tally (one round per inserted
        entry: one request may insert several that match) and fire the
        waiter's callback on f+1 votes.  Forward a
        transaction push to the transaction watching its ``txn_id``,
        which votes it in the tally of the group that must have sent it —
        this is how an owner learns of a decision a stranger resolved
        while its own commit was idle."""
        if not isinstance(push, Notify):
            if isinstance(push.txn_id, tuple):
                watcher = self._txn_watchers.get(push.txn_id)
                if watcher is not None:
                    watcher(sender, push)
            return
        waiter = self._waiters.get(push.waiter_id)
        if waiter is None:
            # Stale push for a waiter already cancelled (or never armed).
            return
        try:
            voted = waiter.tally.vote(
                sender,
                push.entry,
                claimed=push.entry_digest,
                round_key=(push.event, push.entry_digest),
            )
        except ForgedVote:
            return
        if voted is None:
            return
        if not waiter.woken:
            waiter.woken = True
            self._obs_wake_latency.observe(self.network.now - waiter.armed_at)
        waiter.on_event(voted[0], push.event)

    def mint_txn_id(self) -> tuple:
        """A fresh ``(client_id, seq)`` transaction identity.

        Sequence numbers are minted under the same lock as request ids —
        a retried cross-shard transaction is a *new* transaction to every
        replica table, so ids must never repeat within a client identity.
        """
        with self._mint_lock:
            seq = self._next_txn_seq
            self._next_txn_seq += 1
        return (self.client_id, seq)

    def watch_txn(
        self, txn_id: tuple, on_push: Callable[[Hashable, Any], None]
    ) -> None:
        """Fire ``on_push(sender, payload)`` for each push of ``txn_id``."""
        self._txn_watchers[txn_id] = on_push

    def unwatch_txn(self, txn_id: tuple) -> None:
        self._txn_watchers.pop(txn_id, None)

    def _record_mismatch(self, pending: PendingRequest) -> None:
        self._obs_mismatched_replies.inc()
        if self._events.enabled:
            self._events.record(
                "reply-mismatch",
                self.client_id,
                self.network.now,
                key=pending.key,
                replies=pending.tally.ballots(),
            )

    def _resolve(self, pending: PendingRequest, result: Any) -> None:
        self._release(pending)
        if self._events.enabled:
            self._events.record(
                "complete", self.client_id, self.network.now, key=pending.key
            )
        pending._complete(self.network.now, result=result)

    def _fail(self, pending: PendingRequest, exception: BaseException) -> None:
        self._release(pending)
        pending._complete(self.network.now, exception=exception)

    def _release(self, pending: PendingRequest) -> None:
        """Free ``pending``'s group slot and send the next request waiting
        for it.  Runs before ``pending``'s completion callbacks, so a
        closed-loop caller that submits from a callback finds the slot
        free — or queues behind a request submitted earlier."""
        self._pending.pop(pending.key, None)
        with self._mint_lock:
            queue = self._queues[pending.targets]
            held_slot = queue[0] is pending
            queue.remove(pending)
            following = queue[0] if held_slot and queue else None
            if not queue:
                del self._queues[pending.targets]
        if following is not None:
            self._send(following)

    def _fall_back(self, pending: PendingRequest) -> None:
        """Re-issue a lane read as an ordered ``rdp`` under the id it
        reserved, voted in a fresh ``f + 1`` tally: no lane reply can
        vote in the ordered round."""
        self._obs_read_only_fallbacks.inc()
        if pending._timer is not None:
            pending._timer.cancel()
        lane = pending.request
        request = ClientRequest(
            client=self.client_id,
            request_id=lane.request_id + 1,
            operation=lane.operation,
            arguments=lane.arguments,
        )
        pending.request = authenticate_request(
            request, self.network.authenticator, pending.targets
        )
        pending.tally = Tally(pending.targets, self.f + 1)
        self._pending.pop(lane.key, None)
        self._pending[pending.key] = pending
        if self._events.enabled:
            self._events.record(
                "submit",
                self.client_id,
                self.network.now,
                key=pending.key,
                operation=lane.operation,
            )
        self._send(pending)

    def _retransmit(self, request_key: tuple) -> None:
        pending = self._pending.get(request_key)
        if pending is None or pending.done:
            return
        if pending.request.read_only:
            self._fall_back(pending)
            return
        pending.attempts += 1
        if pending.attempts > self._max_retransmissions:
            self._obs_quorum_failures.inc()
            if self._events.enabled:
                self._events.record(
                    "quorum-failure",
                    self.client_id,
                    self.network.now,
                    key=request_key,
                    attempts=pending.attempts,
                )
            self._fail(
                pending,
                QuorumError(
                    f"no f+1 matching replies for request {request_key} after "
                    f"{pending.attempts} retransmissions"
                ),
            )
            return
        # The vote has not succeeded within the retransmission interval:
        # nudge the replicas' view-change timers (virtual time has already
        # advanced to this timer's firing point) and retransmit.
        self._obs_retransmissions.inc()
        if self._nudge_timeouts is not None:
            self._nudge_timeouts()
        self.network.broadcast(self._address, pending.targets, pending.request)
        pending._timer = self.network.schedule_after(
            self._retransmit_delay(pending.attempts), lambda: self._retransmit(request_key)
        )

    def _retransmit_delay(self, attempts: int) -> float:
        """Exponential backoff with a cap: ``base * backoff**attempts``.

        A fixed retransmission interval amplifies view-change storms — every
        stalled client re-broadcasts (and nudges the replicas' view-change
        timers) at full rate exactly when the replicas are busy electing a
        primary.  Backing off lets the protocol settle while still
        guaranteeing the request is eventually retried.
        """
        return min(
            self.RETRANSMIT_INTERVAL * (self.RETRANSMIT_BACKOFF ** attempts),
            self.MAX_RETRANSMIT_INTERVAL,
        )

    # ------------------------------------------------------------------
    # Waiter channel (repro.notify)
    # ------------------------------------------------------------------

    def arm_waiter(
        self,
        template: Any,
        operation: str,
        on_event: Callable[[Any, tuple], None],
        *,
        replica_ids: tuple[Hashable, ...] | None = None,
    ) -> ClientWaiter:
        """Register a per-template wake-up on every target replica.

        ``on_event(entry, event)`` fires inside the network event loop the
        first time ``f + 1`` distinct replicas push matching notifications
        for one insert (and again for every later insert — waiters persist
        until :meth:`disarm_waiter`).  Registrations are soft state and
        fire-and-forget: a replica that missed one only costs the client
        its bounded fallback poll, never correctness.
        """
        targets = tuple(replica_ids) if replica_ids is not None else self.replica_ids
        with self._mint_lock:
            waiter_id = self._next_waiter_id
            self._next_waiter_id += 1
        waiter = ClientWaiter(
            waiter_id,
            template,
            operation,
            targets,
            Tally(targets, self.f + 1),
            on_event=on_event,
            armed_at=self.network.now,
        )
        self._waiters[waiter_id] = waiter
        self.rearm_waiter(waiter_id)
        return waiter

    def rearm_waiter(self, waiter_id: int) -> None:
        """(Re-)broadcast one waiter's registration to its target replicas.

        Registrations are soft state: a replica rebuilt from a state
        transfer has lost them, and a push suppressed (or consumed by a
        cross-shard transaction before the re-probe landed) leaves the
        client unsure its registrations still stand.  Re-registering is
        idempotent server-side, so a wake-then-miss blocking read calls
        this before idling back at its fallback interval.
        """
        waiter = self._waiters.get(waiter_id)
        if waiter is None:
            return
        message = RegisterWaiter(
            client=self.client_id,
            waiter_id=waiter_id,
            template=waiter.template,
            operation=waiter.operation,
        )
        self.network.broadcast(self._address, waiter.targets, message)

    def disarm_waiter(self, waiter_id: int) -> None:
        """Cancel one armed waiter on the client and every target replica."""
        waiter = self._waiters.pop(waiter_id, None)
        if waiter is None:
            return
        message = CancelWaiter(client=self.client_id, waiter_id=waiter_id)
        self.network.broadcast(self._address, waiter.targets, message)

    @property
    def armed_waiters(self) -> tuple[ClientWaiter, ...]:
        return tuple(self._waiters.values())

    # ------------------------------------------------------------------
    # Request submission (continuation style)
    # ------------------------------------------------------------------

    def submit(
        self,
        operation: str,
        arguments: tuple,
        *,
        on_complete: Callable[[PendingRequest], None] | None = None,
        replica_ids: tuple[Hashable, ...] | None = None,
    ) -> PendingRequest:
        """Broadcast a request and return its :class:`PendingRequest`.

        While an earlier request of this client to the same replica group
        is in flight, the new one waits behind it and is broadcast when it
        resolves (see the module docstring).

        Does **not** pump the network: the caller (or the scenario engine)
        drives delivery, and ``on_complete`` — if given — fires inside the
        event loop once the reply vote succeeds (an ``rdp`` takes the
        read-only lane first; see the module docstring).  A retransmission
        timer keeps the request alive until then (or until
        ``max_retransmissions`` is exhausted, which fails the request with
        :class:`~repro.errors.QuorumError`).

        ``replica_ids`` overrides the target replica group for this one
        request — the hook the sharded client uses to address the shard
        that owns the tuple name.  The request carries a client MAC per
        target replica, so backups can verify its origin even when it
        reaches them relayed inside the primary's ``PRE-PREPARE`` batch.
        """
        targets = tuple(replica_ids) if replica_ids is not None else self.replica_ids
        read_only = operation == "rdp"
        with self._mint_lock:
            request_id = self._next_request_id
            # A lane read reserves the next id for its ordered fallback, so
            # a group's queue stays in request-id order either way.
            self._next_request_id += 2 if read_only else 1
            self._obs_requests.inc()
            request = ClientRequest(
                client=self.client_id,
                request_id=request_id,
                operation=operation,
                arguments=arguments,
                read_only=read_only,
            )
            request = authenticate_request(request, self.network.authenticator, targets)
            pending = PendingRequest(
                request,
                self.network.now,
                targets=targets,
                threshold=(2 if read_only else 1) * self.f + 1,
            )
            self._pending[request.key] = pending
            # Enqueued under the lock that minted the id, so a group's
            # queue is in request-id order whichever thread submits.
            queue = self._queues.get(targets)
            first = queue is None
            if first:
                queue = self._queues[targets] = deque()
            queue.append(pending)
        if self._events.enabled:
            self._events.record(
                "submit",
                self.client_id,
                self.network.now,
                key=request.key,
                operation=operation,
            )
        if read_only:
            self._obs_read_only.inc()
        if on_complete is not None:
            pending.add_done_callback(on_complete)
        if first:
            self._send(pending)
        return pending

    def _send(self, pending: PendingRequest) -> None:
        """Broadcast ``pending`` (it now holds its group's slot) and arm
        its retransmission timer."""
        key = pending.key
        self.network.broadcast(self._address, pending.targets, pending.request)
        pending._timer = self.network.schedule_after(
            self._retransmit_delay(0), lambda: self._retransmit(key)
        )

    # ------------------------------------------------------------------
    # Synchronous request execution
    # ------------------------------------------------------------------

    def invoke(self, operation: str, arguments: tuple) -> Any:
        """Execute ``operation(*arguments)`` on the replicated PEATS.

        Submits the request and settles it on the network until the reply vote
        succeeds.  Returns the deserialised result payload produced by
        :class:`~repro.replication.replica.PEATSReplica` (an ``("OK", value)``
        or ``(DENIED, reason)`` pair).
        """
        pending = self.submit(operation, arguments)
        self.network.settle(pending)
        if not pending.done:  # pragma: no cover - retransmit timer prevents this
            self._fail(pending, QuorumError(f"network drained before {pending.key} resolved"))
        return pending.result()


def summed_statistics(clients: Iterable[PEATSClient]) -> dict[str, int]:
    """``PEATSClient.statistics`` summed over ``clients``: a deployment's
    ``client_statistics()``, which the health monitor's reply-divergence
    probe samples between evaluations."""
    totals = dict.fromkeys(
        (
            "requests",
            "retransmissions",
            "mismatched_replies",
            "quorum_failures",
            "read_only",
            "read_only_fallbacks",
        ),
        0,
    )
    for client in clients:
        for name, value in client.statistics.items():
            totals[name] += value
    return totals
