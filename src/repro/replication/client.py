"""The client-side proxy of the replicated PEATS.

A client broadcasts its request to every replica, then accepts the result
as soon as ``f + 1`` replicas return byte-identical replies for it — with
at most ``f`` faulty replicas, at least one of those replies comes from a
correct replica, and since correct replicas are deterministic and execute
requests in the same order, the matched value is the correct result.  This
is the "basic voting protocol" of Section 4.

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

Like PBFT, the replicas' retransmission cache keeps only the *last* reply
per client, so each client identity must have at most one request
outstanding at a time (issue the next request only after the previous one
completed).  Every in-repo caller — the synchronous views, the scenario
engine's generator clients — respects this; concurrency comes from using
many client identities, not from pipelining one.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Any, Callable, Hashable, Iterable, Optional, TYPE_CHECKING

from repro.errors import QuorumError
from repro.futures import OperationFuture
from repro.notify import ClientWaiter
from repro.obs import resolve_obs
from repro.replication.crypto import digest
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

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport

__all__ = [
    "PendingRequest",
    "PEATSClient",
    "summed_statistics",
    "TXN_PUSH_TYPES",
    "TXN_PUSH_RETENTION",
]

#: The replica→owner push messages of the transaction commit protocol.
TXN_PUSH_TYPES = (TxnPrepare, TxnVote, TxnDecision, TxnAck)

#: Transactions whose push piles a client retains (oldest pruned first);
#: pushes are an outcome *cross-check* channel, so pruning costs nothing
#: but a late observer's corroboration.
TXN_PUSH_RETENTION = 256


class PendingRequest(OperationFuture):
    """A request in flight: a future resolved by the ``f + 1`` reply vote.

    Created by :meth:`PEATSClient.submit`.  The future mechanics (result,
    exception, latency, completion callbacks) come from the backend-agnostic
    :class:`~repro.futures.OperationFuture`; this subclass adds what only
    the networked request path needs — the authenticated request itself,
    its target replica group, and the retransmission timer.  Completion
    callbacks fire (synchronously, inside the network event loop) when the
    vote succeeds or the request is abandoned after too many
    retransmissions.
    """

    __slots__ = ("request", "attempts", "targets", "_timer")

    def __init__(
        self,
        request: ClientRequest,
        submitted_at: float,
        *,
        targets: tuple[Hashable, ...] = (),
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
        self._replies: dict[tuple, dict[Hashable, ClientReply]] = collections.defaultdict(dict)
        self._pending: dict[tuple, PendingRequest] = {}
        self._nudge_timeouts = nudge_timeouts
        self._max_retransmissions = max_retransmissions
        self.obs = resolve_obs(obs)
        registry = self.obs.registry
        self._tracer = self.obs.tracer
        self._flight = self.obs.flight
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
        self._obs_wake_latency = registry.histogram(
            "notify_wake_latency",
            "Delay from arming a waiter to its first f+1-voted wake-up",
            buckets=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
        ).labels()
        # Armed waiters by id: soft client state mirroring the replicas'
        # waiter tables (repro.notify).
        self._waiters: dict[int, ClientWaiter] = {}
        self._next_waiter_id = 0
        # Transaction pushes by txn_id: each entry dedupes one push per
        # (message type, sender, shard) so a replica gets exactly one vote
        # per protocol step.  Bounded to TXN_PUSH_RETENTION transactions.
        self._txn_pushes: dict[tuple, list] = collections.OrderedDict()
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
        }

    @property
    def pending_requests(self) -> tuple[PendingRequest, ...]:
        return tuple(self._pending.values())

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------

    def _on_message(self, sender: Hashable, payload: Any) -> None:
        if isinstance(payload, Notify):
            self._on_notify(sender, payload)
            return
        if isinstance(payload, TXN_PUSH_TYPES):
            self._on_txn_push(sender, payload)
            return
        if not isinstance(payload, ClientReply):
            return
        if payload.replica != sender:
            # A replica may only speak for itself on its authenticated link.
            return
        pending = self._pending.get(payload.request_key)
        if pending is None:
            # Stale reply for a request already resolved (or never issued).
            return
        if sender not in pending.targets:
            # Only the replicas the request was addressed to may vote on
            # its result.  Without this check a sharded cluster's fault
            # model breaks: f Byzantine replicas *per group* could pool
            # replies across groups and forge an f + 1 quorum for a
            # request their own group never executed.
            return
        self._replies[payload.request_key][sender] = payload
        result = self._voted_result(payload.request_key, pending)
        if result is not None:
            self._resolve(pending, result)

    def _on_notify(self, sender: Hashable, payload: Notify) -> None:
        """Tally one waiter push; fire the waiter's callback on f+1 votes.

        Every claim in the message is checked against local state before it
        can count: the push must come from the replica it names (the link
        authenticates the sender), address a waiter this client armed and
        carry an entry whose locally recomputed digest matches the digest
        being voted on — a Byzantine replica gets exactly one honest-shaped
        vote, never a forged quorum.
        """
        if payload.replica != sender or payload.client != self.client_id:
            return
        waiter = self._waiters.get(payload.waiter_id)
        if waiter is None:
            # Stale push for a waiter already cancelled (or never armed).
            return
        if digest(payload.entry) != payload.entry_digest:
            return
        entry = waiter.record(sender, payload.event, payload.entry, payload.entry_digest)
        if entry is None:
            return
        if not waiter.woken:
            waiter.woken = True
            self._obs_wake_latency.observe(self.network.now - waiter.armed_at)
        waiter.on_event(entry, payload.event)

    def _on_txn_push(self, sender: Hashable, payload: Any) -> None:
        """Record one transaction push (TxnPrepare/Vote/Decision/Ack).

        Pushes are the owner-addressed broadcast leg of the commit
        protocol: every replica that orders a transaction step pushes the
        outcome to the transaction's *owner*, so the owner learns of a
        decision (including a force-abort a stranger resolved) even while
        its own driver is idle.  Like replies and notifications, a push
        counts only from the replica it names on its authenticated link,
        addressed to this client, once per (step, replica, shard) — so a
        certificate needs ``f + 1`` distinct replicas and ``f`` liars can
        never assemble one (see :meth:`txn_push_vote`).
        """
        if payload.replica != sender or payload.client != self.client_id:
            return
        txn_id = payload.txn_id
        if not isinstance(txn_id, tuple):
            return
        pile = self._txn_pushes.get(txn_id)
        if pile is None:
            pile = self._txn_pushes[txn_id] = []
            while len(self._txn_pushes) > TXN_PUSH_RETENTION:
                self._txn_pushes.pop(next(iter(self._txn_pushes)))
        slot = (type(payload).__name__, sender, getattr(payload, "shard", None))
        if any(recorded_slot == slot for recorded_slot, _ in pile):
            return
        pile.append((slot, payload))
        watcher = self._txn_watchers.get(txn_id)
        if watcher is not None:
            watcher(sender, payload)

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
        """Fire ``on_push(sender, payload)`` for each fresh push of ``txn_id``."""
        self._txn_watchers[txn_id] = on_push

    def unwatch_txn(self, txn_id: tuple) -> None:
        self._txn_watchers.pop(txn_id, None)

    def txn_pushes(self, txn_id: tuple) -> tuple:
        """Every recorded push for ``txn_id`` (deduped per step/replica/shard)."""
        return tuple(payload for _, payload in self._txn_pushes.get(txn_id, ()))

    def txn_push_vote(
        self, txn_id: tuple, message_type: type, *, shard: Any = None
    ) -> Optional[tuple]:
        """The first push content vouched by ``f + 1`` distinct replicas.

        Content is compared with the ``replica`` field masked out (each
        replica names itself), so the vote demands byte-identical protocol
        substance from ``f + 1`` different senders.  ``shard`` narrows the
        tally to one participant group's pushes (votes and acks carry it).
        Returns ``(payload, replica_ids)`` — the certified content plus
        the distinct replicas that vouched for it (a commit's evidence) —
        or ``None`` while no certificate exists.
        """
        tally: dict[str, list] = collections.defaultdict(list)
        for slot, payload in self._txn_pushes.get(txn_id, ()):
            if not isinstance(payload, message_type):
                continue
            if shard is not None and getattr(payload, "shard", None) != shard:
                continue
            content = digest(
                tuple(
                    (field.name, getattr(payload, field.name))
                    for field in dataclasses.fields(payload)
                    if field.name != "replica"
                )
            )
            tally[content].append(payload)
        for matching in tally.values():
            if len(matching) >= self.f + 1:
                return matching[0], tuple(push.replica for push in matching)
        return None

    def _voted_result(self, request_key: tuple, pending: PendingRequest) -> Optional[Any]:
        """Return the result vouched for by ``f + 1`` matching replies.

        The tally is over the digest each replica *claims*; the result
        handed back is one whose locally recomputed digest equals the voted
        one.  Among ``f + 1`` claimants at least one is correct, so such a
        reply exists; a reply whose result does not hash to its claim is a
        lie — discarded, never returned, however early it arrived.
        """
        replies = self._replies.get(request_key, {})
        tally: dict[str, list[ClientReply]] = collections.defaultdict(list)
        for reply in replies.values():
            tally[reply.result_digest].append(reply)
        for voted, matching in tally.items():
            if len(matching) < self.f + 1:
                continue
            for reply in matching:
                if digest(reply.result) == voted:
                    return reply.result
                del replies[reply.replica]
                self._record_mismatch(request_key, len(replies), [voted])
        if len(replies) >= len(pending.targets):
            self._record_mismatch(request_key, len(replies), sorted(tally))
        return None

    def _record_mismatch(self, request_key: tuple, replies: int, digests: list[str]) -> None:
        self._obs_mismatched_replies.inc()
        if self._flight.enabled:
            self._flight.record(
                "reply-mismatch",
                self.client_id,
                self.network.now,
                key=request_key,
                replies=replies,
                digests=digests,
            )

    def _resolve(self, pending: PendingRequest, result: Any) -> None:
        self._pending.pop(pending.key, None)
        self._replies.pop(pending.key, None)
        if self._tracer.enabled:
            self._tracer.record("complete", pending.key, self.client_id, self.network.now)
        if self._flight.enabled:
            self._flight.record(
                "complete", self.client_id, self.network.now, key=pending.key
            )
        pending._complete(self.network.now, result=result)

    def _fail(self, pending: PendingRequest, exception: BaseException) -> None:
        self._pending.pop(pending.key, None)
        self._replies.pop(pending.key, None)
        pending._complete(self.network.now, exception=exception)

    def _retransmit(self, request_key: tuple) -> None:
        pending = self._pending.get(request_key)
        if pending is None or pending.done:
            return
        pending.attempts += 1
        if pending.attempts > self._max_retransmissions:
            self._obs_quorum_failures.inc()
            if self._flight.enabled:
                self._flight.record(
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
            self.f,
            on_event=on_event,
            armed_at=self.network.now,
        )
        self._waiters[waiter_id] = waiter
        message = RegisterWaiter(
            client=self.client_id,
            waiter_id=waiter_id,
            template=template,
            operation=operation,
        )
        self.network.broadcast(self._address, targets, message)
        return waiter

    def rearm_waiter(self, waiter_id: int) -> None:
        """Re-broadcast one waiter's registration to its target replicas.

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

        Does **not** pump the network: the caller (or the scenario engine)
        drives delivery, and ``on_complete`` — if given — fires inside the
        event loop once ``f + 1`` matching replies arrive.  A retransmission
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
        with self._mint_lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            self._obs_requests.inc()
        request = ClientRequest(
            client=self.client_id,
            request_id=request_id,
            operation=operation,
            arguments=arguments,
        )
        request = authenticate_request(request, self.network.authenticator, targets)
        pending = PendingRequest(request, self.network.now, targets=targets)
        self._pending[request.key] = pending
        if self._tracer.enabled:
            self._tracer.record("submit", request.key, self.client_id, self.network.now)
        if self._flight.enabled:
            self._flight.record(
                "submit",
                self.client_id,
                self.network.now,
                key=request.key,
                operation=operation,
            )
        if on_complete is not None:
            pending.add_done_callback(on_complete)
        self.network.broadcast(self._address, targets, request)
        pending._timer = self.network.schedule_after(
            self._retransmit_delay(0), lambda: self._retransmit(request.key)
        )
        return pending

    # ------------------------------------------------------------------
    # Synchronous request execution
    # ------------------------------------------------------------------

    def invoke(self, operation: str, arguments: tuple) -> Any:
        """Execute ``operation(*arguments)`` on the replicated PEATS.

        Submits the request and pumps the network until the reply vote
        succeeds.  Returns the deserialised result payload produced by
        :class:`~repro.replication.replica.PEATSReplica` (an ``("OK", value)``
        or ``(DENIED, reason)`` pair).
        """
        pending = self.submit(operation, arguments)
        self.network.run_until(lambda: pending.done)
        if not pending.done:  # pragma: no cover - retransmit timer prevents this
            self._fail(pending, QuorumError(f"network drained before {pending.key} resolved"))
        return pending.result()


def summed_statistics(clients: Iterable[PEATSClient]) -> dict[str, int]:
    """``PEATSClient.statistics`` summed over ``clients``: a deployment's
    ``client_statistics()``, which the health monitor's reply-divergence
    probe samples between evaluations."""
    totals = dict.fromkeys(
        ("requests", "retransmissions", "mismatched_replies", "quorum_failures"), 0
    )
    for client in clients:
        for name, value in client.statistics.items():
            totals[name] += value
    return totals
