"""A simplified PBFT-style total-order protocol for the PEATS replicas.

The protocol follows the structure of Castro & Liskov's PBFT [3], which is
the replica-coordination protocol the paper suggests for the Fig. 2
deployment, simplified to what the simulation needs:

* ``n = 3f + 1`` replicas, one of which is the *primary* of the current
  view (``primary = view mod n``);
* clients broadcast requests to every replica; the primary drains its
  buffer of pending requests into *batches* of up to ``max_batch_size``,
  assigns each batch one sequence number and multicasts ``PRE-PREPARE``;
  backups answer with ``PREPARE``; once a replica has the pre-prepare and
  ``2f`` matching prepares it multicasts ``COMMIT``; once it has ``2f + 1``
  matching commits it executes the batch's requests (in sequence order, in
  batch order) on its local
  :class:`~repro.replication.replica.PEATSReplica` and replies to each
  request's client;
* every ``checkpoint_interval`` sequence numbers a replica multicasts a
  ``CHECKPOINT`` carrying a digest of its application state; ``2f + 1``
  matching checkpoints form a *stable certificate*, after which all
  ordering state at or below the stable sequence is garbage-collected and
  the water marks advance (a primary never assigns sequence numbers beyond
  ``stable + log_window``, so the message log is bounded);
* a replica that learns a stable checkpoint ahead of its own execution
  horizon fetches the checkpointed application state from a peer and
  installs it after validating it against the certificate digest (the
  minimal state transfer a recovering replica needs; incremental/partial
  transfer is future work);
* a backup that has buffered a request for longer than the view-change
  timeout broadcasts ``VIEW-CHANGE`` (carrying its prepared certificates
  *and* its stable-checkpoint proof); on ``2f + 1`` view-change votes the
  new primary installs the view with ``NEW-VIEW``, re-proposing every
  batch reported as prepared above the quorum's best stable checkpoint,
  and re-ordering the still-pending requests.

Remaining omissions relative to full PBFT: MAC-vector authenticators (we
use per-link HMACs provided by the network), digital signatures on
view-change and checkpoint messages, and big-O optimisations.  The
missing signatures matter where one replica relays another's words:
per-link MACs cannot be verified by a third party, so the checkpoint
proofs embedded in ``VIEW-CHANGE``/``NEW-VIEW``/``STATE-RESPONSE`` and
the view-change fields ``last_executed``/``highest_sequence``/
``prepared`` are only structurally validated.  Three mitigations narrow
(but do not close) the gap: a state transfer installs only state shipped
byte-identically by ``f + 1`` distinct responders, a new primary adopts
a view-change vote's stable checkpoint as its re-proposal floor only
when ``f + 1`` voters corroborate it, and a backup adopts a ``NEW-VIEW``
floor only when corroborated by the view-change votes it saw itself.
The unauthenticated ``prepared``/``highest_sequence`` fields remain
trusted as in the pre-batching protocol; closing that needs signed
certificates, which is future work.  The client requests relayed inside
a ``PRE-PREPARE`` batch, however, *are* client-authenticated: every
request carries a MAC vector (one HMAC per target replica under the
client↔replica shared key, full PBFT's authenticator scheme), and a
replica accepts a request — direct or relayed — only after verifying its
own entry, so a faulty primary cannot forge a request under another
client's name.  None of this
affects the fault-free and crash-fault scenarios the experiments
measure (safety with ``f`` silent/lying replicas, liveness after the
failure of a primary, request/reply message complexity).

Byzantine replica behaviour is modelled with :class:`ReplicaFaultMode`:
``CRASHED`` replicas go silent, ``MUTE`` ones execute but never send
protocol messages, and ``LYING`` ones execute but return corrupted results
to clients (caught by the client's ``f + 1`` matching-reply vote).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Hashable, Optional, TYPE_CHECKING

from repro.errors import ReplicationError
from repro.obs import resolve_obs
from repro.replication.crypto import digest
from repro.replication.messages import (
    NULL_REQUEST_CLIENT,
    Batch,
    CancelWaiter,
    Checkpoint,
    ClientReply,
    ClientRequest,
    Commit,
    NewView,
    Notify,
    PrePrepare,
    Prepare,
    RegisterWaiter,
    StateRequest,
    StateResponse,
    TxnAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
    ViewChange,
    null_batch,
    request_auth_payload,
)
from repro.replication.replica import PEATSReplica

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport

__all__ = ["ReplicaFaultMode", "OrderingNode"]


class ReplicaFaultMode(enum.Enum):
    """Behaviour of a replica in the simulation."""

    CORRECT = "correct"
    CRASHED = "crashed"
    MUTE = "mute"
    LYING = "lying"
    #: Executes and replies correctly but computes a corrupted (yet
    #: deterministic) checkpoint digest — the PR 9 wedge shape: with two
    #: of four replicas divergent the checkpoint votes split 2-vs-2,
    #: no 2f+1 certificate ever forms, and the log window jams.
    DIVERGENT = "divergent"


class OrderingNode:
    """One replica of the replicated PEATS: ordering layer + application."""

    def __init__(
        self,
        replica_id: Hashable,
        replica_ids: tuple[Hashable, ...],
        f: int,
        application: PEATSReplica,
        network: "Transport",
        *,
        view_change_timeout: float = 50.0,
        fault_mode: ReplicaFaultMode = ReplicaFaultMode.CORRECT,
        max_batch_size: int = 8,
        checkpoint_interval: int = 8,
        log_window: int | None = None,
        obs: Any = None,
    ) -> None:
        if max_batch_size < 1:
            raise ReplicationError("max_batch_size must be at least 1")
        if checkpoint_interval < 1:
            raise ReplicationError("checkpoint_interval must be at least 1")
        self.replica_id = replica_id
        self.replica_ids = tuple(replica_ids)
        self._replica_set = frozenset(replica_ids)
        self.f = f
        self.application = application
        self.network = network
        self.view_change_timeout = view_change_timeout
        self.fault_mode = fault_mode
        self.max_batch_size = max_batch_size
        self.checkpoint_interval = checkpoint_interval
        #: Distance between the low (stable checkpoint) and high water mark.
        self.log_window = log_window if log_window is not None else 2 * checkpoint_interval
        if self.log_window < checkpoint_interval:
            raise ReplicationError("log_window must be at least checkpoint_interval")

        self.view = 0
        self.next_sequence = 1
        self.last_executed = 0
        self.stable_checkpoint = 0

        # Ordering state, keyed by (view, sequence) / (view, sequence, digest);
        # truncated below the stable checkpoint.
        self._pre_prepares: Dict[tuple[int, int], PrePrepare] = {}
        self._prepares: Dict[tuple[int, int, str], set[Hashable]] = {}
        self._commits: Dict[tuple[int, int, str], set[Hashable]] = {}
        self._committed: Dict[int, Batch] = {}
        self._sent_prepare: set[tuple[int, int]] = set()
        self._sent_commit: set[tuple[int, int]] = set()

        # Client-request bookkeeping; entries for requests executed at or
        # below the stable checkpoint are dropped (retransmission
        # idempotency is then covered by the application's bounded
        # per-client reply cache).
        self._buffered: Dict[tuple, ClientRequest] = {}
        self._buffered_since: Dict[tuple, float] = {}
        # FIFO of buffered requests not yet assigned to a batch — what the
        # primary's drain consumes, kept separate so intake stays O(1) per
        # request instead of rescanning every buffered entry.
        self._unordered: Dict[tuple, ClientRequest] = {}
        self._ordered_keys: set[tuple] = set()
        self._executed_keys: set[tuple] = set()
        self._executed_at: Dict[tuple, int] = {}

        # Checkpoint bookkeeping.  Only the *latest* vote per replica is
        # kept (a correct replica's newer checkpoint supersedes its older
        # one), so a faulty replica spraying artificial sequence numbers
        # overwrites its own slot instead of growing the map.
        self._checkpoint_votes: Dict[Hashable, Checkpoint] = {}
        self._checkpoint_proof: tuple[Checkpoint, ...] = ()
        self._checkpoint_states: Dict[int, Any] = {}
        self._stable_state: Any = None
        self._own_checkpoint: Optional[Checkpoint] = None
        # Pending state transfers: the latest response per peer;
        # installation requires f + 1 distinct senders shipping identical
        # state, so a single Byzantine responder cannot feed us fabricated
        # state (and cannot grow this map beyond one slot).
        self._state_responses: Dict[Hashable, StateResponse] = {}
        # Set when our own checkpoint digest contradicted a stable
        # certificate: the sequence whose certified state we must install
        # even though we already executed past it.
        self._resync_below: Optional[int] = None

        # View-change bookkeeping.
        self._view_change_votes: Dict[int, Dict[Hashable, ViewChange]] = {}
        self._view_changing = False
        self._view_change_started_at = 0.0
        self._highest_vote = 0
        # Ordering messages for views we have not entered yet (they can
        # overtake the NEW-VIEW announcement on the asynchronous network).
        # Bounded per sender — senders are replicas (dispatch enforces it)
        # and a faulty one must not grow the buffer without limit.
        self._future_messages: Dict[Hashable, list[Any]] = {}
        self._future_limit = 4 * self.log_window + 16
        # Pre-prepares above our high water mark (our checkpoint certificate
        # may simply not have arrived yet); replayed when the window slides.
        # Keyed by sequence (latest message wins) and capped by the hard
        # sequence ceiling below, so it holds at most ~log_window entries.
        self._out_of_window: Dict[int, tuple[Hashable, PrePrepare]] = {}

        # Observability: pre-bound per-node children on the deployment's
        # registry, the only store of these counts (``statistics`` is a view).
        self.obs = resolve_obs(obs)
        registry = self.obs.registry
        self._tracer = self.obs.tracer
        self._flight = self.obs.flight
        node = str(replica_id)
        self._obs_batches = registry.counter(
            "pbft_batches_total", "Consensus batches this node pre-prepared as primary"
        ).labels(node=node)
        self._obs_batch_size = registry.histogram(
            "pbft_batch_size",
            "Client requests packed per pre-prepared batch",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        ).labels(node=node)
        self._obs_pending_depth = registry.gauge(
            "pbft_pending_depth", "Buffered client requests not yet assigned to a batch"
        ).labels(node=node)
        self._obs_view_changes = registry.counter(
            "pbft_view_changes_total", "View changes this node started"
        ).labels(node=node)
        self._obs_checkpoints = registry.counter(
            "pbft_checkpoints_total", "Checkpoints this node took"
        ).labels(node=node)
        self._obs_truncations = registry.counter(
            "pbft_truncations_total", "Log truncations after a stable certificate"
        ).labels(node=node)
        self._obs_reply_cache_hits = registry.counter(
            "pbft_reply_cache_hits_total", "Retransmissions answered from the reply cache"
        ).labels(node=node)
        self._obs_executed = registry.counter(
            "pbft_executed_total", "Client requests executed in sequence order"
        ).labels(node=node)
        self._obs_notify_pushed = registry.counter(
            "notify_pushed_total", "Waiter notifications this node pushed to clients"
        ).labels(node=node)
        self._obs_state_transfers = registry.counter(
            "pbft_state_transfers_total", "Certified states this node installed from peers"
        ).labels(node=node)

        network.register(replica_id, self.on_message)

    def _trace_batch(self, phase: str, requests: tuple, now: float) -> None:
        """Record ``phase`` for every real request of a batch (tracing on)."""
        tracer = self._tracer
        for request in requests:
            if request.client != NULL_REQUEST_CLIENT:
                tracer.record(phase, request.key, self.replica_id, now)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.replica_ids)

    @property
    def quorum(self) -> int:
        """The 2f + 1 quorum size used by prepares, commits, checkpoints
        and view changes."""
        return 2 * self.f + 1

    @property
    def high_water_mark(self) -> int:
        """Highest sequence number that may be assigned before the next
        checkpoint certificate slides the window."""
        return self.stable_checkpoint + self.log_window

    def primary_of(self, view: int) -> Hashable:
        return self.replica_ids[view % self.n]

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.replica_id

    @property
    def is_silent(self) -> bool:
        return self.fault_mode in (ReplicaFaultMode.CRASHED, ReplicaFaultMode.MUTE)

    def _multicast(self, payload: Any) -> None:
        if self.is_silent:
            return
        if self._flight.enabled:
            self._flight.record(
                "msg-send",
                self.replica_id,
                self.network.now,
                type=type(payload).__name__,
            )
        self.network.broadcast(self.replica_id, self.replica_ids, payload)

    def _send(self, receiver: Hashable, payload: Any) -> None:
        if self.fault_mode is ReplicaFaultMode.CRASHED:
            return
        if not self.network.has_node(receiver):
            # A faulty primary can batch a request whose claimed client is
            # not on the network; replying must not crash a correct replica.
            return
        self.network.send(self.replica_id, receiver, payload)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, sender: Hashable, payload: Any) -> None:
        """Network entry point for this replica."""
        if self.fault_mode is ReplicaFaultMode.CRASHED:
            return
        if (
            not isinstance(payload, (ClientRequest, RegisterWaiter, CancelWaiter))
            and sender not in self._replica_set
        ):
            # Every other message is replica-to-replica protocol traffic.
            # Accepting it from arbitrary network identities would let a
            # Byzantine *client* stuff quorums (checkpoint certificates,
            # state-transfer thresholds) or pull a full state dump past
            # the access policy via StateRequest.
            return
        if self._flight.enabled:
            self._flight.record(
                "msg-recv",
                self.replica_id,
                self.network.now,
                key=payload.key if isinstance(payload, ClientRequest) else None,
                type=type(payload).__name__,
                sender=str(sender),
            )
        if isinstance(payload, ClientRequest):
            self._on_request(sender, payload)
        elif isinstance(payload, RegisterWaiter):
            self._on_register_waiter(sender, payload)
        elif isinstance(payload, CancelWaiter):
            self._on_cancel_waiter(sender, payload)
        elif isinstance(payload, PrePrepare):
            self._on_pre_prepare(sender, payload)
        elif isinstance(payload, Prepare):
            self._on_prepare(sender, payload)
        elif isinstance(payload, Commit):
            self._on_commit(sender, payload)
        elif isinstance(payload, Checkpoint):
            self._on_checkpoint(sender, payload)
        elif isinstance(payload, StateRequest):
            self._on_state_request(sender, payload)
        elif isinstance(payload, StateResponse):
            self._on_state_response(sender, payload)
        elif isinstance(payload, ViewChange):
            self._on_view_change(sender, payload)
        elif isinstance(payload, NewView):
            self._on_new_view(sender, payload)
        # Unknown payloads are ignored (a Byzantine node may send garbage).

    # ------------------------------------------------------------------
    # Client requests and batch assembly
    # ------------------------------------------------------------------

    def _client_authenticated(self, request: ClientRequest) -> bool:
        """Verify this replica's entry of the request's client MAC vector.

        Per-link envelope MACs only authenticate the immediate sender, so
        a request relayed by the primary inside a ``PRE-PREPARE`` batch
        needs its own proof of origin: the client MACs the request content
        once per target replica under the pairwise shared key.  Protocol
        no-ops (gap fillers) have no real client and are accepted exactly
        in their canonical shape — anything else claiming the null client
        is a forgery trying to execute unauthenticated state changes.
        """
        if request.client == NULL_REQUEST_CLIENT:
            return request.operation == "__noop__" and request.arguments == ()
        try:
            entries = dict(request.auth)
        except (TypeError, ValueError):
            return False
        mac = entries.get(self.replica_id)
        if not isinstance(mac, str):
            return False
        return self.network.authenticator.verify(
            request.client, self.replica_id, request_auth_payload(request), mac
        )

    def _on_request(self, sender: Hashable, request: ClientRequest) -> None:
        if sender != request.client:
            # The channel authenticates the sender; a client may only speak
            # for itself.  Without this check one forged request with a huge
            # request_id would poison the victim's reply-cache high-water
            # mark and silently drop all its future requests.
            return
        if not self._client_authenticated(request):
            # No valid client MAC for this replica: were the primary to
            # batch it, the backups would reject the whole batch, so a
            # correct replica refuses the request up front.
            return
        cached = self.application.cached_reply(request)
        if cached is not None:
            # Retransmission of the client's latest executed request:
            # resend the cached reply.
            self._obs_reply_cache_hits.inc()
            self._reply(request, cached)
            return
        latest = self.application.last_request_id(request.client)
        if latest is not None and latest >= request.request_id:
            # Stale retransmission of a request the client has already
            # moved past (clients issue one request at a time).
            return
        if request.key in self._executed_keys or request.key in self._ordered_keys:
            return
        self._buffered.setdefault(request.key, request)
        self._buffered_since.setdefault(request.key, self.network.now)
        self._unordered.setdefault(request.key, request)
        self._maybe_drain()
        self._obs_pending_depth.set(len(self._unordered))

    # ------------------------------------------------------------------
    # Waiter registrations (repro.notify)
    # ------------------------------------------------------------------

    def _on_register_waiter(self, sender: Hashable, message: RegisterWaiter) -> None:
        """Arm a waiter for ``sender`` (soft state, outside the ordered stream).

        The per-link envelope MAC authenticates the immediate sender and
        registrations are never relayed, so ``sender == message.client`` is
        the whole origin check — no MAC vector needed.
        """
        if sender != message.client:
            return
        self.application.register_waiter(
            message.client, message.waiter_id, message.template, message.operation
        )

    def _on_cancel_waiter(self, sender: Hashable, message: CancelWaiter) -> None:
        if sender != message.client:
            return
        self.application.cancel_waiter(message.client, message.waiter_id)

    def _drain_notifications(self) -> None:
        """Push the notifications execution queued (fault modes apply here)."""
        for notification in self.application.drain_notifications():
            self._notify(notification)

    def _notify(self, notification: Any) -> None:
        if self.is_silent:
            return
        if self._tracer.enabled:
            self._tracer.record(
                "notify", notification.event, self.replica_id, self.network.now
            )
        if self._flight.enabled:
            self._flight.record(
                "waiter-notify",
                self.replica_id,
                self.network.now,
                client=str(notification.client),
                waiter_id=notification.waiter_id,
            )
        entry = notification.entry
        entry_digest = notification.entry_digest
        if self.fault_mode is ReplicaFaultMode.LYING:
            # Same corruption model as _reply: each liar fabricates its own
            # entry (replica id baked in), so f liars can never assemble the
            # f + 1 matching pushes the client's wake-up vote demands.
            entry = ("CORRUPTED", self.replica_id, repr(entry))
            entry_digest = digest(entry)
        self._obs_notify_pushed.inc()
        self._send(
            notification.client,
            Notify(
                replica=self.replica_id,
                client=notification.client,
                waiter_id=notification.waiter_id,
                event=notification.event,
                entry=entry,
                entry_digest=entry_digest,
            ),
        )

    def _drain_txn_pushes(self) -> None:
        """Push the transaction outcome messages execution queued."""
        for push in self.application.drain_txn_pushes():
            self._txn_push(push)

    def _txn_push(self, push: Any) -> None:
        """Send one replica→owner transaction push (fault modes apply).

        Pushes are the owner-addressed broadcast channel of the commit
        protocol: a client accepts one only as part of an ``f + 1``
        matching pile, so — exactly like replies and notifications — each
        LYING replica corrupts *independently* (its replica id baked into
        the lie) and ``f`` liars can never assemble a certificate.
        """
        if self.is_silent:
            return
        if self._flight.enabled:
            kind = "txn-vote" if isinstance(push, TxnVote) else "txn-decision"
            self._flight.record(
                kind,
                self.replica_id,
                self.network.now,
                txn=repr(push.txn_id),
                client=str(push.client),
                type=type(push).__name__,
            )
        if self.fault_mode is ReplicaFaultMode.LYING:
            if isinstance(push, TxnVote):
                push = dataclasses.replace(
                    push,
                    vote="no" if push.vote == "yes" else "yes",
                    reason=("LYING", self.replica_id),
                    pins_digest=digest(("LYING", self.replica_id)),
                )
            elif isinstance(push, (TxnDecision, TxnAck)):
                push = dataclasses.replace(
                    push,
                    outcome="abort" if push.outcome == "commit" else "commit",
                    **(
                        {"reason": ("LYING", self.replica_id)}
                        if isinstance(push, TxnDecision)
                        else {}
                    ),
                )
            elif isinstance(push, TxnPrepare):
                push = dataclasses.replace(
                    push, participants=(("LYING", self.replica_id),)
                )
        self._send(push.client, push)

    def _maybe_drain(self) -> None:
        """Primary: drain unordered requests into batches within the window."""
        if not self.is_primary or self._view_changing or self.is_silent:
            return
        while self._unordered and self.next_sequence <= self.high_water_mark:
            chunk: list[ClientRequest] = []
            while self._unordered and len(chunk) < self.max_batch_size:
                key, request = next(iter(self._unordered.items()))
                del self._unordered[key]
                if key in self._ordered_keys or key in self._executed_keys:
                    continue
                chunk.append(request)
            if chunk:
                self._order_batch(Batch(requests=tuple(chunk)))

    def _order_batch(self, batch: Batch) -> None:
        """Primary: assign the next sequence number and pre-prepare a batch."""
        sequence = self.next_sequence
        self.next_sequence += 1
        self._ordered_keys.update(batch.keys())
        self._obs_batches.inc()
        self._obs_batch_size.observe(float(len(batch.requests)))
        if self._tracer.enabled:
            self._trace_batch("pre-prepare", batch.requests, self.network.now)
        message = PrePrepare(
            view=self.view,
            sequence=sequence,
            batch_digest=digest(batch),
            batch=batch,
            primary=self.replica_id,
        )
        # The primary also records its own pre-prepare locally.
        self._pre_prepares[(self.view, sequence)] = message
        self._multicast(message)
        self._maybe_send_commit(self.view, sequence, message.batch_digest)

    # ------------------------------------------------------------------
    # Ordering phases
    # ------------------------------------------------------------------

    def _on_pre_prepare(self, sender: Hashable, message: PrePrepare) -> None:
        if message.view > self.view:
            self._buffer_future(sender, message)
            return
        if message.view != self.view or sender != self.primary_of(message.view):
            return
        if self._view_changing:
            # PBFT: while view-changing, accept only checkpoint and
            # view-change traffic.  Progressing the old view here would let
            # a batch commit that our already-cast view-change vote does
            # not report as prepared — the new primary could then null-fill
            # its sequence number while we execute it, silently diverging.
            return
        if message.sequence <= self.stable_checkpoint:
            # Already covered by a stable checkpoint: garbage-collected.
            return
        if message.sequence > self.high_water_mark:
            if message.sequence > self.stable_checkpoint + 2 * self.log_window:
                # A correct primary's window can lead ours by at most one
                # certificate; anything further is a faulty primary trying
                # to fill this buffer.
                return
            # Our checkpoint certificate may be lagging the primary's;
            # retry once the window slides instead of dropping.
            self._out_of_window[message.sequence] = (sender, message)
            return
        if digest(message.batch) != message.batch_digest:
            return
        if any(
            not self._client_authenticated(request)
            for request in message.batch.requests
        ):
            # At least one relayed request lacks a valid client MAC for
            # this replica: a faulty primary is forging requests under a
            # client's name (or relaying a tampered one).  Reject the batch
            # — without 2f backup prepares it can never commit.
            return
        key = (message.view, message.sequence)
        if key in self._pre_prepares:
            return
        self._pre_prepares[key] = message
        self._ordered_keys.update(message.batch.keys())
        if self._tracer.enabled:
            self._trace_batch("pre-prepare", message.batch.requests, self.network.now)
        for request in message.batch.requests:
            self._unordered.pop(request.key, None)
            if request.client != NULL_REQUEST_CLIENT:
                self._buffered.setdefault(request.key, request)
        # Track the highest sequence number this replica has seen assigned:
        # if it later becomes primary it must not reuse any of them.
        self.next_sequence = max(self.next_sequence, message.sequence + 1)
        if not self.is_primary and key not in self._sent_prepare:
            self._sent_prepare.add(key)
            self._multicast(
                Prepare(
                    view=message.view,
                    sequence=message.sequence,
                    batch_digest=message.batch_digest,
                    replica=self.replica_id,
                )
            )
        self._maybe_send_commit(message.view, message.sequence, message.batch_digest)

    def _on_prepare(self, sender: Hashable, message: Prepare) -> None:
        if message.view > self.view:
            self._buffer_future(sender, message)
            return
        if message.view != self.view or message.sequence <= self.stable_checkpoint:
            return
        if message.sequence > self.stable_checkpoint + 2 * self.log_window:
            # Outside any window a correct replica could be in: a faulty
            # peer spraying arbitrary sequences must not grow the vote maps.
            return
        if self._view_changing:
            return
        key = (message.view, message.sequence, message.batch_digest)
        self._prepares.setdefault(key, set()).add(sender)
        self._maybe_send_commit(message.view, message.sequence, message.batch_digest)

    def _prepared(self, view: int, sequence: int, batch_digest: str) -> bool:
        """PBFT ``prepared`` predicate: pre-prepare + 2f prepares (incl. self)."""
        if (view, sequence) not in self._pre_prepares:
            return False
        if self._pre_prepares[(view, sequence)].batch_digest != batch_digest:
            return False
        votes = set(self._prepares.get((view, sequence, batch_digest), set()))
        votes.add(self.primary_of(view))
        votes.add(self.replica_id)
        return len(votes) >= self.quorum

    def _maybe_send_commit(self, view: int, sequence: int, batch_digest: str) -> None:
        key = (view, sequence)
        if key in self._sent_commit:
            return
        if not self._prepared(view, sequence, batch_digest):
            return
        self._sent_commit.add(key)
        if self._tracer.enabled:
            self._trace_batch(
                "prepare", self._pre_prepares[key].batch.requests, self.network.now
            )
        self._multicast(
            Commit(
                view=view,
                sequence=sequence,
                batch_digest=batch_digest,
                replica=self.replica_id,
            )
        )
        # Count our own commit vote immediately.
        self._commits.setdefault((view, sequence, batch_digest), set()).add(self.replica_id)
        self._maybe_execute(view, sequence, batch_digest)

    def _on_commit(self, sender: Hashable, message: Commit) -> None:
        if message.view > self.view:
            self._buffer_future(sender, message)
            return
        if message.view != self.view or message.sequence <= self.stable_checkpoint:
            return
        if message.sequence > self.stable_checkpoint + 2 * self.log_window:
            return
        if self._view_changing:
            return
        key = (message.view, message.sequence, message.batch_digest)
        self._commits.setdefault(key, set()).add(sender)
        self._maybe_execute(message.view, message.sequence, message.batch_digest)

    def _maybe_execute(self, view: int, sequence: int, batch_digest: str) -> None:
        key = (view, sequence)
        votes = self._commits.get((view, sequence, batch_digest), set())
        if len(votes) < self.quorum:
            return
        if key not in self._pre_prepares:
            return
        if sequence <= self.last_executed or sequence in self._committed:
            return
        self._committed[sequence] = self._pre_prepares[key].batch
        if self._tracer.enabled:
            self._trace_batch(
                "commit", self._pre_prepares[key].batch.requests, self.network.now
            )
        self._execute_ready()

    def _execute_ready(self) -> None:
        """Execute committed batches in strict sequence order."""
        while (self.last_executed + 1) in self._committed:
            sequence = self.last_executed + 1
            batch = self._committed[sequence]
            for request in batch.requests:
                latest = self.application.last_request_id(request.client)
                stale = latest is not None and latest > request.request_id
                if self._tracer.enabled and request.client != NULL_REQUEST_CLIENT:
                    self._tracer.record(
                        "execute", request.key, self.replica_id, self.network.now
                    )
                    # Transaction sub-protocol steps get their own lifecycle
                    # phases, so a trace timeline shows prepare→decision.
                    if request.operation == "txn_prepare":
                        self._tracer.record(
                            "txn-prepare", request.key, self.replica_id, self.network.now
                        )
                    elif request.operation in ("txn_decision", "txn_force"):
                        self._tracer.record(
                            "txn-decision", request.key, self.replica_id, self.network.now
                        )
                if self._flight.enabled and request.client != NULL_REQUEST_CLIENT:
                    self._flight.record(
                        "execute",
                        self.replica_id,
                        self.network.now,
                        key=request.key,
                        sequence=sequence,
                        operation=request.operation,
                    )
                result = self.application.execute(request)
                self._obs_executed.inc()
                self._executed_keys.add(request.key)
                self._executed_at[request.key] = sequence
                self._buffered.pop(request.key, None)
                self._buffered_since.pop(request.key, None)
                self._unordered.pop(request.key, None)
                if not stale:
                    # A stale duplicate (the same request re-ordered across
                    # a view change after the client already moved on) must
                    # not be answered with the newer cached payload.
                    self._reply(request, result)
            # Drain unconditionally: MUTE replicas execute too, and their
            # queued notifications must not pile up (_notify re-checks the
            # fault mode before actually sending).
            self._drain_notifications()
            self._drain_txn_pushes()
            self.last_executed = sequence
            if sequence % self.checkpoint_interval == 0:
                self._take_checkpoint(sequence)

    def _reply(self, request: ClientRequest, result: Any) -> None:
        if self.is_silent:
            return
        if request.client == NULL_REQUEST_CLIENT:
            # Gap-filling no-ops have no real client to answer.
            return
        if self._tracer.enabled:
            self._tracer.record("reply", request.key, self.replica_id, self.network.now)
        if self._flight.enabled:
            self._flight.record(
                "reply",
                self.replica_id,
                self.network.now,
                key=request.key,
                client=str(request.client),
            )
        if self.fault_mode is ReplicaFaultMode.LYING:
            # Each liar corrupts independently (the replica id is baked into
            # the lie), so colluding on an identical wrong answer — which
            # would defeat the client's f+1 vote — is not modelled here.
            result = ("CORRUPTED", self.replica_id, repr(result))
        reply = ClientReply(
            replica=self.replica_id,
            view=self.view,
            request_key=request.key,
            result_digest=digest(result),
            result=result,
        )
        self._send(request.client, reply)

    # ------------------------------------------------------------------
    # Checkpoints and log truncation
    # ------------------------------------------------------------------

    def _take_checkpoint(self, sequence: int) -> None:
        self._obs_checkpoints.inc()
        state = self.application.capture_state()
        self._checkpoint_states[sequence] = state
        state_digest = digest(state)
        if self.fault_mode is ReplicaFaultMode.DIVERGENT:
            # Deterministically corrupted digest: the vote is internally
            # consistent (the same wrong digest every time), so two such
            # replicas split the quorum instead of merely being outvoted —
            # the certificate starves and the log window jams, which is
            # exactly how PR 9's nondeterministic-digest bug manifested.
            state_digest = digest((state, "divergent-checkpoint"))
        message = Checkpoint(
            sequence=sequence, state_digest=state_digest, replica=self.replica_id
        )
        self._own_checkpoint = message
        self._record_checkpoint_vote(self.replica_id, message)
        self._multicast(message)
        self._maybe_stabilize(sequence, message.state_digest)

    def _record_checkpoint_vote(self, replica: Hashable, message: Checkpoint) -> None:
        current = self._checkpoint_votes.get(replica)
        if current is None or message.sequence >= current.sequence:
            self._checkpoint_votes[replica] = message
            if self._flight.enabled:
                self._flight.record(
                    "checkpoint-vote",
                    self.replica_id,
                    self.network.now,
                    sequence=message.sequence,
                    digest=message.state_digest,
                    voter=str(replica),
                )

    def checkpoint_vote_table(self) -> dict[Hashable, tuple[int, str]]:
        """The latest checkpoint vote this node has seen per replica,
        as ``{replica: (sequence, state_digest)}`` — what the health
        monitor merges to attribute a starved certificate to the
        replicas whose digests diverge."""
        return {
            replica: (vote.sequence, vote.state_digest)
            for replica, vote in self._checkpoint_votes.items()
        }

    def _on_checkpoint(self, sender: Hashable, message: Checkpoint) -> None:
        if message.replica != sender:
            # A replica may only vouch for its own state.
            return
        if message.sequence <= self.stable_checkpoint:
            return
        self._record_checkpoint_vote(sender, message)
        self._maybe_stabilize(message.sequence, message.state_digest)

    def _maybe_stabilize(self, sequence: int, state_digest: str) -> None:
        if sequence <= self.stable_checkpoint:
            return
        votes = {
            replica: vote
            for replica, vote in self._checkpoint_votes.items()
            if vote.sequence == sequence and vote.state_digest == state_digest
        }
        if len(votes) < self.quorum:
            return
        proof = tuple(votes[replica] for replica in sorted(votes, key=repr))
        self._stabilize(sequence, proof)

    def _stabilize(self, sequence: int, proof: tuple[Checkpoint, ...]) -> None:
        """Adopt a stable checkpoint certificate: truncate and slide the window."""
        self.stable_checkpoint = sequence
        self._checkpoint_proof = proof
        if self._flight.enabled:
            self._flight.record(
                "checkpoint-cert",
                self.replica_id,
                self.network.now,
                sequence=sequence,
                digest=proof[0].state_digest if proof else None,
                votes=len(proof),
            )
        own_state = self._checkpoint_states.get(sequence)
        certified_digest = proof[0].state_digest if proof else None
        self._truncate(sequence)
        if (
            own_state is not None
            and certified_digest is not None
            and digest(own_state) != certified_digest
        ):
            # Our execution history contradicts the certified majority —
            # possible only outside the protocol's trust envelope (see the
            # module docstring), but self-healing is cheap: discard our
            # copy and install the certified state even though we already
            # executed past it.
            self._checkpoint_states.pop(sequence, None)
            self._stable_state = None
            self._resync_below = sequence
            self._request_state(sequence)
        else:
            self._stable_state = own_state
            if self.last_executed < sequence:
                # The group advanced without us (crash window, partition):
                # fetch the checkpointed state instead of replaying history
                # that has been garbage-collected.
                self._request_state(sequence)
        self._slide_window()

    def _slide_window(self) -> None:
        """Resume work the old window was blocking (shared tail of every
        adopt-checkpoint path except ``_enter_view``, which must re-propose
        the old sequences before it may drain fresh ones)."""
        self._maybe_drain()
        self._replay_out_of_window()

    def _truncate(self, sequence: int) -> None:
        """Garbage-collect all ordering state at or below ``sequence``."""
        self._obs_truncations.inc()
        self._pre_prepares = {
            key: value for key, value in self._pre_prepares.items() if key[1] > sequence
        }
        self._prepares = {
            key: value for key, value in self._prepares.items() if key[1] > sequence
        }
        self._commits = {
            key: value for key, value in self._commits.items() if key[1] > sequence
        }
        self._committed = {
            seq: batch for seq, batch in self._committed.items() if seq > sequence
        }
        self._sent_prepare = {key for key in self._sent_prepare if key[1] > sequence}
        self._sent_commit = {key for key in self._sent_commit if key[1] > sequence}
        self._checkpoint_votes = {
            replica: vote
            for replica, vote in self._checkpoint_votes.items()
            if vote.sequence > sequence
        }
        self._checkpoint_states = {
            seq: state for seq, state in self._checkpoint_states.items() if seq >= sequence
        }
        self._state_responses = {
            sender: response
            for sender, response in self._state_responses.items()
            if response.sequence > sequence
        }
        # Per-request bookkeeping below the stable checkpoint: from here on
        # the application's per-client reply cache covers retransmissions.
        for key, executed_at in list(self._executed_at.items()):
            if executed_at <= sequence:
                del self._executed_at[key]
                self._executed_keys.discard(key)
                self._ordered_keys.discard(key)
                self._buffered.pop(key, None)
                self._buffered_since.pop(key, None)
                self._unordered.pop(key, None)

    def _buffer_future(self, sender: Hashable, message: Any) -> None:
        """Hold an ordering message for a view we have not entered yet.

        Bounded per sender: a correct replica can only be a view or so
        ahead, so the tail of a long backlog is droppable — anything lost
        is recovered by the new view's re-proposals and client
        retransmissions.
        """
        queue = self._future_messages.setdefault(sender, [])
        queue.append(message)
        if len(queue) > self._future_limit:
            del queue[: len(queue) - self._future_limit]

    def _replay_out_of_window(self) -> None:
        if not self._out_of_window:
            return
        replay, self._out_of_window = self._out_of_window, {}
        for sequence in sorted(replay):
            sender, message = replay[sequence]
            self._on_pre_prepare(sender, message)

    # ------------------------------------------------------------------
    # Checkpoint state transfer (recovering / lagging replicas)
    # ------------------------------------------------------------------

    def _request_state(self, sequence: int) -> None:
        if self._flight.enabled:
            self._flight.record(
                "state-request", self.replica_id, self.network.now, sequence=sequence
            )
        self._multicast(StateRequest(sequence=sequence, replica=self.replica_id))

    def _on_state_request(self, sender: Hashable, message: StateRequest) -> None:
        if self.is_silent or self._stable_state is None:
            return
        if self.stable_checkpoint < message.sequence:
            return
        if self._flight.enabled:
            self._flight.record(
                "state-response",
                self.replica_id,
                self.network.now,
                sequence=self.stable_checkpoint,
                requester=str(sender),
            )
        self._send(
            sender,
            StateResponse(
                sequence=self.stable_checkpoint,
                state_digest=digest(self._stable_state),
                state=self._stable_state,
                proof=self._checkpoint_proof,
                replica=self.replica_id,
                prepared=self._in_window_progress(),
            ),
        )

    def _in_window_progress(self) -> tuple:
        """Ordering progress above the stable checkpoint, for state transfer.

        One ``(sequence, view, batch, committed)`` entry per sequence this
        replica has committed (authoritative batch, view normalised to 0 so
        responders in different views still corroborate each other) or
        prepared (certificate view kept — the requester can only vote on it
        in that view).  Shipping these alongside the checkpoint lets a
        recovering replica execute the committed tail and vote on the open
        instances immediately instead of waiting for the next checkpoint
        boundary.
        """
        entries: Dict[int, tuple[int, Batch, bool]] = {}
        for sequence, batch in self._committed.items():
            if sequence > self.stable_checkpoint:
                entries[sequence] = (0, batch, True)
        for (view, sequence), message in sorted(self._pre_prepares.items()):
            if sequence <= self.stable_checkpoint:
                continue
            current = entries.get(sequence)
            if current is not None and current[2]:
                continue
            if not self._prepared(view, sequence, message.batch_digest):
                continue
            if current is None or view > current[0]:
                entries[sequence] = (view, message.batch, False)
        return tuple(
            (sequence, view, batch, committed)
            for sequence, (view, batch, committed) in sorted(entries.items())
        )

    def _on_state_response(self, sender: Hashable, message: StateResponse) -> None:
        if message.replica != sender:
            return
        if message.sequence <= self.last_executed and message.sequence != self._resync_below:
            return
        if digest(message.state) != message.state_digest:
            return
        certificate = self._checkpoint_certificate(message.proof)
        if certificate != (message.sequence, message.state_digest):
            return
        # The proof's inner Checkpoint votes are not origin-authenticated
        # (per-link MACs cannot be verified by a third party), so a lone
        # Byzantine responder could fabricate one.  Require f + 1 distinct
        # senders shipping byte-identical state: at least one is correct.
        self._state_responses[sender] = message
        matching = [
            response
            for response in self._state_responses.values()
            if response.sequence == message.sequence
            and response.state_digest == message.state_digest
        ]
        if len(matching) < self.f + 1:
            return
        if self._flight.enabled:
            self._flight.record(
                "state-install",
                self.replica_id,
                self.network.now,
                sequence=message.sequence,
                digest=message.state_digest,
                responders=len(matching),
            )
        self.application.install_state(message.state)
        self.last_executed = message.sequence
        self.next_sequence = max(self.next_sequence, message.sequence + 1)
        self._resync_below = None
        if message.sequence >= self.stable_checkpoint:
            self.stable_checkpoint = message.sequence
            self._checkpoint_proof = message.proof
            self._stable_state = message.state
            self._checkpoint_states[message.sequence] = message.state
        self._obs_state_transfers.inc()
        self._truncate(message.sequence)
        self._adopt_transferred_progress(message.sequence, matching)
        self._state_responses.clear()
        # Requests buffered before the blackout may have been executed (and
        # garbage-collected) by the rest of the group; the transferred
        # reply cache is the authority.  Dropping them here keeps them from
        # reading as overdue and triggering spurious view changes.
        for key in list(self._buffered):
            client, request_id = key
            latest = self.application.last_request_id(client)
            if latest is not None and latest >= request_id:
                self._buffered.pop(key, None)
                self._buffered_since.pop(key, None)
                self._unordered.pop(key, None)
                self._ordered_keys.discard(key)
        self._slide_window()
        self._execute_ready()

    def _valid_transfer_entry(self, item: Any, floor: int) -> bool:
        """Structural check of one transferred ``prepared`` entry."""
        if not (isinstance(item, tuple) and len(item) == 4):
            return False
        sequence, view, batch, committed = item
        if not isinstance(sequence, int) or isinstance(sequence, bool):
            return False
        if not isinstance(view, int) or isinstance(view, bool):
            return False
        if not isinstance(batch, Batch) or not isinstance(committed, bool):
            return False
        if sequence <= floor or sequence > floor + 2 * self.log_window:
            return False
        return all(
            isinstance(request, ClientRequest) and self._client_authenticated(request)
            for request in batch.requests
        )

    def _adopt_transferred_progress(self, floor: int, matching: list) -> None:
        """Adopt in-window ordering progress shipped with a state transfer.

        The ``prepared`` payload is no better authenticated than the state
        itself, so the same rule applies: an entry counts only when every
        one of the ``f + 1`` matching responders ships it byte-identically
        (at least one of them is correct, and a correct replica only
        reports batches it really committed or prepared).  Committed
        batches join the execution queue directly; prepared-but-open
        instances are re-entered at the ordering layer so this replica can
        cast its votes immediately.
        """
        threshold = self.f + 1
        support: Dict[tuple, int] = {}
        for response in matching:
            prepared = response.prepared if isinstance(response.prepared, tuple) else ()
            seen: set[tuple] = set()
            # Per-response cap: a faulty responder's oversized payload must
            # not grow the support map beyond what a window can hold.
            for item in prepared[: 4 * self.log_window]:
                if item in seen or not self._valid_transfer_entry(item, floor):
                    continue
                seen.add(item)
                support[item] = support.get(item, 0) + 1
        adopted = sorted(
            (item for item, count in support.items() if count >= threshold),
            key=lambda item: item[0],
        )
        for sequence, view, batch, committed in adopted:
            self._ordered_keys.update(batch.keys())
            for request in batch.requests:
                self._unordered.pop(request.key, None)
            if committed:
                self._committed.setdefault(sequence, batch)
                continue
            if view != self.view:
                # A prepared certificate from another view cannot be voted
                # on here; the view-change protocol re-arbitrates it.
                continue
            key = (view, sequence)
            batch_digest = digest(batch)
            if key not in self._pre_prepares:
                self._pre_prepares[key] = PrePrepare(
                    view=view,
                    sequence=sequence,
                    batch_digest=batch_digest,
                    batch=batch,
                    primary=self.primary_of(view),
                )
            if not self.is_primary and key not in self._sent_prepare:
                self._sent_prepare.add(key)
                self._multicast(
                    Prepare(
                        view=view,
                        sequence=sequence,
                        batch_digest=batch_digest,
                        replica=self.replica_id,
                    )
                )
            self._maybe_send_commit(view, sequence, batch_digest)

    def _valid_checkpoint_proof(
        self, proof: tuple, sequence: int, state_digest: str
    ) -> bool:
        """Structural check of a checkpoint certificate: 2f + 1 distinct
        replicas vouching for the same (sequence, state digest)."""
        if len(proof) > self.n:
            # More votes than replicas means padding; reject rather than
            # store/iterate/re-propagate an attacker-sized tuple.
            return False
        replicas = set()
        for vote in proof:
            if not isinstance(vote, Checkpoint):
                return False
            if vote.sequence != sequence or vote.state_digest != state_digest:
                return False
            if vote.replica not in self.replica_ids:
                return False
            replicas.add(vote.replica)
        return len(replicas) >= self.quorum

    def _checkpoint_certificate(self, proof: tuple) -> Optional[tuple[int, str]]:
        """The (sequence, digest) a structurally valid proof certifies."""
        if not proof or not isinstance(proof[0], Checkpoint):
            return None
        head = proof[0]
        if self._valid_checkpoint_proof(proof, head.sequence, head.state_digest):
            return (head.sequence, head.state_digest)
        return None

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------

    def check_timeouts(self) -> None:
        """Start a view change if a buffered request has waited too long.

        Called by the service after advancing simulated time; a real
        deployment would use wall-clock timers.
        """
        if self.is_silent:
            return
        now = self.network.now
        overdue = [
            key
            for key, since in self._buffered_since.items()
            if key not in self._executed_keys and now - since > self.view_change_timeout
        ]
        if not overdue:
            return
        # Progress may be gated on a checkpoint certificate (the window is
        # full) or on a state transfer whose messages were dropped by a
        # partition; re-multicast the cheap idempotent pieces before
        # escalating to a view change.
        if self._own_checkpoint is not None and self._own_checkpoint.sequence > self.stable_checkpoint:
            self._multicast(self._own_checkpoint)
        if self.stable_checkpoint > self.last_executed:
            self._request_state(self.stable_checkpoint)
        if self._view_changing:
            # The view change itself has stalled (e.g. the designated new
            # primary is partitioned away and can never gather a quorum).
            # PBFT's answer is to escalate: after another timeout, vote for
            # the *next* view so the primary role rotates past the
            # unreachable replica.
            if now - self._view_change_started_at > self.view_change_timeout:
                self._start_view_change(self._highest_vote + 1)
            return
        self._start_view_change(self.view + 1)

    def force_view_change(self) -> None:
        """Vote to leave the current view now, regardless of timers.

        Used by fault schedules (:mod:`repro.sim.faults`) to model
        suspicious replicas / view-change storms without waiting for a
        request to go overdue.
        """
        if self.is_silent or self._view_changing:
            return
        self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        new_view = max(new_view, self.view + 1)
        self._obs_view_changes.inc()
        self._view_changing = True
        self._view_change_started_at = self.network.now
        if self._flight.enabled:
            self._flight.record(
                "view-change",
                self.replica_id,
                self.network.now,
                new_view=new_view,
                last_executed=self.last_executed,
                stable_checkpoint=self.stable_checkpoint,
            )
        self._highest_vote = max(self._highest_vote, new_view)
        # Report every prepared certificate this replica holds above its
        # stable checkpoint — including sequences it already executed.  A
        # new primary that missed part of the history (it was partitioned
        # while the rest of the quorum executed) needs those certificates
        # to re-propose the *real* batches at the old numbers; otherwise it
        # would null-fill them and silently diverge from the other correct
        # replicas.  Execution is idempotent per request, so replicas that
        # already ran them are unaffected.  Sorted iteration lets a later
        # view's certificate for the same sequence win.
        prepared: dict[int, tuple[int, Batch]] = {}
        for (view, sequence), message in sorted(self._pre_prepares.items()):
            if sequence <= self.stable_checkpoint:
                continue
            if self._prepared(view, sequence, message.batch_digest):
                prepared[sequence] = (view, message.batch)
        vote = ViewChange(
            new_view=new_view,
            replica=self.replica_id,
            last_executed=self.last_executed,
            prepared=prepared,
            highest_sequence=self.next_sequence - 1,
            stable_checkpoint=self.stable_checkpoint,
            checkpoint_proof=self._checkpoint_proof,
        )
        self._view_change_votes.setdefault(new_view, {})[self.replica_id] = vote
        self._multicast(vote)
        self._maybe_install_view(new_view)

    def _on_view_change(self, sender: Hashable, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        self._view_change_votes.setdefault(message.new_view, {})[sender] = message
        # Bound the map: a faulty replica naming millions of distinct
        # future views must not grow it.  Keep the *lowest* pending views —
        # view numbers advance one certificate at a time, so far-future
        # entries can only be junk — plus whatever view we voted for.
        if len(self._view_change_votes) > 16:
            keep = set(sorted(self._view_change_votes)[:16])
            keep.add(self._highest_vote)
            self._view_change_votes = {
                view: votes
                for view, votes in self._view_change_votes.items()
                if view in keep
            }
            if message.new_view not in self._view_change_votes:
                return
        # Join the view change once f + 1 replicas are asking for it (we
        # cannot all be faulty), even if our own timer has not fired — and
        # also when they ask for a *higher* view than the one we are
        # currently voting for, otherwise concurrent change attempts can
        # deadlock one vote short of every quorum.
        votes = self._view_change_votes[message.new_view]
        if len(votes) >= self.f + 1 and (
            not self._view_changing or message.new_view > self._highest_vote
        ):
            self._start_view_change(message.new_view)
        self._maybe_install_view(message.new_view)

    def _maybe_install_view(self, new_view: int) -> None:
        votes = self._view_change_votes.get(new_view, {})
        if len(votes) < self.quorum:
            return
        if self.primary_of(new_view) != self.replica_id:
            return
        if new_view <= self.view:
            return
        # The quorum's best *certified and corroborated* stable checkpoint
        # is the floor: nothing at or below it needs re-proposing.  The
        # proof alone is only structurally checkable (its inner votes are
        # not origin-authenticated), so additionally require f + 1 voters
        # to report a stable checkpoint at least that high — at least one
        # of them is correct, and a correct replica only reaches a stable
        # checkpoint through a real certificate.
        stable = self.stable_checkpoint
        stable_proof = self._checkpoint_proof
        candidates = []
        for vote in votes.values():
            if vote.stable_checkpoint <= stable:
                continue
            certificate = self._checkpoint_certificate(vote.checkpoint_proof)
            if certificate is not None and certificate[0] == vote.stable_checkpoint:
                candidates.append((vote.stable_checkpoint, vote.checkpoint_proof))
        for candidate_stable, candidate_proof in sorted(
            candidates, key=lambda candidate: candidate[0], reverse=True
        ):
            support = sum(
                1 for vote in votes.values() if vote.stable_checkpoint >= candidate_stable
            )
            if support >= self.f + 1:
                stable = candidate_stable
                stable_proof = candidate_proof
                break
        # Collect every batch reported prepared by some member of the
        # quorum.  Per sequence, the certificate from the *highest* view
        # wins (PBFT's rule): a batch superseded by a later view's
        # null-fill or re-proposal must not resurface just because the
        # older certificate's vote arrived first.
        best: dict[int, tuple[int, Batch]] = {}
        max_executed = 0
        max_sequence = 0
        for vote in votes.values():
            max_executed = max(max_executed, vote.last_executed)
            max_sequence = max(max_sequence, vote.highest_sequence)
            for sequence, (certificate_view, batch) in vote.prepared.items():
                if sequence <= stable:
                    continue
                current = best.get(sequence)
                if current is None or certificate_view > current[0]:
                    best[sequence] = (certificate_view, batch)
        reproposals = {sequence: batch for sequence, (_, batch) in best.items()}
        announcement = NewView(
            view=new_view,
            primary=self.replica_id,
            reproposals=reproposals,
            stable_checkpoint=stable,
            checkpoint_proof=stable_proof,
        )
        self._multicast(announcement)
        self._enter_view(
            new_view, reproposals, max(max_executed, max_sequence), stable, stable_proof
        )

    def _on_new_view(self, sender: Hashable, message: NewView) -> None:
        if message.view <= self.view:
            return
        if sender != self.primary_of(message.view):
            return
        stable = self.stable_checkpoint
        stable_proof = self._checkpoint_proof
        if message.stable_checkpoint > stable:
            certificate = self._checkpoint_certificate(message.checkpoint_proof)
            supporters = sum(
                1
                for vote in self._view_change_votes.get(message.view, {}).values()
                if vote.stable_checkpoint >= message.stable_checkpoint
            )
            # Corroborate the announced floor against the view-change votes
            # we saw ourselves; an uncorroborated floor is simply not
            # adopted (we keep more log than strictly needed, never less).
            if (
                certificate is not None
                and certificate[0] == message.stable_checkpoint
                and supporters >= self.f + 1
            ):
                stable = message.stable_checkpoint
                stable_proof = message.checkpoint_proof
        votes = self._view_change_votes.get(message.view, {}).values()
        max_executed = max(
            [self.last_executed]
            + [vote.last_executed for vote in votes]
            + [vote.highest_sequence for vote in votes],
        )
        self._enter_view(
            message.view, dict(message.reproposals), max_executed, stable, stable_proof
        )

    def _enter_view(
        self,
        new_view: int,
        reproposals: dict[int, Batch],
        max_executed: int,
        stable: int,
        stable_proof: tuple[Checkpoint, ...],
    ) -> None:
        self.view = new_view
        self._view_changing = False
        if self._flight.enabled:
            self._flight.record(
                "view-installed",
                self.replica_id,
                self.network.now,
                view=new_view,
                reproposals=len(reproposals),
            )
        self._sent_prepare.clear()
        self._sent_commit.clear()
        if stable > self.stable_checkpoint:
            # Adopt the quorum's certified checkpoint horizon; if we have
            # not executed up to it ourselves, fetch the state.
            self.stable_checkpoint = stable
            self._checkpoint_proof = stable_proof
            self._stable_state = self._checkpoint_states.get(stable)
            self._truncate(stable)
            if self.last_executed < stable:
                self._request_state(stable)
        highest = max(
            [self.next_sequence - 1, max_executed, self.last_executed, self.stable_checkpoint]
            + list(reproposals.keys())
        )
        self.next_sequence = highest + 1
        # A request ordered in an earlier view but neither executed nor
        # re-proposed by the quorum would otherwise be stuck forever: its
        # key sits in _ordered_keys, so retransmissions are ignored and it
        # is never assigned a new sequence number.  Rebuild the set from
        # what actually survives into the new view; execution is idempotent
        # per request, so re-ordering a request that does eventually commit
        # under its old number is harmless.
        self._ordered_keys = set(self._executed_keys)
        for batch in reproposals.values():
            self._ordered_keys.update(batch.keys())
        self._unordered = {
            key: request
            for key, request in self._buffered.items()
            if key not in self._ordered_keys and key not in self._executed_keys
        }
        if self.is_primary:
            # Re-propose every sequence number above the checkpoint floor
            # up to the highest one assigned anywhere, keeping the quorum's
            # prepared batches under their old numbers.  Sequences nobody
            # prepared would otherwise be permanent holes — execution is
            # strictly contiguous — so they are plugged: with this
            # replica's own committed batch if it has one, else with a
            # no-op null batch (PBFT's rule).
            floor = max(self.last_executed, self.stable_checkpoint)
            for sequence in range(floor + 1, self.next_sequence):
                batch = reproposals.get(sequence) or self._committed.get(sequence)
                if batch is None:
                    batch = null_batch(sequence)
                message = PrePrepare(
                    view=self.view,
                    sequence=sequence,
                    batch_digest=digest(batch),
                    batch=batch,
                    primary=self.replica_id,
                )
                self._pre_prepares[(self.view, sequence)] = message
                self._ordered_keys.update(batch.keys())
                for key in batch.keys():
                    self._unordered.pop(key, None)
                self._multicast(message)
                self._maybe_send_commit(self.view, sequence, message.batch_digest)
            # Then assign fresh numbers to the still-buffered requests.
            self._maybe_drain()
        # Reset request timers so we do not immediately trigger another change.
        for key in self._buffered_since:
            self._buffered_since[key] = self.network.now
        # Votes for views at or below the one just entered can never be
        # used again (both install paths ignore them): drop them.
        self._view_change_votes = {
            view: votes for view, votes in self._view_change_votes.items() if view > new_view
        }
        # Replay ordering messages that overtook the NEW-VIEW announcement.
        replay, self._future_messages = self._future_messages, {}
        for sender, messages in replay.items():
            for message in messages:
                self.on_message(sender, message)
        self._replay_out_of_window()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def statistics(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "last_executed": self.last_executed,
            "stable_checkpoint": self.stable_checkpoint,
            "buffered": len(self._buffered),
            "log_instances": len(self._pre_prepares),
            "state_transfers": int(self._obs_state_transfers.value),
            "fault_mode": self.fault_mode.value,
            "batches_proposed": int(self._obs_batches.value),
            "pending_unordered": len(self._unordered),
            "view_changes_started": int(self._obs_view_changes.value),
            "checkpoints_taken": int(self._obs_checkpoints.value),
            "truncations": int(self._obs_truncations.value),
            "reply_cache_hits": int(self._obs_reply_cache_hits.value),
            "requests_executed": int(self._obs_executed.value),
        }

    def __repr__(self) -> str:
        return (
            f"OrderingNode(id={self.replica_id!r}, view={self.view}, "
            f"executed={self.last_executed}, stable={self.stable_checkpoint}, "
            f"mode={self.fault_mode.value})"
        )
