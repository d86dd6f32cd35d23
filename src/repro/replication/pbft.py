"""A simplified PBFT-style total-order protocol: the ordering core.

The protocol follows the structure of Castro & Liskov's PBFT [3], which is
the replica-coordination protocol the paper suggests for the Fig. 2
deployment, simplified to what the simulation needs:

* ``n = 3f + 1`` replicas, one of which is the *primary* of the current
  view (``primary = view mod n``);
* clients broadcast requests to every replica; the primary drains its
  buffer of pending requests into *batches* of up to ``max_batch_size``,
  assigns each batch one sequence number and multicasts ``PRE-PREPARE``,
  once per turn of its event loop: a request posts one drain, which every
  request queued on the loop joins (the simulation's ``post`` runs it
  inline, so the sim orders exactly as when each request drained at once);
  backups answer with ``PREPARE``; once a replica has the pre-prepare and
  ``2f`` matching prepares it multicasts ``COMMIT``; once it has ``2f + 1``
  matching commits it executes the batch's requests (in sequence order, in
  batch order) on its local application and replies to each request's
  client;
* a request flagged ``read_only`` is never ordered: the node answers it
  from its executed state through ``Application.execute_read_only``,
  once ``last_executed`` has reached its ``commit_frontier`` (the
  highest sequence it ever sent a COMMIT for), and holds it in a
  bounded queue until then (see :mod:`repro.replication.client` for why
  the hold keeps the client's ``2f + 1`` read linearizable);
* checkpoint certificates, log truncation and state transfer live in
  :mod:`repro.replication.checkpointing`, the view change in
  :mod:`repro.replication.viewchange` — two mix-ins of the one
  :class:`OrderingNode`, split out along the protocol's seams;
* every vote the three count — prepares, commits, checkpoints, state
  responses, view changes, and this node's own — is a ballot in one
  :class:`~repro.replication.votes.VoteStore`, which holds one ballot per
  sender per slot and a bounded number of slots per sender, and answers
  every ``f + 1`` / ``2f + 1`` question.

The node reaches the replicated state machine only through the
:class:`~repro.replication.application.Application` interface: it orders
and executes requests without interpreting them, hands un-ordered client
messages to the application unread, and sends whatever replica→client
pushes execution queued.

Remaining omissions relative to full PBFT: replica-to-replica messages
carry per-link HMACs, not MAC vectors, and view-change and checkpoint
messages no digital signatures (see the two mix-in modules for what that
leaves only structurally validated).  Client requests, relayed inside a
``PRE-PREPARE`` batch too, carry a MAC vector (one HMAC per replica under
the client↔replica shared key), and a replica accepts a request only after
verifying its own entry, so a faulty primary cannot forge a request under
another client's name.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, TYPE_CHECKING

from repro.errors import ReplicationError
from repro.obs import resolve_obs
from repro.replication.checkpointing import CheckpointingMixin
from repro.replication.crypto import digest
from repro.replication.messages import (
    NULL_REQUEST_CLIENT,
    Batch,
    Checkpoint,
    ClientReply,
    ClientRequest,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    StateRequest,
    StateResponse,
    ViewChange,
    request_auth_payload,
)
from repro.replication.viewchange import ViewChangeMixin
from repro.replication.votes import COMMIT, PREPARE, VoteStore

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport
    from repro.replication.application import Application

__all__ = ["OrderingNode"]


class OrderingNode(CheckpointingMixin, ViewChangeMixin):
    """One replica of a replicated service: ordering layer + application."""

    #: Read-only requests held until execution reaches the commit
    #: frontier; a new one evicts the oldest, whose client falls back to
    #: the ordered path at its retransmission timeout.
    MAX_HELD_READS = 256

    def __init__(
        self,
        replica_id: Hashable,
        replica_ids: tuple[Hashable, ...],
        f: int,
        application: "Application",
        network: "Transport",
        *,
        view_change_timeout: float | None = None,
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
        self.application = application
        self.network = network
        #: ``None`` takes the transport's, in its own clock's ms.
        self.view_change_timeout = (
            network.view_change_timeout if view_change_timeout is None else view_change_timeout
        )
        self.max_batch_size = max_batch_size
        self.checkpoint_interval = checkpoint_interval
        #: Distance between the low (stable checkpoint) and high water mark.
        self.log_window = log_window if log_window is not None else 2 * checkpoint_interval
        if self.log_window < checkpoint_interval:
            raise ReplicationError("log_window must be at least checkpoint_interval")

        #: Every vote this node counts, its own included.
        self.votes = VoteStore(self.replica_ids, f, self.log_window)
        self.view = 0
        self.next_sequence = 1
        self.last_executed = 0
        self.stable_checkpoint = 0
        #: The highest sequence this node ever sent a COMMIT for.  Monotone:
        #: a new view's COMMIT slots start empty, this does not.
        self.commit_frontier = 0

        # Ordering state, keyed by (view, sequence); truncated below the
        # stable checkpoint.
        self._pre_prepares: Dict[tuple[int, int], PrePrepare] = {}
        self._committed: Dict[int, Batch] = {}

        # Client-request bookkeeping, dropped at the stable checkpoint (the
        # application's per-client reply cache covers retransmissions).
        self._buffered: Dict[tuple, ClientRequest] = {}
        self._buffered_since: Dict[tuple, float] = {}
        # FIFO of buffered requests not yet in a batch, which the primary's
        # drain consumes: intake stays O(1) per request.
        self._unordered: Dict[tuple, ClientRequest] = {}
        #: Whether a drain is posted to this node's loop and has not run.
        self._drain_posted = False
        self._ordered_keys: set[tuple] = set()
        self._executed_keys: set[tuple] = set()
        self._executed_at: Dict[tuple, int] = {}
        # Read-only requests waiting for last_executed >= commit_frontier,
        # oldest first; never ordered, never timed for a view change.
        self._held_reads: Dict[tuple, ClientRequest] = {}

        # Checkpoint bookkeeping (the votes are in the store).
        self._checkpoint_proof: tuple[Checkpoint, ...] = ()
        self._checkpoint_states: Dict[int, tuple[Any, str]] = {}
        self._stable_state: Optional[tuple[Any, str]] = None
        self._own_checkpoint: Optional[Checkpoint] = None
        # Set when our own checkpoint digest contradicted a stable
        # certificate: the sequence whose certified state we must install
        # even though we already executed past it.
        self._resync_below: Optional[int] = None

        # View-change bookkeeping (the votes are in the store).
        self._view_changing = False
        self._view_change_started_at = 0.0
        self._highest_vote = 0
        # Ordering messages that overtook the NEW-VIEW of their view,
        # bounded per sender (a replica: dispatch enforces it).
        self._future_messages: Dict[Hashable, list[Any]] = {}
        self._future_limit = 4 * self.log_window + 16
        # Pre-prepares above our high water mark (our certificate may lag),
        # replayed when the window slides; one per sequence, under the hard
        # ceiling of ``_in_window``.
        self._out_of_window: Dict[int, tuple[Hashable, PrePrepare]] = {}

        # Observability: pre-bound per-node children on the deployment's
        # registry, the only store of these counts (``statistics`` is a view).
        self.obs = resolve_obs(obs)
        registry = self.obs.registry
        self._events = self.obs.events
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
        self._obs_state_transfers = registry.counter(
            "pbft_state_transfers_total", "Certified states this node installed from peers"
        ).labels(node=node)

        # Replica-to-replica handlers by message type (see on_message).
        self._handlers: Dict[type, Callable[[Hashable, Any], None]] = {
            ClientRequest: self._on_request,
            PrePrepare: self._on_pre_prepare,
            Prepare: self._on_prepare,
            Commit: self._on_commit,
            Checkpoint: self._on_checkpoint,
            StateRequest: self._on_state_request,
            StateResponse: self._on_state_response,
            ViewChange: self._on_view_change,
            NewView: self._on_new_view,
        }
        network.register(replica_id, self.on_message)

    def _event_batch(self, kind: str, batch: Batch) -> None:
        """Record ``kind`` for every real request of a batch (log on)."""
        for request in batch.requests:
            if request.client != NULL_REQUEST_CLIENT:
                self._events.record(kind, self.replica_id, self.network.now, key=request.key)

    def _event(self, kind: str, **fields: Any) -> None:
        """Record one event of this node at the transport's clock (log on)."""
        self._events.record(kind, self.replica_id, self.network.now, **fields)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.replica_ids)

    @property
    def quorum(self) -> int:
        """The 2f + 1 quorum size of the vote store's certificates."""
        return self.votes.quorum

    @property
    def high_water_mark(self) -> int:
        """Highest sequence assignable before the next certificate slides the window."""
        return self.stable_checkpoint + self.log_window

    def primary_of(self, view: int) -> Hashable:
        return self.replica_ids[view % self.n]

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.replica_id

    def _multicast(self, payload: Any) -> None:
        if self._events.enabled:
            self._event("msg-send", type=type(payload).__name__)
        self.network.broadcast(self.replica_id, self.replica_ids, payload)

    def _send(self, receiver: Hashable, payload: Any) -> None:
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
        handler = self._handlers.get(type(payload))
        if sender not in self.votes.senders and type(payload) is not ClientRequest:
            # Only requests enter the ordered stream from outside the group;
            # whatever else a client sends is soft state for the application.
            # The protocol handlers are replica-to-replica only: accepting
            # their messages from arbitrary network identities would let a
            # Byzantine *client* stuff quorums (checkpoint certificates,
            # state-transfer thresholds) or pull a full state dump past
            # the access policy via StateRequest.
            handler = self.application.on_client_message
        if handler is None:
            # Unknown payloads are ignored (a Byzantine node may send garbage).
            return
        if self._events.enabled:
            self._event(
                "msg-recv",
                key=payload.key if isinstance(payload, ClientRequest) else None,
                type=type(payload).__name__,
                sender=str(sender),
            )
        handler(sender, payload)

    # ------------------------------------------------------------------
    # Client requests and batch assembly
    # ------------------------------------------------------------------

    def _client_authenticated(self, request: ClientRequest) -> bool:
        """Verify this replica's entry of the request's client MAC vector.

        Per-link MACs authenticate only the immediate sender, so a request
        relayed inside a ``PRE-PREPARE`` needs its own proof of origin.
        Protocol no-ops (gap fillers) have no client and are accepted in
        their canonical shape only; anything else naming the null client
        is a forgery.
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
            # A client may only speak for itself: one forged request with a
            # huge request_id would poison the victim's reply cache.
            return
        if not self._client_authenticated(request):
            # The backups would reject any batch carrying it.
            return
        if request.read_only:
            self._answer_read(request)
            return
        cached = self.application.cached_reply(request)
        if cached is not None:
            # A retransmission of the client's latest executed request.
            self._obs_reply_cache_hits.inc()
            self._reply(request, cached)
            return
        latest = self.application.last_request_id(request.client)
        if latest is not None and latest >= request.request_id:
            # Stale: the client has one request in flight per group, so a
            # lower id was answered already.
            return
        if request.key in self._executed_keys or request.key in self._ordered_keys:
            return
        self._buffered.setdefault(request.key, request)
        self._buffered_since.setdefault(request.key, self.network.now)
        self._unordered.setdefault(request.key, request)
        self._obs_pending_depth.set(len(self._unordered))
        if not self._drain_posted and self.is_primary:
            self._drain_posted = True
            self.network.post(self.replica_id, self._posted_drain)

    def _posted_drain(self) -> None:
        """The turn's one drain: every request delivered before it joins."""
        self._drain_posted = False
        self._maybe_drain()
        self._obs_pending_depth.set(len(self._unordered))

    def _answer_read(self, request: ClientRequest) -> None:
        """Answer a read-only request from the executed state, once that
        state covers every sequence this node sent a COMMIT for.

        A completed write has a commit certificate, so at least ``f + 1``
        correct replicas sent COMMIT for it; holding their reads until they
        execute it leaves at most ``2f`` replicas able to answer from a
        state before the write — short of the client's ``2f + 1``.
        """
        if self.last_executed < self.commit_frontier:
            if len(self._held_reads) >= self.MAX_HELD_READS:
                del self._held_reads[next(iter(self._held_reads))]
            self._held_reads[request.key] = request
            return
        result = self.application.execute_read_only(request)
        if result is not None:
            self._reply(request, result)

    def _maybe_drain(self) -> None:
        """Primary: drain unordered requests into batches within the window."""
        if not self.is_primary or self._view_changing:
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
        self._obs_batches.inc()
        self._obs_batch_size.observe(float(len(batch.requests)))
        if self._events.enabled:
            self._event_batch("pre-prepare", batch)
        self._propose(sequence, batch)

    # ------------------------------------------------------------------
    # Ordering phases
    # ------------------------------------------------------------------

    def _log_pre_prepare(self, view: int, sequence: int, batch: Batch) -> PrePrepare:
        """Build ``view``'s pre-prepare for ``batch`` and enter it in the log."""
        message = PrePrepare(
            view=view,
            sequence=sequence,
            batch_digest=digest(batch),
            batch=batch,
            primary=self.primary_of(view),
        )
        self._pre_prepares[(view, sequence)] = message
        return message

    def _propose(self, sequence: int, batch: Batch) -> None:
        """Primary: pre-prepare (and log) ``batch`` at ``sequence`` in this view."""
        keys = batch.keys()
        self._ordered_keys.update(keys)
        for key in keys:
            self._unordered.pop(key, None)
        message = self._log_pre_prepare(self.view, sequence, batch)
        self._multicast(message)
        self._maybe_send_commit(self.view, sequence, message.batch_digest)

    def _in_window(self, sender: Hashable, message: Any) -> bool:
        """View and window guard shared by the three ordering phases."""
        if message.view > self.view:
            self._buffer_future(sender, message)
            return False
        if message.view != self.view or message.sequence <= self.stable_checkpoint:
            # Another view, or already covered by a stable checkpoint.
            return False
        if message.sequence > self.stable_checkpoint + 2 * self.log_window:
            # Outside any window a correct replica could be in (a correct
            # primary's leads ours by a certificate at most).
            return False
        # PBFT: while view-changing, accept only checkpoint and view-change
        # traffic; a batch committing here that our cast view-change vote
        # does not report could be null-filled by the new primary.
        return not self._view_changing

    def _on_pre_prepare(self, sender: Hashable, message: PrePrepare) -> None:
        if not self._in_window(sender, message) or sender != self.primary_of(message.view):
            return
        if message.sequence > self.high_water_mark:
            # Our checkpoint certificate may be lagging the primary's;
            # retry once the window slides instead of dropping.
            self._out_of_window[message.sequence] = (sender, message)
            return
        if digest(message.batch) != message.batch_digest:
            return
        try:
            forged = any(
                self._buffered.get(request.key) is not request
                and not self._client_authenticated(request)
                for request in message.batch.requests
            )
        except TypeError:  # an unhashable client or id: never verified
            forged = True
        if forged:
            # A relayed request lacks a valid client MAC for us: a faulty
            # primary forged or tampered with it.  Only the very object
            # verified on receipt skips the check (``==`` equates 1, 1.0
            # and True).
            return
        key = (message.view, message.sequence)
        if key in self._pre_prepares:
            return
        self._pre_prepares[key] = message
        self._ordered_keys.update(message.batch.keys())
        if self._events.enabled:
            self._event_batch("pre-prepare", message.batch)
        for request in message.batch.requests:
            self._unordered.pop(request.key, None)
            if request.client != NULL_REQUEST_CLIENT:
                self._buffered.setdefault(request.key, request)
        # Track the highest sequence number this replica has seen assigned:
        # if it later becomes primary it must not reuse any of them.
        self.next_sequence = max(self.next_sequence, message.sequence + 1)
        self._vote_on(message.view, message.sequence, message.batch_digest)

    def _replay_out_of_window(self) -> None:
        if not self._out_of_window:
            return
        replay, self._out_of_window = self._out_of_window, {}
        for sequence in sorted(replay):
            sender, message = replay[sequence]
            self._on_pre_prepare(sender, message)

    def _vote_on(self, view: int, sequence: int, batch_digest: str) -> None:
        """Backup: multicast PREPARE for a logged pre-prepare, once; then
        COMMIT as soon as the instance is prepared."""
        if not self.is_primary and not self.votes.voted(PREPARE, view, sequence, self.replica_id):
            self.votes.vote(PREPARE, view, sequence, self.replica_id, batch_digest)
            self._multicast(Prepare(view, sequence, batch_digest, self.replica_id))
        self._maybe_send_commit(view, sequence, batch_digest)

    def _on_prepare(self, sender: Hashable, message: Prepare) -> None:
        if self._in_window(sender, message):
            self.votes.vote(PREPARE, message.view, message.sequence, sender, message.batch_digest)
            self._maybe_send_commit(message.view, message.sequence, message.batch_digest)

    def _prepared(self, view: int, sequence: int, batch_digest: str) -> bool:
        """PBFT ``prepared`` predicate: pre-prepare + 2f prepares, the
        primary's pre-prepare and this node counted whatever they cast."""
        logged = self._pre_prepares.get((view, sequence))
        if logged is None or logged.batch_digest != batch_digest:
            return False
        primary = self.primary_of(view)
        also = (primary,) if primary == self.replica_id else (primary, self.replica_id)
        quorum = self.votes.quorum
        return self.votes.certified(PREPARE, view, sequence, quorum, batch_digest, also) is not None

    def _prepared_certificates(self) -> dict[int, tuple[int, Batch]]:
        """Per sequence above the stable checkpoint, the ``(view, batch)``
        this replica holds a prepared certificate for.  Sorted iteration
        lets a later view's certificate for the same sequence win."""
        prepared: dict[int, tuple[int, Batch]] = {}
        for (view, sequence), message in sorted(self._pre_prepares.items()):
            if sequence > self.stable_checkpoint and self._prepared(
                view, sequence, message.batch_digest
            ):
                prepared[sequence] = (view, message.batch)
        return prepared

    def _maybe_send_commit(self, view: int, sequence: int, batch_digest: str) -> None:
        if self.votes.voted(COMMIT, view, sequence, self.replica_id):
            return
        if not self._prepared(view, sequence, batch_digest):
            return
        # Our own commit vote counts at once.
        self.votes.vote(COMMIT, view, sequence, self.replica_id, batch_digest)
        self.commit_frontier = max(self.commit_frontier, sequence)
        if self._events.enabled:
            self._event_batch("prepare", self._pre_prepares[(view, sequence)].batch)
        self._multicast(Commit(view, sequence, batch_digest, self.replica_id))
        self._maybe_execute(view, sequence, batch_digest)

    def _on_commit(self, sender: Hashable, message: Commit) -> None:
        if self._in_window(sender, message):
            self.votes.vote(COMMIT, message.view, message.sequence, sender, message.batch_digest)
            self._maybe_execute(message.view, message.sequence, message.batch_digest)

    def _maybe_execute(self, view: int, sequence: int, batch_digest: str) -> None:
        if self.votes.certified(COMMIT, view, sequence, self.votes.quorum, batch_digest) is None:
            return
        logged = self._pre_prepares.get((view, sequence))
        if logged is None or logged.batch_digest != batch_digest:
            # An equivocating primary sent us another batch here.
            return
        if sequence <= self.last_executed or sequence in self._committed:
            return
        self._committed[sequence] = logged.batch
        if self._events.enabled:
            self._event_batch("commit", logged.batch)
        self._execute_ready()

    def _execute_ready(self) -> None:
        """Execute committed batches in strict sequence order."""
        while (self.last_executed + 1) in self._committed:
            sequence = self.last_executed + 1
            batch = self._committed[sequence]
            for request in batch.requests:
                latest = self.application.last_request_id(request.client)
                stale = latest is not None and latest > request.request_id
                if self._events.enabled and request.client != NULL_REQUEST_CLIENT:
                    self._event(
                        "execute", key=request.key, sequence=sequence, operation=request.operation
                    )
                result = self.application.execute(request)
                self._obs_executed.inc()
                self._executed_keys.add(request.key)
                self._executed_at[request.key] = sequence
                self._forget_buffered(request.key)
                if not stale:
                    # A duplicate re-ordered across a view change after the
                    # client moved on gets no (newer, cached) answer.
                    self._reply(request, result)
            for push in self.application.drain_pushes():
                self._push(push)
            self.last_executed = sequence
            if sequence % self.checkpoint_interval == 0:
                self._take_checkpoint(sequence)
        if self._held_reads and self.last_executed >= self.commit_frontier:
            held, self._held_reads = self._held_reads, {}
            for request in held.values():
                self._answer_read(request)

    def _forget_buffered(self, key: tuple) -> None:
        """Drop a request from the pending-work bookkeeping."""
        self._buffered.pop(key, None)
        self._buffered_since.pop(key, None)
        self._unordered.pop(key, None)

    def _truncate_log(self, sequence: int) -> None:
        """Garbage-collect the ordering log and votes at or below ``sequence``."""
        self._pre_prepares = {
            key: value for key, value in self._pre_prepares.items() if key[1] > sequence
        }
        self._committed = {seq: batch for seq, batch in self._committed.items() if seq > sequence}
        self.votes.truncate(sequence)
        # Per-request bookkeeping below the stable checkpoint: from here on
        # the application's per-client reply cache covers retransmissions.
        for key, executed_at in list(self._executed_at.items()):
            if executed_at <= sequence:
                del self._executed_at[key]
                self._executed_keys.discard(key)
                self._ordered_keys.discard(key)
                self._forget_buffered(key)

    def _reply(self, request: ClientRequest, result: Any) -> None:
        if request.client == NULL_REQUEST_CLIENT:
            # Gap-filling no-ops have no real client to answer.
            return
        if self._events.enabled:
            self._event("reply", key=request.key, client=str(request.client))
        reply = ClientReply(
            replica=self.replica_id,
            view=self.view,
            request_key=request.key,
            result_digest=digest(result),
            result=result,
        )
        self._send(request.client, reply)

    def _push(self, push: Any) -> None:
        """Send one replica→client push the application queued."""
        self.application.push_sent(push)
        self._send(push.client, push)

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
            "batches_proposed": int(self._obs_batches.value),
            "requests_proposed": int(self._obs_batch_size.sum),
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
            f"executed={self.last_executed}, stable={self.stable_checkpoint})"
        )
