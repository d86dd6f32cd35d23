"""A simplified PBFT-style total-order protocol: the ordering core.

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
  batch order) on its local application and replies to each request's
  client;
* checkpoint certificates, log truncation and state transfer live in
  :mod:`repro.replication.checkpointing`, the view change in
  :mod:`repro.replication.viewchange` — two mix-ins of the one
  :class:`OrderingNode`, split out along the protocol's seams.

The node reaches the replicated state machine only through the
:class:`~repro.replication.application.Application` interface: it orders
and executes requests without interpreting them, hands un-ordered client
messages to the application unread, and sends whatever replica→client
pushes execution queued.

Remaining omissions relative to full PBFT: MAC-vector authenticators (we
use per-link HMACs provided by the network), digital signatures on
view-change and checkpoint messages (see the two mix-in modules for what
that leaves only structurally validated), and big-O optimisations.  The
client requests relayed inside a ``PRE-PREPARE`` batch, however, *are*
client-authenticated: every request carries a MAC vector (one HMAC per
target replica under the client↔replica shared key, full PBFT's
authenticator scheme), and a replica accepts a request — direct or relayed
— only after verifying its own entry, so a faulty primary cannot forge a
request under another client's name.  None of this affects the fault-free
and crash-fault scenarios the experiments measure (safety with ``f``
silent/lying replicas, liveness after the failure of a primary,
request/reply message complexity).

Byzantine replica behaviour is modelled with :class:`ReplicaFaultMode`:
``CRASHED`` replicas go silent, ``MUTE`` ones execute but never send
protocol messages, and ``LYING`` ones execute but return corrupted results
to clients (caught by the client's ``f + 1`` matching-reply vote).
"""

from __future__ import annotations

import enum
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
    lying_push,
    request_auth_payload,
)
from repro.replication.viewchange import ViewChangeMixin

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.net.transport import Transport
    from repro.replication.application import Application

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


class OrderingNode(CheckpointingMixin, ViewChangeMixin):
    """One replica of a replicated service: ordering layer + application."""

    def __init__(
        self,
        replica_id: Hashable,
        replica_ids: tuple[Hashable, ...],
        f: int,
        application: "Application",
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
        self._obs_state_transfers = registry.counter(
            "pbft_state_transfers_total", "Certified states this node installed from peers"
        ).labels(node=node)

        # Replica-to-replica protocol handlers by message type; anything
        # else is garbage (from a replica) or the application's business
        # (from a client) — see on_message.
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

    def _trace_batch(self, phase: str, batch: Batch) -> None:
        """Record ``phase`` for every real request of a batch (tracing on)."""
        for request in batch.requests:
            if request.client != NULL_REQUEST_CLIENT:
                self._tracer.record(phase, request.key, self.replica_id, self.network.now)

    def _flight_event(self, kind: str, **fields: Any) -> None:
        """Record one flight event of this node, stamped with the transport
        clock (flight recording on)."""
        self._flight.record(kind, self.replica_id, self.network.now, **fields)

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
            self._flight_event("msg-send", type=type(payload).__name__)
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
        handler = self._handlers.get(type(payload))
        if sender not in self._replica_set and type(payload) is not ClientRequest:
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
        if self._flight.enabled:
            self._flight_event(
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
            # moved past (PEATSClient keeps at most one request in flight
            # per replica group, so a lower id was answered already).
            return
        if request.key in self._executed_keys or request.key in self._ordered_keys:
            return
        self._buffered.setdefault(request.key, request)
        self._buffered_since.setdefault(request.key, self.network.now)
        self._unordered.setdefault(request.key, request)
        self._maybe_drain()
        self._obs_pending_depth.set(len(self._unordered))

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
        self._obs_batches.inc()
        self._obs_batch_size.observe(float(len(batch.requests)))
        if self._tracer.enabled:
            self._trace_batch("pre-prepare", batch)
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
        """Primary: pre-prepare ``batch`` at ``sequence`` in the current view
        (the primary also records its own pre-prepare locally)."""
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
            # primary's can lead ours by at most one certificate): a faulty
            # peer spraying arbitrary sequences must not grow the log.
            return False
        # PBFT: while view-changing, accept only checkpoint and
        # view-change traffic.  Progressing the old view here would let
        # a batch commit that our already-cast view-change vote does
        # not report as prepared — the new primary could then null-fill
        # its sequence number while we execute it, silently diverging.
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
            self._trace_batch("pre-prepare", message.batch)
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
        key = (view, sequence)
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

    def _on_prepare(self, sender: Hashable, message: Prepare) -> None:
        if self._in_window(sender, message):
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
        key = (view, sequence)
        if key in self._sent_commit:
            return
        if not self._prepared(view, sequence, batch_digest):
            return
        self._sent_commit.add(key)
        if self._tracer.enabled:
            self._trace_batch("prepare", self._pre_prepares[key].batch)
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
        if self._in_window(sender, message):
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
            self._trace_batch("commit", self._pre_prepares[key].batch)
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
                if self._flight.enabled and request.client != NULL_REQUEST_CLIENT:
                    self._flight_event(
                        "execute", key=request.key, sequence=sequence, operation=request.operation
                    )
                result = self.application.execute(request)
                self._obs_executed.inc()
                self._executed_keys.add(request.key)
                self._executed_at[request.key] = sequence
                self._forget_buffered(request.key)
                if not stale:
                    # A stale duplicate (the same request re-ordered across
                    # a view change after the client already moved on) must
                    # not be answered with the newer cached payload.
                    self._reply(request, result)
            # Drain unconditionally: MUTE replicas execute too, and their
            # queued pushes must not pile up (_push re-checks the fault
            # mode before actually sending).
            for push in self.application.drain_pushes():
                self._push(push)
            self.last_executed = sequence
            if sequence % self.checkpoint_interval == 0:
                self._take_checkpoint(sequence)

    def _forget_buffered(self, key: tuple) -> None:
        """Drop a request from the pending-work bookkeeping."""
        self._buffered.pop(key, None)
        self._buffered_since.pop(key, None)
        self._unordered.pop(key, None)

    def _truncate_log(self, sequence: int) -> None:
        """Garbage-collect the ordering log at or below ``sequence``."""
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
        # Per-request bookkeeping below the stable checkpoint: from here on
        # the application's per-client reply cache covers retransmissions.
        for key, executed_at in list(self._executed_at.items()):
            if executed_at <= sequence:
                del self._executed_at[key]
                self._executed_keys.discard(key)
                self._ordered_keys.discard(key)
                self._forget_buffered(key)

    def _reply(self, request: ClientRequest, result: Any) -> None:
        if self.is_silent:
            return
        if request.client == NULL_REQUEST_CLIENT:
            # Gap-filling no-ops have no real client to answer.
            return
        if self._tracer.enabled:
            self._tracer.record("reply", request.key, self.replica_id, self.network.now)
        if self._flight.enabled:
            self._flight_event("reply", key=request.key, client=str(request.client))
        if self.fault_mode is ReplicaFaultMode.LYING:
            # The lie is self-consistent (its digest is its result's) and
            # names its replica, so f liars never agree on one wrong answer.
            # A single liar claiming the *correct* digest over a forged
            # result needs no collusion; the client defeats that one by
            # hashing every reply's result on receipt (replication/tally.py).
            result = ("CORRUPTED", self.replica_id, repr(result))
        reply = ClientReply(
            replica=self.replica_id,
            view=self.view,
            request_key=request.key,
            result_digest=digest(result),
            result=result,
        )
        self._send(request.client, reply)

    def _push(self, push: Any) -> None:
        """Send one replica→client push the application queued.

        Pushes count at the client only as part of an ``f + 1`` matching
        pile, so — exactly like replies — each LYING replica corrupts
        *independently* (see :func:`~repro.replication.messages.lying_push`)
        and ``f`` liars can never assemble a certificate.
        """
        if self.is_silent:
            return
        self.application.push_sent(push)
        if self.fault_mode is ReplicaFaultMode.LYING:
            push = lying_push(push, self.replica_id)
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
