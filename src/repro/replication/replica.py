"""The replica application: reference monitor + augmented tuple space.

A :class:`PEATSReplica` is the deterministic state machine that the
ordering protocol replicates (the "Tuple space + interceptor" box of
Fig. 2).  It executes one :class:`~repro.replication.messages.ClientRequest`
at a time, in the order decided by the ordering layer:

1. the interceptor (a :class:`~repro.policy.monitor.ReferenceMonitor`)
   evaluates the request against the access policy and the *local* copy of
   the tuple space;
2. if allowed, the corresponding tuple-space operation is executed;
3. the result — which is a deterministic function of the replica state and
   the request — is returned so the ordering layer can reply to the client.

Because every correct replica holds the same policy, receives the same
requests in the same order and both the monitor and the space are
deterministic, all correct replicas produce identical results; the client
only needs ``f + 1`` matching replies to trust one.

Retransmission idempotency follows PBFT's bounded scheme: the replica
remembers the *last* reply per client (``PEATSClient`` keeps at most one
request in flight per replica group, so an older request id from the same
client is a stale retransmission, answered from the cache and never
re-executed).  The cache
is therefore bounded by the number of clients, not by the number of
requests ever executed — which is what lets the ordering layer truncate
its own per-request bookkeeping at checkpoints.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.notify import WaiterTable
from repro.obs import resolve_obs
from repro.peo.base import DENIED
from repro.policy.invocation import Invocation
from repro.policy.monitor import ReferenceMonitor
from repro.policy.policy import AccessPolicy
from repro.replication.crypto import digest
from repro.replication.messages import (
    CancelWaiter,
    ClientRequest,
    Notify,
    RegisterWaiter,
    TxnAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
)
from repro.tspace.augmented import AugmentedTupleSpace
from repro.tuples import Entry, Template, is_defined
from repro.txn.legs import apply_legs, leg_names, resolve_legs
from repro.txn.state import CoordinatorTable, LockTable, ParticipantTable

__all__ = ["DENIED", "TXN_LOCKED", "PEATSReplica", "ExecutionResult"]

#: Reply status of an operation refused because a prepared cross-shard
#: transaction holds a conflicting name lock.  The payload carries the
#: wire-safe ``(txn_id, coordinator_shard, expired)`` triple a client
#: needs to retry — or, once ``expired`` is true, to force-resolve the
#: abandoned transaction at its coordinator group.
TXN_LOCKED = "TXN-LOCKED"


#: Tracer phase of the commit-protocol steps that have one.
_TRACED_STEPS = {
    "txn_prepare": "txn-prepare",
    "txn_decision": "txn-decision",
    "txn_force": "txn-decision",
}


class ExecutionResult:
    """The outcome of executing one request on one replica."""

    __slots__ = ("value", "denied", "reason", "locked")

    def __init__(
        self,
        value: Any,
        *,
        denied: bool = False,
        reason: str = "",
        locked: Any = None,
    ) -> None:
        self.value = value
        self.denied = denied
        self.reason = reason
        self.locked = locked

    def as_payload(self) -> Any:
        """A picklable, comparable representation for reply voting."""
        if self.denied:
            return (DENIED, self.reason)
        if self.locked is not None:
            return (TXN_LOCKED, self.locked)
        return ("OK", self.value)

    def __repr__(self) -> str:
        status = "denied" if self.denied else "locked" if self.locked else "ok"
        return f"ExecutionResult({status}, value={self.value!r})"


class PEATSReplica:
    """One replica's copy of the policy-enforced augmented tuple space."""

    #: Operations a replica understands: the augmented tuple space API
    #: (minus the blocking reads, which a replicated object cannot offer
    #: without a callback channel) plus the transaction sub-protocol.
    #: ``txn_exec`` is the single-group all-or-nothing batch; the
    #: prepare/vote/decision/force/apply quintet is the cross-shard
    #: atomic-commit protocol of :mod:`repro.txn`.  Transaction control
    #: operations are not themselves policy-governed — every staged *leg*
    #: is authorized individually as its non-transactional equivalent, so
    #: the PEO can veto any leg but a policy never needs to know the
    #: commit protocol exists.
    SUPPORTED_OPERATIONS = (
        "out",
        "rdp",
        "inp",
        "cas",
        "txn_exec",
        "txn_prepare",
        "txn_vote",
        "txn_decision",
        "txn_force",
        "txn_apply",
    )

    #: Executed-op-count lifetime of a prepared transaction's locks and of
    #: its coordinator record's force-resolution horizon.  Measured on the
    #: replica's own ordered execution counter — never a clock — so every
    #: correct replica of a group expires the same transaction at the same
    #: point of the same request sequence.  Retried probes that bounce off
    #: a lock are themselves ordered operations, so a wedged name drives
    #: its own lock toward expiry.
    TXN_TTL_OPS = 64

    def __init__(
        self,
        replica_id: Any,
        policy: AccessPolicy,
        *,
        f: int = 1,
        txn_ttl_ops: int | None = None,
        obs: Any = None,
        now_fn: Any = None,
    ) -> None:
        self.replica_id = replica_id
        self.f = f
        self.txn_ttl_ops = self.TXN_TTL_OPS if txn_ttl_ops is None else txn_ttl_ops
        self._policy = policy
        self._space = AugmentedTupleSpace()
        self._monitor = ReferenceMonitor(policy)
        # Transaction state (repro.txn): all three tables are part of the
        # replicated state machine — mutated only by ordered requests and
        # included in capture_state/state_digest, so checkpoints and state
        # transfer carry in-flight transactions exactly like tuples.
        self._op_counter = 0
        self._locks = LockTable()
        self._txn_coord = CoordinatorTable()
        self._txn_part = ParticipantTable()
        # Replica→client wire messages execution queued (waiter wake-ups,
        # transaction pushes), drained by the ordering layer once per batch.
        self._outbox: list[Any] = []
        # Last executed (request_id, reply payload) per client: PBFT's
        # bounded reply cache.  One entry suffices because PEATSClient
        # keeps at most one request in flight per replica group.
        self._last_reply: dict[Any, tuple[int, Any]] = {}
        # Soft-state waiter registrations (repro.notify): deliberately
        # OUTSIDE capture_state — registrations arrive outside the ordered
        # request stream, so correct replicas legitimately disagree about
        # them and checkpoints must not.
        self._waiters = WaiterTable()
        self.obs = resolve_obs(obs)
        registry = self.obs.registry
        self._tracer = self.obs.tracer
        self._flight = self.obs.flight
        # Flight-event timestamp source: the owning service passes its
        # transport clock; standalone replicas (unit tests, the local
        # backend) stamp 0.0 — the recorder itself never reads a clock.
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self._obs_operations = registry.counter(
            "peats_operations_total", "Invocations the reference monitor authorized"
        )
        self._obs_denials = registry.counter(
            "peats_denials_total", "Invocations the reference monitor denied, by reason kind"
        )
        self._obs_node = str(replica_id)
        self._obs_op_children: dict[str, Any] = {}
        self._obs_waiters = registry.gauge(
            "notify_waiters", "Armed waiter registrations on this replica"
        ).labels(node=self._obs_node)
        self._obs_suppressed = registry.counter(
            "notify_suppressed_total",
            "Notifications withheld because the access policy denied the waiter",
        ).labels(node=self._obs_node)
        self._obs_pushed = registry.counter(
            "notify_pushed_total", "Waiter notifications this node pushed to clients"
        ).labels(node=self._obs_node)

    def _flight_event(self, kind: str, **fields: Any) -> None:
        """Record one flight event of this replica (flight recording on)."""
        self._flight.record(kind, self.replica_id, self._now(), **fields)

    # ------------------------------------------------------------------
    # Deterministic execution
    # ------------------------------------------------------------------

    def last_request_id(self, client: Any) -> Optional[int]:
        """The request id of the last request executed for ``client``."""
        cached = self._last_reply.get(client)
        return cached[0] if cached is not None else None

    def cached_reply(self, request: ClientRequest) -> Optional[Any]:
        """The cached reply for an exact retransmission, else ``None``."""
        cached = self._last_reply.get(request.client)
        if cached is not None and cached[0] == request.request_id:
            return cached[1]
        return None

    def execute(self, request: ClientRequest) -> Any:
        """Execute ``request`` and return its reply payload.

        Re-executing the client's latest request returns the cached reply,
        and a request *older* than the client's latest is a stale
        retransmission or a view-change re-proposal of an already-executed
        request: neither may change the state twice.
        """
        cached = self._last_reply.get(request.client)
        if cached is not None and cached[0] >= request.request_id:
            return cached[1]
        # The ordered-execution counter is the deterministic clock the
        # transaction layer measures lock expirations against: every fresh
        # execution ticks it, every correct replica ticks it at the same
        # request, and cached retransmissions do not.
        self._op_counter += 1
        result = self._execute_once(request)
        payload = result.as_payload()
        self._last_reply[request.client] = (request.request_id, payload)
        return payload

    def _execute_once(self, request: ClientRequest) -> ExecutionResult:
        operation = request.operation
        arguments = request.arguments
        if operation not in self.SUPPORTED_OPERATIONS:
            return ExecutionResult(None, denied=True, reason=f"unsupported operation {operation!r}")
        if operation.startswith("txn_"):
            return self._execute_txn(request)
        invocation = Invocation(
            process=request.client, operation=operation, arguments=arguments
        )
        decision = self._monitor.authorize(invocation, self._space)
        if not decision.allowed:
            # Labelled by the bounded reason *kind*; the full text (which can
            # quote the client's own arguments) goes to the flight recorder.
            self._obs_denials.labels(
                node=self._obs_node, operation=operation, reason=decision.kind
            ).inc()
            if self._flight.enabled:
                self._flight_event(
                    "policy-deny",
                    key=request.key,
                    operation=operation,
                    reason=str(decision.reason),
                )
            return ExecutionResult(None, denied=True, reason=decision.reason)
        counter = self._obs_op_children.get(operation)
        if counter is None:
            # repro-lint: disable=RL006 — keyed by operation name, bounded
            # by the PEATS operation vocabulary (out/rd/in/cas/...).
            counter = self._obs_op_children[operation] = self._obs_operations.labels(
                node=self._obs_node, operation=operation
            )
        counter.inc()
        if len(self._locks):
            conflict = self._locks.conflicting(
                self._operation_names(operation, arguments), self._op_counter
            )
            if conflict is not None:
                return ExecutionResult(None, locked=conflict)
        if operation == "out":
            result = ExecutionResult(self._space.out(arguments[0]))
            self._collect_matches(arguments[0], request)
            return result
        if operation == "rdp":
            return ExecutionResult(self._space.rdp(arguments[0]))
        if operation == "inp":
            return ExecutionResult(self._space.inp(arguments[0]))
        if operation == "cas":
            inserted, existing = self._space.cas(arguments[0], arguments[1])
            if inserted:
                self._collect_matches(arguments[1], request)
            return ExecutionResult((inserted, existing))
        raise AssertionError(f"unreachable operation {operation!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Transactions (repro.txn)
    # ------------------------------------------------------------------

    @staticmethod
    def _operation_names(operation: str, arguments: tuple) -> tuple:
        """The name fields an ordinary operation touches (None = wildcard)."""
        names: list[Any] = []
        for argument in arguments:
            if isinstance(argument, (Entry, Template)) and argument.fields:
                field = argument.fields[0]
                names.append(field if is_defined(field) else None)
        return tuple(names)

    def _push_to_owner(self, push: type, txn_id: tuple, **fields: Any) -> None:
        """Queue one transaction push, addressed to the transaction's owner."""
        self._outbox.append(
            push(replica=self.replica_id, client=txn_id[0], txn_id=tuple(txn_id), **fields)
        )

    def _execute_txn(self, request: ClientRequest) -> ExecutionResult:
        operation = request.operation
        arguments = request.arguments
        if self._tracer.enabled and operation in _TRACED_STEPS:
            # Commit-protocol steps get their own lifecycle phases, so a
            # trace timeline shows prepare→decision.
            self._tracer.record(
                _TRACED_STEPS[operation], request.key, self.replica_id, self._now()
            )
        try:
            if operation == "txn_exec":
                return self._txn_exec(request, *arguments)
            if operation == "txn_prepare":
                return self._txn_prepare(request, *arguments)
            if operation == "txn_vote":
                return self._txn_vote(request, *arguments)
            if operation == "txn_decision":
                return self._txn_decision(request, *arguments)
            if operation == "txn_force":
                return self._txn_force(request, *arguments)
            return self._txn_apply(request, *arguments)
        except TypeError:
            # Malformed argument arity from a faulty client: a deterministic
            # refusal, never a crashed replica.
            return ExecutionResult(None, denied=True, reason=f"malformed {operation} arguments")

    def _txn_exec(self, request: ClientRequest, legs: tuple) -> ExecutionResult:
        """The degenerate one-group transaction: resolve + apply as one
        ordered operation (the local/replicated/single-shard fast path)."""
        if len(self._locks):
            conflict = self._locks.conflicting(
                tuple(name for leg in legs for name in leg_names(leg)), self._op_counter
            )
            if conflict is not None:
                return ExecutionResult(None, locked=conflict)
        ok, reason, pins = resolve_legs(self._monitor, self._space, request.client, legs)
        if not ok:
            return ExecutionResult(("aborted", reason))
        results, inserted = apply_legs(self._space, legs, pins)
        for entry in inserted:
            self._collect_matches(entry, request)
        return ExecutionResult(("committed", results))

    def _txn_prepare(
        self, request: ClientRequest, txn_id: tuple, participants: tuple
    ) -> ExecutionResult:
        """Coordinator: record the transaction and its resolution horizon."""
        record = self._txn_coord.prepare(
            tuple(txn_id), tuple(participants), self._op_counter + self.txn_ttl_ops
        )
        self._push_to_owner(TxnPrepare, txn_id, participants=record[0], expires_at=record[1])
        return ExecutionResult(("prepared", record[0], record[1]))

    def _txn_vote(
        self,
        request: ClientRequest,
        txn_id: tuple,
        coordinator_shard: int,
        shard: int,
        legs: tuple,
    ) -> ExecutionResult:
        """Participant: order a lock-or-refuse decision on the touched names.

        A *yes* vote locks every touched name and pins the matched entries
        — the snapshot the commit will apply.  A *no* vote (policy denial,
        missing ``rd``/``in`` match, conflicting lock) locks nothing and is
        final: the recorded vote is what a later ``txn_apply`` is checked
        against, so a lying replica cannot retro-actively "have voted yes".
        """
        record = self._txn_part.get(tuple(txn_id))
        if record is None:
            names = tuple(name for leg in legs for name in leg_names(leg))
            conflict = self._locks.conflicting(names, self._op_counter)
            if conflict is not None:
                # The full conflict triple rides in the reason so the
                # refused transaction's driver can resolve the blocker
                # (force an expired one, back off from a live one).
                vote, reason, pins = "no", ("locked",) + tuple(conflict), ()
            else:
                ok, failure, pins = resolve_legs(
                    self._monitor, self._space, txn_id[0], legs
                )
                if ok:
                    vote, reason = "yes", None
                    self._locks.acquire(
                        tuple(txn_id),
                        names,
                        self._op_counter + self.txn_ttl_ops,
                        coordinator_shard,
                    )
                    if self._flight.enabled:
                        self._flight_event(
                            "lock-grant",
                            txn=repr(tuple(txn_id)),
                            names=sorted(str(name) for name in names),
                            expires_at=self._op_counter + self.txn_ttl_ops,
                        )
                else:
                    vote, reason, pins = "no", failure, ()
            record = self._txn_part.vote(
                tuple(txn_id), shard, tuple(legs), tuple(pins), vote, reason
            )
        pins_digest = digest(record[2])
        self._push_to_owner(
            TxnVote,
            txn_id,
            shard=record[0],
            vote=record[3],
            reason=record[4],
            pins_digest=pins_digest,
        )
        return ExecutionResult(("vote", record[3], record[4], pins_digest))

    def _commit_evidence_valid(self, participants: tuple, evidence: tuple) -> bool:
        """Structural check of a commit's vote certificates.

        Every recorded participant must be covered by a yes-certificate
        naming at least ``f + 1`` distinct replicas of its group.  The
        certificates are plain relayed data — the *binding* safety rule is
        that participants only ever apply legs they themselves voted for
        and locked — but the structural check stops a buggy client from
        committing past an incomplete vote round.
        """
        try:
            certified = {}
            for shard, vote, replicas in evidence:
                if vote == "yes" and len(set(replicas)) >= self.f + 1:
                    certified[shard] = True
            return all(shard in certified for shard in participants)
        except (TypeError, ValueError):
            return False

    def _txn_decision(
        self,
        request: ClientRequest,
        txn_id: tuple,
        outcome: str,
        reason: Any,
        evidence: tuple,
    ) -> ExecutionResult:
        """Coordinator: order the outcome (commit iff every group voted yes).

        The first ordered decision wins and later ones are answered with
        the recorded outcome, so no interleaving of a slow owner and a
        lock-expiry resolver can certify both a commit and an abort for
        the same transaction.
        """
        record = self._txn_coord.get(tuple(txn_id))
        if record is None:
            return ExecutionResult(("unknown",))
        if outcome not in ("commit", "abort"):
            return ExecutionResult(None, denied=True, reason=f"bad outcome {outcome!r}")
        if record[2] is None and outcome == "commit":
            if not self._commit_evidence_valid(record[0], evidence):
                return ExecutionResult(("invalid-evidence",))
        decided = self._txn_coord.decide(tuple(txn_id), outcome, reason)
        assert decided is not None
        return self._announce_decision(txn_id, decided)

    def _txn_force(self, request: ClientRequest, txn_id: tuple) -> ExecutionResult:
        """Coordinator: resolve an expired transaction (abort iff undecided).

        Any client blocked on an expired lock may submit this; the
        non-blocking property of the protocol rests here — a vanished
        owner's transaction is decided *at the replicated coordinator*, so
        neither a crashed client nor ``f`` faulty replicas can wedge a
        name forever.
        """
        record = self._txn_coord.get(tuple(txn_id))
        if record is None:
            return ExecutionResult(("unknown",))
        expires_at = record[1]
        if record[2] is None:
            if self._op_counter < expires_at:
                return ExecutionResult(("not-expired", expires_at))
            record = self._txn_coord.decide(tuple(txn_id), "abort", ("expired",))
            assert record is not None
            if self._flight.enabled:
                self._flight_event(
                    "lock-expire",
                    txn=repr(tuple(txn_id)),
                    expired_at=expires_at,
                    forced_by=str(request.client),
                )
        return self._announce_decision(txn_id, record)

    def _announce_decision(self, txn_id: tuple, record: tuple) -> ExecutionResult:
        """Push a coordinator record's outcome to the transaction's owner
        and answer whoever ordered (or forced) it with the same."""
        participants, _, outcome, reason = record
        self._push_to_owner(TxnDecision, txn_id, outcome=outcome, reason=reason)
        return ExecutionResult(("decided", outcome, reason, participants))

    def _txn_apply(
        self, request: ClientRequest, txn_id: tuple, outcome: str
    ) -> ExecutionResult:
        """Participant: apply the decision against the pinned snapshot.

        Commits replay the pinned legs (the lock guaranteed nothing moved
        since the vote), fire waiter notifications for inserted entries —
        this is the *only* point transactional effects become visible, so
        watchers fire exactly once, on decision, never on prepare — and
        release the locks.  A commit against a group that never voted yes
        is refused: a forged or misdirected decision cannot make a
        participant apply legs it never locked.
        """
        record = self._txn_part.get(tuple(txn_id))
        if record is None:
            return ExecutionResult(("unknown",))
        if outcome not in ("commit", "abort"):
            return ExecutionResult(None, denied=True, reason=f"bad outcome {outcome!r}")
        shard, legs, pins, vote, reason, applied = record
        if applied is not None:
            return ExecutionResult(("applied", applied, ()))
        if outcome == "commit" and vote != "yes":
            return ExecutionResult(("refused", "did-not-vote-yes"))
        results: tuple = ()
        if outcome == "commit":
            results, inserted = apply_legs(self._space, legs, pins)
            for entry in inserted:
                self._collect_matches(entry, request)
        self._locks.release(tuple(txn_id))
        if self._flight.enabled:
            self._flight_event("lock-release", txn=repr(tuple(txn_id)), outcome=outcome)
        self._txn_part.mark_applied(tuple(txn_id), outcome)
        self._push_to_owner(TxnAck, txn_id, shard=shard, outcome=outcome)
        return ExecutionResult(("applied", outcome, results))

    # ------------------------------------------------------------------
    # Notification channel (repro.notify)
    # ------------------------------------------------------------------

    def on_client_message(self, sender: Hashable, payload: Any) -> None:
        """Arm or disarm one of ``sender``'s waiters (soft state, outside
        the ordered stream; both idempotent).  Anything else is ignored.

        The per-link envelope MAC authenticates the immediate sender and
        registrations are never relayed, so ``sender == payload.client`` is
        the whole origin check — no MAC vector needed.
        """
        if not isinstance(payload, (RegisterWaiter, CancelWaiter)) or sender != payload.client:
            return
        if isinstance(payload, RegisterWaiter):
            accepted = self._waiters.register(
                payload.client, payload.waiter_id, payload.template, payload.operation
            )
            if self._flight.enabled:
                self._flight_event(
                    "waiter-register",
                    client=str(payload.client),
                    waiter_id=payload.waiter_id,
                    operation=payload.operation,
                    accepted=accepted,
                )
        else:
            self._waiters.cancel(payload.client, payload.waiter_id)
            if self._flight.enabled:
                self._flight_event(
                    "waiter-cancel", client=str(payload.client), waiter_id=payload.waiter_id
                )
        self._obs_waiters.set(len(self._waiters))

    @property
    def waiters(self) -> WaiterTable:
        return self._waiters

    def occupancy(self) -> dict[str, int]:
        """Bounded-table fill levels, for the health monitor's occupancy
        probe: current sizes plus the hard caps where one exists."""
        return {
            "waiters": len(self._waiters),
            "waiter_cap": self._waiters.max_waiters,
            "reply_cache": len(self._last_reply),
            "locks": len(self._locks),
        }

    def _collect_matches(self, entry: Any, request: ClientRequest) -> None:
        """Queue a :class:`Notify` per armed waiter matching a fresh insert.

        Called from the ordered execution path, so ``request.key`` — the
        notification's ``event`` — is identical on every correct replica.
        The access policy is applied here, per waiter, using the probe
        operation the waiter stands for: a client whose direct read the
        policy would deny must not learn about the tuple via a push.
        Suppressed waiters stay armed (the policy may allow them later).
        """
        if not isinstance(entry, Entry) or not len(self._waiters):
            return
        entry_digest: Optional[str] = None
        for waiter in self._waiters.matching(entry):
            probe = "inp" if waiter.operation == "in" else "rdp"
            invocation = Invocation(
                process=waiter.client, operation=probe, arguments=(waiter.template,)
            )
            decision = self._monitor.authorize(invocation, self._space)
            if not decision.allowed:
                self._obs_suppressed.inc()
                continue
            if entry_digest is None:
                entry_digest = digest(entry)
            self._outbox.append(
                Notify(
                    replica=self.replica_id,
                    client=waiter.client,
                    waiter_id=waiter.waiter_id,
                    event=request.key,
                    entry=entry,
                    entry_digest=entry_digest,
                )
            )

    def drain_pushes(self) -> tuple:
        """Hand the queued replica→client messages to the ordering layer
        (which owns the network and the fault modes) and clear the outbox.

        A batch's waiter wake-ups leave before its transaction pushes —
        a stable partition, execution order kept within each kind.  The
        order is part of the same-seed trace: every ``SimulatedNetwork.send``
        draws a latency from the seeded RNG, so reordering the sends
        reshuffles the draws and shifts every virtual latency after them.
        """
        if not self._outbox:
            return ()
        drained = tuple(sorted(self._outbox, key=lambda push: not isinstance(push, Notify)))
        self._outbox.clear()
        return drained

    def push_sent(self, push: Any) -> None:
        """Account for one drained push the node actually sent."""
        if isinstance(push, Notify):
            if self._tracer.enabled:
                self._tracer.record("notify", push.event, self.replica_id, self._now())
            if self._flight.enabled:
                self._flight_event(
                    "waiter-notify", client=str(push.client), waiter_id=push.waiter_id
                )
            self._obs_pushed.inc()
        elif self._flight.enabled:
            self._flight_event(
                "txn-vote" if isinstance(push, TxnVote) else "txn-decision",
                txn=repr(push.txn_id),
                client=str(push.client),
                type=type(push).__name__,
            )

    # ------------------------------------------------------------------
    # Checkpoint state capture / transfer
    # ------------------------------------------------------------------

    def capture_state(self) -> tuple:
        """A picklable snapshot of the replica state (space + reply cache).

        Correct replicas execute the same request prefix, so their
        insertion orders — and hence these snapshots — are byte-identical;
        that is the property the checkpoint certificates and the state
        transfer rely on.  Tuples are captured in *insertion* order, not
        re-sorted: template matching picks the oldest insertion first, so
        a replica that installs this state must reproduce the order, or
        its future ``rdp``/``inp`` answers would diverge from replicas
        that executed normally.
        """
        entries = tuple(self._space.snapshot())
        replies = tuple(sorted(self._last_reply.items(), key=repr))
        txn = (
            self._op_counter,
            self._locks.capture(),
            self._txn_coord.capture(),
            self._txn_part.capture(),
        )
        return (entries, replies, txn)

    def install_state(self, state: tuple) -> None:
        """Replace the replica state with a transferred checkpoint snapshot."""
        entries, replies, txn = state
        self._space = AugmentedTupleSpace(entries)
        self._last_reply = {client: tuple(cached) for client, cached in replies}
        # Transaction state travels with checkpoints: a recovering replica
        # resumes with the same locks, votes and decisions — and the same
        # deterministic expiry clock — as the peers it certified against.
        op_counter, locks, coord, part = txn
        self._op_counter = op_counter
        self._locks = LockTable(locks)
        self._txn_coord = CoordinatorTable(coord)
        self._txn_part = ParticipantTable(part)

    def state_digest(self) -> str:
        """Digest of :meth:`capture_state` (checkpoint votes, reply safety)."""
        return digest(self.capture_state())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def space(self) -> AugmentedTupleSpace:
        return self._space

    @property
    def monitor(self) -> ReferenceMonitor:
        return self._monitor

    def __repr__(self) -> str:
        return f"PEATSReplica(id={self.replica_id!r}, tuples={len(self._space)})"
