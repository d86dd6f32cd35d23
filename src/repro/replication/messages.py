"""Protocol messages of the replicated PEATS.

The message set follows the PBFT family (Castro & Liskov [3]) restricted to
what the simulation needs: client requests and replies, the three ordering
phases over request *batches*, the checkpoint/garbage-collection pair, the
view-change pair, and a minimal checkpoint-fetch used by lagging replicas.
Messages are immutable dataclasses; the network layer wraps them in an
authenticated envelope.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Mapping

__all__ = [
    "ClientRequest",
    "ClientReply",
    "Batch",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "StateRequest",
    "StateResponse",
    "ViewChange",
    "NewView",
    "RegisterWaiter",
    "CancelWaiter",
    "Notify",
    "TxnPrepare",
    "TxnVote",
    "TxnDecision",
    "TxnAck",
    "NULL_REQUEST_CLIENT",
    "null_request",
    "null_batch",
    "request_auth_payload",
    "authenticate_request",
]

#: Pseudo-client of protocol-generated no-op requests (see :func:`null_request`).
NULL_REQUEST_CLIENT = "__pbft-null__"


@dataclasses.dataclass(frozen=True)
class ClientRequest:
    """An operation a client wants the replicated PEATS to execute.

    ``operation``/``arguments`` describe the tuple-space invocation,
    ``client`` is the authenticated client identity (the *process* the
    reference monitor sees) and ``request_id`` makes retransmissions
    idempotent.

    ``auth`` is the client's MAC *vector*: per target replica, an HMAC over
    the request content under the client↔replica shared key (see
    :func:`authenticate_request`).  The per-envelope channel MAC only
    authenticates the immediate sender, so when the primary relays the
    request inside a ``PRE-PREPARE`` batch the backups use this vector to
    check the request really originates from ``client`` — a faulty primary
    cannot forge requests under another client's name.

    ``read_only`` sends the request down the read-only lane: replicas
    answer it from their executed state without ordering it, and the
    client accepts ``2f + 1`` matching replies (see
    :mod:`repro.replication.client`).
    """

    client: Hashable
    request_id: int
    operation: str
    arguments: tuple
    auth: tuple = ()
    read_only: bool = False

    @property
    def key(self) -> tuple:
        return (self.client, self.request_id)


def request_auth_payload(request: "ClientRequest") -> tuple:
    """The request content covered by the client MAC vector.

    Everything except ``auth`` itself: the client identity, the
    idempotency id, the full invocation and the lane.  Binding the
    operation and arguments prevents a relay from splicing a valid MAC
    onto a different invocation, and binding ``read_only`` from moving a
    request between the ordered path and the read-only lane.
    """
    return (
        "peats-client-request",
        request.client,
        request.request_id,
        request.operation,
        request.arguments,
        request.read_only,
    )


def authenticate_request(request: "ClientRequest", authenticator: Any, replica_ids) -> "ClientRequest":
    """Attach the client MAC vector for ``replica_ids`` to ``request``.

    ``authenticator`` is the deployment's shared-key MAC scheme (the
    network's :class:`~repro.replication.crypto.MessageAuthenticator`); the
    client computes one MAC per replica of the owning group, under the key
    it shares with that replica, so each backup can verify its own entry
    even when the request arrives relayed by the primary.
    """
    payload = request_auth_payload(request)
    auth = tuple(
        (replica_id, authenticator.mac(request.client, replica_id, payload))
        for replica_id in replica_ids
    )
    return dataclasses.replace(request, auth=auth)


def null_request(sequence: int) -> ClientRequest:
    """A no-op request a new primary proposes to fill a sequence gap.

    PBFT's view change may leave sequence numbers that were assigned in an
    earlier view but are neither executed nor re-proposed (no correct
    quorum member prepared them).  Execution is strictly contiguous, so
    such holes must be plugged; the null request executes as a no-op and
    is never replied to (its pseudo-client is not on the network).
    """
    return ClientRequest(
        client=NULL_REQUEST_CLIENT, request_id=sequence, operation="__noop__", arguments=()
    )


@dataclasses.dataclass(frozen=True)
class Batch:
    """An ordered group of client requests sharing one consensus instance.

    Batching is PBFT's main throughput lever: the protocol cost of one
    instance (pre-prepare / 2f prepares / 2f+1 commits) is amortised over
    every request in the batch, and one sequence number covers them all,
    conserving the water-mark window.
    """

    requests: tuple[ClientRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def keys(self) -> tuple[tuple, ...]:
        return tuple(request.key for request in self.requests)


def null_batch(sequence: int) -> Batch:
    """A batch holding a single gap-filling no-op (see :func:`null_request`)."""
    return Batch(requests=(null_request(sequence),))


@dataclasses.dataclass(frozen=True)
class ClientReply:
    """A replica's reply to one client request (one per request in a batch)."""

    replica: Hashable
    view: int
    request_key: tuple
    result_digest: str
    result: Any


@dataclasses.dataclass(frozen=True)
class RegisterWaiter:
    """A client arming a per-template wake-up on one replica.

    Waiter registrations are *soft state*: they travel directly from the
    client to each replica of the target group (never through the ordering
    protocol — different correct replicas may hold different waiter tables
    at any instant), and they carry no client MAC vector because they are
    never relayed: the per-link envelope MAC already authenticates the
    immediate sender, and a replica only accepts a registration whose
    ``client`` equals that sender.  ``operation`` is the blocking form the
    waiter stands for (``"rd"``/``"in"``) or ``"watch"`` for a streaming
    subscription; the replica applies the access policy *at notification
    time* using the corresponding probe, so a waiter never learns about a
    tuple the policy would hide from a direct read.
    """

    client: Hashable
    waiter_id: int
    template: Any
    operation: str


@dataclasses.dataclass(frozen=True)
class CancelWaiter:
    """A client disarming one of its waiters (idempotent)."""

    client: Hashable
    waiter_id: int


@dataclasses.dataclass(frozen=True)
class Notify:
    """One replica's push that a tuple matching a waiter's template landed.

    ``event`` is the *inserting* request's ``(client, request_id)`` key —
    a value every correct replica derives identically from the ordered
    execution stream — and ``entry_digest`` is the digest of the delivered
    entry.  A client acts on a wake-up only after ``f + 1`` distinct
    replicas push a :class:`Notify` with the same ``(waiter_id, event,
    entry_digest)``: at least one of them is correct, so a Byzantine
    replica can neither forge a match nor feed the client a fabricated
    entry.  (It also cannot *starve* a waiter — the client keeps a bounded
    fallback poll armed, so a suppressed notification only costs latency.)
    """

    replica: Hashable
    client: Hashable
    waiter_id: int
    event: tuple
    entry: Any
    entry_digest: str


@dataclasses.dataclass(frozen=True)
class TxnPrepare:
    """One replica's push that a transaction was recorded at its coordinator.

    Emitted by every correct replica of the *coordinator group* when the
    ordered ``txn_prepare`` request executes.  ``participants`` is the
    shard set the coordinator recorded for ``txn_id`` — the authoritative
    participant list a waker or recovery client re-verifies against (a
    decision only ever covers exactly these shards), and ``expires_at`` is
    the coordinator-local executed-op count after which any client may
    force-resolve an undecided transaction.  Like every transaction push,
    the client acts only on ``f + 1`` matching copies from distinct
    replicas of the group.
    """

    replica: Hashable
    client: Hashable
    txn_id: tuple
    participants: tuple
    expires_at: int


@dataclasses.dataclass(frozen=True)
class TxnVote:
    """One participant replica's push of its group's ordered vote.

    ``vote`` is ``"yes"`` (the group locked every touched name and pinned
    the matched entries) or ``"no"`` with ``reason`` naming the refusing
    leg — a policy denial, a missing ``in_``/``rd`` match, or a conflicting
    lock.  ``pins_digest`` commits the replica to the exact entries it
    pinned, so ``f + 1`` matching pushes certify both the vote *and* the
    snapshot the commit will apply against; a lying replica voting both
    ways produces two singleton piles, never a certificate.
    """

    replica: Hashable
    client: Hashable
    txn_id: tuple
    shard: int
    vote: str
    reason: Any
    pins_digest: str


@dataclasses.dataclass(frozen=True)
class TxnDecision:
    """One coordinator replica's push of the recorded outcome.

    ``outcome`` is ``"commit"`` or ``"abort"``; the coordinator records at
    most one outcome per transaction (first ordered decision wins, later
    ones are answered with the recorded outcome), so ``f + 1`` matching
    pushes are a transferable decision certificate.  The push is addressed
    to the transaction's *owner*, which is how a client learns its
    transaction was force-aborted by a lock-expiry resolver it never met.
    """

    replica: Hashable
    client: Hashable
    txn_id: tuple
    outcome: str
    reason: Any


@dataclasses.dataclass(frozen=True)
class TxnAck:
    """One participant replica's push that it applied the decision.

    After ``f + 1`` matching acks per participant group the client knows
    the commit's effects are durable in that group (locks released, tuples
    moved) — the transaction is finished, not merely decided.
    """

    replica: Hashable
    client: Hashable
    txn_id: tuple
    shard: int
    outcome: str


@dataclasses.dataclass(frozen=True)
class PrePrepare:
    """The primary's ordering proposal for one batch of requests."""

    view: int
    sequence: int
    batch_digest: str
    batch: Batch
    primary: Hashable


@dataclasses.dataclass(frozen=True)
class Prepare:
    """A backup's agreement to the primary's proposal."""

    view: int
    sequence: int
    batch_digest: str
    replica: Hashable


@dataclasses.dataclass(frozen=True)
class Commit:
    """A replica's commitment to execute the batch at the sequence number."""

    view: int
    sequence: int
    batch_digest: str
    replica: Hashable


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """Proof that ``replica`` executed everything up to ``sequence``.

    Multicast every ``checkpoint_interval`` sequence numbers; ``2f + 1``
    matching checkpoints form a *stable certificate*, after which ordering
    state at or below ``sequence`` is garbage-collected and the water marks
    advance.
    """

    sequence: int
    state_digest: str
    replica: Hashable


@dataclasses.dataclass(frozen=True)
class StateRequest:
    """A lagging replica asking its peers for the latest stable checkpoint."""

    sequence: int
    replica: Hashable


@dataclasses.dataclass(frozen=True)
class StateResponse:
    """A peer's answer to a :class:`StateRequest`.

    ``state`` is the application snapshot at the responder's stable
    checkpoint and ``proof`` the ``2f + 1`` :class:`Checkpoint` messages
    that certify it; the requester validates ``state`` against the
    certificate digest before installing it.

    ``prepared`` additionally ships the responder's in-window ordering
    progress *above* the checkpoint: per sequence number one
    ``(sequence, view, batch, committed)`` entry, where ``committed`` marks
    batches the responder has committed/executed.  A recovering replica
    adopts the entries corroborated by ``f + 1`` responders, so it can
    execute the committed tail and vote on the still-open instances
    immediately instead of idling until the next checkpoint boundary.
    """

    sequence: int
    state_digest: str
    state: Any
    proof: tuple
    replica: Hashable
    prepared: tuple = ()


@dataclasses.dataclass(frozen=True)
class ViewChange:
    """A replica's vote to move to ``new_view``.

    ``prepared`` carries, per sequence number, a ``(view, batch)`` pair:
    the batch this replica prepared and the view of that certificate, so
    the new primary can re-propose it — preferring, per sequence, the
    certificate from the highest view (PBFT's arbitration rule).
    ``highest_sequence`` is the highest sequence number the replica has
    seen assigned (executed, committed or merely pre-prepared); the new
    primary starts numbering above the quorum maximum so sequence numbers
    are never reused across views for different batches.
    ``stable_checkpoint``/``checkpoint_proof`` tell the new primary the
    vote's garbage-collection horizon: nothing at or below a certified
    stable checkpoint needs re-proposing.
    """

    new_view: int
    replica: Hashable
    last_executed: int
    prepared: Mapping[int, tuple[int, Batch]]
    highest_sequence: int = 0
    stable_checkpoint: int = 0
    checkpoint_proof: tuple = ()


@dataclasses.dataclass(frozen=True)
class NewView:
    """The new primary's announcement that ``view`` has started."""

    view: int
    primary: Hashable
    reproposals: Mapping[int, Batch]
    stable_checkpoint: int = 0
    checkpoint_proof: tuple = ()
