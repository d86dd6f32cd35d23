"""Client-side transaction machinery: the ``Txn`` handle and the driver.

``Space.transact()`` returns a :class:`Txn` — a staging buffer of legs
(:mod:`repro.txn.legs`) with a one-shot commit.  How the commit executes
depends on the deployment shape, in three tiers of the same semantics:

* **local** — the whole leg sequence resolves and applies under the PEATS
  object lock (one linearization point);
* **one replica group** (replicated backend, or a sharded commit whose
  legs all route to one shard) — a single ordered ``txn_exec`` request:
  the group's PBFT instance *is* the atomicity;
* **cross-shard** — :class:`CrossShardTxn`, the replicated-coordinator
  atomic commit.  The coordinator group (the lowest participant shard,
  deterministic from the involved names) orders ``txn_prepare`` through
  its own PBFT instance; the owner then fans ``txn_vote`` to every
  participant group, where a lock-or-refuse decision is *ordered through
  that group's PBFT instance* with policy enforced per leg; all-yes votes
  are certified by ``f + 1`` matching ``TxnVote`` pushes per group and
  submitted as evidence with the ``txn_decision``; the authoritative
  outcome (first ordered decision wins — a racing lock-expiry
  ``txn_force`` may have aborted first) is then applied at every
  participant, which releases the locks.

The protocol is **non-blocking** in the 3PC sense that matters here: a
vanished owner cannot wedge a name forever, because every lock carries an
expiration in its replica group's ordered-operation counter and any
blocked client may then resolve the transaction at its replicated
coordinator (``txn_force`` — abort iff undecided).  Replication does the
rest: the coordinator is not a process but a ``3f + 1`` PBFT group, so
coordinator *crashes* below the fault bound never block the protocol
either.

The driver is continuation-style throughout (completion callbacks on the
network event loop), so many transactions — and ordinary operations —
stay in flight concurrently under one virtual clock.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Hashable, Optional, Sequence, TYPE_CHECKING

from repro.errors import (
    CrossShardError,
    QuorumError,
    ReplicationError,
    TxnAbortedError,
)
from repro.futures import OperationFuture
from repro.peo.base import DENIED
from repro.replication.messages import TxnDecision, TxnVote
from repro.replication.tally import Tally
from repro.txn.legs import normalize_leg, normalize_legs
from repro.tuples import Entry, Template
from repro.tuples.fields import is_defined

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api.space import Space
    from repro.cluster.routing import ShardMap

__all__ = [
    "Txn",
    "TxnOutcome",
    "CrossShardTxn",
    "outcome_from_payload",
    "plan_legs",
    "leg_shards",
    "locked_conflict",
]


@dataclasses.dataclass(frozen=True)
class TxnOutcome:
    """The resolved fate of one committed-or-aborted transaction.

    ``results`` holds one slot per staged leg (in staging order) when the
    transaction committed: the inserted entry for ``out``, the matched
    entry for ``rd``/``in``, ``(inserted, existing)`` for ``cas`` and
    ``None`` for ``nix``.  ``reason`` is the wire-safe abort reason
    otherwise.  The outcome is truthy iff committed.
    """

    committed: bool
    reason: Any
    results: tuple

    def __bool__(self) -> bool:
        return self.committed

    def raise_for_abort(self) -> "TxnOutcome":
        """Return self when committed, raise :class:`TxnAbortedError` else."""
        if not self.committed:
            raise TxnAbortedError(
                f"transaction aborted: {self.reason!r}", reason=self.reason
            )
        return self


def outcome_from_payload(payload: Any) -> TxnOutcome:
    """Convert a commit future's reply payload into a :class:`TxnOutcome`."""
    if isinstance(payload, tuple) and len(payload) == 2:
        status, value = payload
        if status == "OK" and isinstance(value, tuple) and value:
            if value[0] == "committed":
                return TxnOutcome(True, None, tuple(value[1]))
            if value[0] == "aborted":
                return TxnOutcome(False, value[1], ())
        if status == DENIED:
            return TxnOutcome(False, ("denied", value), ())
    raise ReplicationError(f"malformed transaction payload: {payload!r}")


def locked_conflict(reason: Any) -> Optional[tuple]:
    """The ``(txn_key, coordinator_shard, expired)`` conflict inside a
    ``("locked", ...)`` abort reason, or ``None`` for other reasons."""
    if (
        isinstance(reason, tuple)
        and len(reason) == 4
        and reason[0] == "locked"
    ):
        return tuple(reason[1:])
    return None


class Txn:
    """A staged transaction over one :class:`~repro.api.space.Space`.

    Staging methods chain (``txn.in_(t).out(e)``); :meth:`submit_commit`
    seals the staging and returns the one-shot commit future (idempotent
    — later calls return the same future), :meth:`commit` drives it to a
    :class:`TxnOutcome`.
    """

    def __init__(self, space: "Space", process: Hashable = None) -> None:
        self._space = space
        self._process = process
        self._legs: list[tuple] = []
        self._future: Optional[OperationFuture] = None

    @property
    def process(self) -> Hashable:
        return self._process

    @property
    def legs(self) -> tuple:
        return tuple(self._legs)

    def _stage(self, leg: tuple) -> "Txn":
        if self._future is not None:
            raise ReplicationError("transaction already submitted; stage a new one")
        self._legs.append(normalize_leg(leg))
        return self

    def out(self, entry: Entry) -> "Txn":
        """Stage an insert, applied at commit."""
        return self._stage(("out", entry))

    def rd(self, template: Template) -> "Txn":
        """Stage a precondition read: no match at vote time aborts."""
        return self._stage(("rd", template))

    def in_(self, template: Template) -> "Txn":
        """Stage a precondition consume: the match is taken at commit."""
        return self._stage(("in", template))

    def cas(self, template: Template, entry: Entry) -> "Txn":
        """Stage a conditional swap (never aborts; pins match or absence)."""
        return self._stage(("cas", template, entry))

    def nix(self, template: Template) -> "Txn":
        """Stage a required *absence*: a match at vote time aborts (with
        the matched entry in the reason) — the wildcard-``cas`` building
        block."""
        return self._stage(("nix", template))

    def submit_commit(self) -> OperationFuture:
        """Seal the staging and submit the atomic commit (idempotent)."""
        if self._future is None:
            if not self._legs:
                raise ReplicationError(
                    "transaction has no legs; stage at least one operation "
                    "before committing"
                )
            legs = normalize_legs(self._legs)
            self._future = self._space._submit_txn_tracked(legs, self._process)
        return self._future

    def commit(self) -> TxnOutcome:
        """Submit (if needed), drive to completion, return the outcome."""
        future = self.submit_commit()
        self._space._drive(future)
        return outcome_from_payload(future.result())

    def __repr__(self) -> str:
        state = "submitted" if self._future is not None else "staging"
        return f"Txn(legs={len(self._legs)}, {state})"


# ----------------------------------------------------------------------
# Leg placement on a sharded cluster
# ----------------------------------------------------------------------


def leg_shards(shard_map: "ShardMap", leg: tuple) -> tuple[int, ...]:
    """The shard(s) a staged leg executes on.

    ``out``/``rd``/``in`` route by their (concrete) name; a wildcard-name
    ``nix`` fans to *every* shard (absence is a whole-space property); a
    ``cas`` leg routes to its **entry's** shard — its template pin covers
    that shard only, so whole-space conditions pair it with ``nix`` legs
    (exactly what the public wildcard ``cas`` stages).
    """
    operation = leg[0]
    if operation == "out":
        return (shard_map.shard_of(leg[1].fields[0]),)
    if operation in ("rd", "in"):
        name = leg[1].fields[0]
        if not is_defined(name):
            raise CrossShardError(
                f"transactional {operation} leg {leg!r} has a wildcard name "
                "field and no single owning shard; locate the tuple with a "
                "scatter-gather rdp first, or require absence with nix legs"
            )
        return (shard_map.shard_of(name),)
    if operation == "nix":
        name = leg[1].fields[0]
        if not is_defined(name):
            return tuple(range(shard_map.n_shards))
        return (shard_map.shard_of(name),)
    # cas: the entry's shard owns the leg; a concrete template must agree.
    entry_shard = shard_map.shard_of(leg[2].fields[0])
    template_name = leg[1].fields[0]
    if is_defined(template_name) and shard_map.shard_of(template_name) != entry_shard:
        raise CrossShardError(
            f"cas leg template {leg[1]!r} and entry {leg[2]!r} route to "
            "different shards; stage a nix leg on the template's shard and "
            "an out leg on the entry's shard instead (Space.cas composes "
            "this automatically)"
        )
    return (entry_shard,)


def plan_legs(shard_map: "ShardMap", legs: Sequence[tuple]) -> dict[int, list]:
    """Group legs by executing shard: ``{shard: [(index, leg), ...]}``.

    Indexes are the original staging positions, preserved per shard in
    staging order — what reassembles per-shard results into the caller's
    result vector.  A wildcard ``nix`` contributes the same index to
    several shards (each reports ``None``).
    """
    plan: dict[int, list] = {}
    for index, leg in enumerate(legs):
        for shard in leg_shards(shard_map, leg):
            plan.setdefault(shard, []).append((index, leg))
    return plan


# ----------------------------------------------------------------------
# The cross-shard commit driver
# ----------------------------------------------------------------------


class CrossShardTxn:
    """One cross-shard atomic commit, driven by completion callbacks.

    The owner is a *relay*, never a trust root: every protocol step is
    ordered through a participant's own PBFT instance and accepted on an
    ``f + 1`` reply vote; commit evidence is assembled from ``f + 1``
    matching ``TxnVote`` pushes per group; and the outcome the driver
    applies is the coordinator's *ordered* decision, not its own
    preference — a racing lock-expiry ``txn_force`` may have aborted
    first, and first-ordered-wins makes that race safe.

    A decision learned through the push channel alone (a resolver
    force-aborted us while we were still voting) is honoured only as an
    ``f + 1`` push certificate and applied against the driver's **own**
    participant set — never the set a push claims.

    Every certificate comes from one :class:`~repro.replication.tally.
    Tally` addressed to the group that must have sent it: a ``TxnVote``
    for shard ``s`` counts only from ``s``'s replicas, a ``TxnDecision``
    only from the coordinator group's, so ``f`` faulty replicas in each of
    several groups can never pool their pushes into one certificate.
    """

    #: Whole-transaction retries after a ``("locked", ...)`` refusal.
    MAX_ATTEMPTS = 8
    #: Evidence-gathering fallback rounds (idempotent re-votes re-push).
    MAX_REVOTE_ROUNDS = 8
    #: Backend-time delay before an evidence-gathering re-vote round.
    REVOTE_DELAY = 200.0

    def __init__(self, space: "Space", process: Hashable, legs: tuple) -> None:
        self.space = space
        self.process = process
        self.legs = tuple(legs)
        self.client = space.service.client(process)
        self.future = OperationFuture(operation="txn", submitted_at=space._now())
        self.attempts = 0
        self.txn_id: Optional[tuple] = None
        self._begin()

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------

    def _begin(self) -> None:
        self.attempts += 1
        self.plan = plan_legs(self.space.service.shard_map, self.legs)
        self.participants = tuple(sorted(self.plan))
        self.coordinator = self.participants[0]
        self.txn_id = self.client.mint_txn_id()
        self.stage = "prepare"
        self.votes: dict[int, tuple] = {}
        self.applied: dict[int, tuple] = {}
        self.decided_outcome: Optional[str] = None
        self.outcome_reason: Any = None
        self.forced: Optional[tuple] = None
        self.revote_rounds = 0
        self.revote_pending = False
        group = self.space.service.group
        threshold = self.client.f + 1
        self.vote_tallies = {
            shard: Tally(group(shard).replica_ids, threshold) for shard in self.participants
        }
        self.decision_tally = Tally(group(self.coordinator).replica_ids, threshold)
        #: shard -> its f+1 yes-certificate: (TxnVote content, voters).
        self.certificates: dict[int, tuple] = {}
        self.client.watch_txn(self.txn_id, self._on_push)
        self._submit(
            self.coordinator,
            "txn_prepare",
            (self.txn_id, self.participants),
            self._on_prepared,
        )

    def _submit(
        self, shard: int, operation: str, arguments: tuple, on_complete: Callable
    ) -> None:
        group = self.space.service.group(shard)
        self.client.submit(
            operation,
            arguments,
            replica_ids=group.replica_ids,
            on_complete=on_complete,
        )

    def _payload(self, reply: OperationFuture) -> Optional[tuple]:
        """Unwrap one sub-request reply; fails/aborts the commit on bad ones."""
        if reply.exception is not None:
            self._fail(reply.exception)
            return None
        payload = reply.result()
        if not isinstance(payload, tuple) or len(payload) != 2:
            self._fail(ReplicationError(f"malformed transaction reply: {payload!r}"))
            return None
        if payload[0] == DENIED:
            # A refused sub-operation (malformed arguments, unsupported op)
            # is a deterministic abort, not a protocol failure.
            self._complete_aborted(("denied", payload[1]))
            return None
        return payload

    def _fail(self, exception: BaseException) -> None:
        if self.future.done:
            return
        if self.txn_id is not None:
            self.client.unwatch_txn(self.txn_id)
        self.future._complete(self.space._now(), exception=exception)

    def _complete(self, payload: tuple) -> None:
        if self.future.done:
            return
        self.client.unwatch_txn(self.txn_id)
        self.future._complete(self.space._now(), result=payload)

    def _complete_aborted(self, reason: Any) -> None:
        self._complete(("OK", ("aborted", reason)))

    # ------------------------------------------------------------------
    # Prepare → vote
    # ------------------------------------------------------------------

    def _on_prepared(self, reply: OperationFuture) -> None:
        if self.future.done or self.stage != "prepare":
            return
        payload = self._payload(reply)
        if payload is None:
            return
        value = payload[1]
        if not isinstance(value, tuple) or not value or value[0] != "prepared":
            self._fail(ReplicationError(f"transaction prepare refused: {payload!r}"))
            return
        self.stage = "vote"
        for shard in self.participants:
            shard_legs = tuple(leg for _index, leg in self.plan[shard])
            self._submit(
                shard,
                "txn_vote",
                (self.txn_id, self.coordinator, shard, shard_legs),
                lambda reply, shard=shard: self._on_vote(shard, reply),
            )

    def _on_vote(self, shard: int, reply: OperationFuture) -> None:
        if self.future.done or self.stage not in ("vote", "evidence"):
            return
        payload = self._payload(reply)
        if payload is None:
            return
        value = payload[1]
        if not isinstance(value, tuple) or len(value) != 4 or value[0] != "vote":
            self._fail(ReplicationError(f"malformed vote reply: {payload!r}"))
            return
        self.votes[shard] = (value[1], value[2])
        if len(self.votes) < len(self.participants):
            return
        if self.forced is not None:
            # A resolver decided this transaction while we were voting;
            # with every vote reply in, the per-group request channels are
            # free and the certified outcome can be applied.
            self._apply(*self.forced)
            return
        refusing = [s for s in self.participants if self.votes[s][0] != "yes"]
        if refusing:
            self._abort_protocol(self.votes[refusing[0]][1])
            return
        self.stage = "evidence"
        self._try_decide()

    # ------------------------------------------------------------------
    # Evidence → decision
    # ------------------------------------------------------------------

    def _try_decide(self) -> None:
        """Assemble f+1 yes-certificates per group and submit the commit."""
        if self.future.done or self.stage != "evidence":
            return
        if any(shard not in self.certificates for shard in self.participants):
            self._request_missing_votes()
            return
        evidence = tuple(
            (shard, "yes", self.certificates[shard][1]) for shard in self.participants
        )
        self.stage = "decide"
        self._submit(
            self.coordinator,
            "txn_decision",
            (self.txn_id, "commit", None, evidence),
            self._on_decided,
        )

    def _request_missing_votes(self) -> None:
        """Fallback when vote pushes lag the reply vote: re-submit the
        (idempotent) votes, which makes every correct replica re-push."""
        if self.revote_pending:
            return
        self.revote_rounds += 1
        if self.revote_rounds > self.MAX_REVOTE_ROUNDS:
            self._fail(
                QuorumError(
                    f"no f+1 vote certificates for transaction {self.txn_id} "
                    f"after {self.MAX_REVOTE_ROUNDS} re-vote rounds"
                )
            )
            return
        self.revote_pending = True

        def revote() -> None:
            self.revote_pending = False
            if self.future.done or self.stage != "evidence":
                return
            for shard in self.participants:
                if shard in self.certificates:
                    continue
                shard_legs = tuple(leg for _index, leg in self.plan[shard])
                self._submit(
                    shard,
                    "txn_vote",
                    (self.txn_id, self.coordinator, shard, shard_legs),
                    lambda _reply: self._try_decide(),
                )

        self.space._schedule(self.REVOTE_DELAY, revote)

    def _abort_protocol(self, reason: Any) -> None:
        """Order an abort decision, then release every participant."""
        self.stage = "decide"
        self.outcome_reason = reason
        self._submit(
            self.coordinator,
            "txn_decision",
            (self.txn_id, "abort", reason, ()),
            self._on_decided,
        )

    def _on_decided(self, reply: OperationFuture) -> None:
        if self.future.done or self.stage != "decide":
            return
        payload = self._payload(reply)
        if payload is None:
            return
        value = payload[1]
        if not isinstance(value, tuple) or len(value) != 4 or value[0] != "decided":
            self._fail(ReplicationError(f"transaction decision refused: {payload!r}"))
            return
        # The *ordered* outcome is authoritative: first decision wins, so a
        # lock-expiry force-abort that raced us overrides our commit intent.
        _tag, outcome, reason, _participants = value
        events = self.client.obs.events
        if events.enabled:
            events.record(
                "txn-decision",
                self.client.client_id,
                self.space._now(),
                txn=repr(self.txn_id),
                outcome=outcome,
                participants=list(self.participants),
            )
        self._apply(outcome, reason)

    # ------------------------------------------------------------------
    # Decision pushes (a stranger resolved us)
    # ------------------------------------------------------------------

    def _on_push(self, sender: Hashable, payload: Any) -> None:
        """Vote one push (``replica`` masked: each names itself) in the
        tally of the group that must have sent it, while the votes are out.
        ``TxnPrepare``/``TxnAck`` pushes are not voted on."""
        if self.future.done or self.stage not in ("vote", "evidence"):
            return
        tally = None
        if isinstance(payload, TxnDecision):
            tally = self.decision_tally
        elif isinstance(payload, TxnVote) and isinstance(payload.shard, int):
            tally = self.vote_tallies.get(payload.shard)
        if tally is None:
            return
        certificate = tally.vote(sender, dataclasses.replace(payload, replica=None))
        if certificate is None:
            return
        push = certificate[0]
        if isinstance(push, TxnVote):
            if push.vote == "yes":
                self.certificates[push.shard] = certificate
            if self.stage == "evidence":
                self._try_decide()
        else:
            self.forced = (push.outcome, push.reason)
            if len(self.votes) == len(self.participants):
                self._apply(*self.forced)

    def _apply(self, outcome: str, reason: Any) -> None:
        """Apply the ordered (or f+1-certified pushed) decision against
        OUR participant set — never the one a push claims."""
        self.decided_outcome = outcome
        if outcome == "abort":
            self.outcome_reason = reason
        self.stage = "apply"
        self._fan_apply()

    # ------------------------------------------------------------------
    # Apply → finish
    # ------------------------------------------------------------------

    def _fan_apply(self) -> None:
        self.applied = {}
        for shard in self.participants:
            self._submit(
                shard,
                "txn_apply",
                (self.txn_id, self.decided_outcome),
                lambda reply, shard=shard: self._on_applied(shard, reply),
            )

    def _on_applied(self, shard: int, reply: OperationFuture) -> None:
        if self.future.done or self.stage != "apply":
            return
        payload = self._payload(reply)
        if payload is None:
            return
        self.applied[shard] = payload
        if len(self.applied) == len(self.participants):
            self._finish()

    def _finish(self) -> None:
        if self.decided_outcome == "commit":
            results: list[Any] = [None] * len(self.legs)
            for shard in self.participants:
                status, value = self.applied[shard]
                if (
                    status == "OK"
                    and isinstance(value, tuple)
                    and len(value) == 3
                    and value[0] == "applied"
                ):
                    # A repeat apply (a resolver got there first) reports
                    # empty results; the affected legs stay None — the
                    # commit itself is unaffected.
                    for (index, _leg), result in zip(self.plan[shard], value[2]):
                        results[index] = result
            self._complete(("OK", ("committed", tuple(results))))
            return
        reason = self.outcome_reason
        conflict = locked_conflict(reason)
        if conflict is not None and self.attempts < self.MAX_ATTEMPTS:
            # Refused by a live or expired lock: resolve the blocker (the
            # sharded backend force-aborts expired holders at their
            # coordinator), then retry as a *fresh* transaction.
            self.client.unwatch_txn(self.txn_id)
            self.space._resolve_lock(conflict, self.process, self._begin)
            return
        self._complete_aborted(reason)

    def __repr__(self) -> str:
        return (
            f"CrossShardTxn(txn_id={self.txn_id!r}, stage={self.stage!r}, "
            f"participants={self.participants!r})"
        )
