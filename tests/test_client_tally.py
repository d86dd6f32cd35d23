"""The client's one f+1 tally, driven through all three message kinds.

Replies, ``Notify`` pushes and transaction pushes all accept through one
:class:`~repro.replication.tally.Tally`.  Each case below sends real wire
messages into a client's network handler on a two-shard cluster that is
not pumped while it does, so the only votes are the ones the test feeds:

* ``reply`` — :class:`ClientReply` for an ordered request (an ``inp``)
  addressed to shard 0;
* ``notify`` — :class:`Notify` for a waiter armed on shard 0;
* ``txn`` — :class:`TxnVote` for shard 0 of a cross-shard transaction.

The off-target sender is always a shard-1 replica: on the ``txn`` kind it
pushes a vote that claims shard 0's number.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.cluster.routing import ExplicitRouting
from repro.policy.policy import AccessPolicy
from repro.policy.rules import Rule
from repro.replication.crypto import digest
from repro.replication.messages import ClientReply, Notify, TxnVote
from repro.replication.tally import Tally
from repro.tuples import ANY, entry, template
from repro.txn.legs import normalize_legs
from repro.txn.manager import CrossShardTxn

KINDS = ("reply", "notify", "txn")


class Kind:
    """One message kind's path into the client, and what it releases."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.space = connect(
            "sharded",
            policy=AccessPolicy([Rule(op, op) for op in ("out", "rdp", "inp", "cas")]),
            shards=2,
            routing=ExplicitRouting({"N0": 0, "N1": 1}),
        )
        service = self.space.service
        self.client = service.client("p1")
        self.senders = service.group(0).replica_ids
        self.outsider = service.group(1).replica_ids[0]
        self.events: list = []
        if name == "reply":
            self.pending = self.client.submit(
                "inp", (template("N0", ANY),), replica_ids=self.senders
            )
            self.pending.add_done_callback(lambda done: self.events.append(done.result()))
            self.tally = self.pending.tally
        elif name == "notify":
            self.waiter = self.client.arm_waiter(
                template("N0", ANY),
                "rd",
                lambda item, event: self.events.append(item),
                replica_ids=self.senders,
            )
            self.tally = self.waiter.tally
        else:
            legs = normalize_legs((("in", template("N0", ANY)), ("out", entry("N1", 1))))
            self.txn = CrossShardTxn(self.space, "p1", legs)
            # Pumped only until the votes go out: no vote push is in yet.
            self.space.network.run_until(lambda: self.txn.stage == "vote")
            self.tally = self.txn.vote_tallies[0]

            def forward(sender, push) -> None:
                # The transaction's own handler, plus a record of each
                # fresh shard-0 certificate.
                before = self.txn.certificates.get(0)
                self.txn._on_push(sender, push)
                after = self.txn.certificates.get(0)
                if after is not before:
                    self.events.append(after[0].pins_digest)

            self.client.watch_txn(self.txn.txn_id, forward)

    def value(self, index: int):
        """The ``index``-th content a sender may vote for."""
        if self.name == "reply":
            return ("OK", entry("N0", index))
        if self.name == "notify":
            return entry("N0", index)
        return f"pins-{index}"

    def round(self, value, round_index: int = 0):
        """The round a vote for ``value`` counts in: one per inserted
        entry for ``Notify``, the request's or shard's one round else."""
        if self.name == "notify":
            return (("producer", round_index), digest(value))
        return None

    def send(self, sender, value, *, claim=None, round_index: int = 0) -> None:
        """Deliver one vote for ``value`` from ``sender``.

        ``claim`` is the value whose digest the message claims (replies
        and pushes of entries carry one; a txn vote carries none).
        """
        claimed = digest(value if claim is None else claim)
        if self.name == "reply":
            message = ClientReply(sender, 0, self.pending.key, claimed, value)
        elif self.name == "notify":
            message = Notify(
                replica=sender,
                client="p1",
                waiter_id=self.waiter.waiter_id,
                event=("producer", round_index),
                entry=value,
                entry_digest=claimed,
            )
        else:
            message = TxnVote(
                replica=sender,
                client="p1",
                txn_id=self.txn.txn_id,
                shard=0,
                vote="yes",
                reason=None,
                pins_digest=value,
            )
        self.client._on_message(sender, message)

    def released(self) -> list:
        """Every content the caller acted on, in order."""
        return list(self.events)

    def mismatched(self) -> float:
        family = self.space.observability.registry.snapshot()["client_mismatched_replies_total"]
        return sum(row["value"] for row in family["samples"])


@pytest.fixture(params=KINDS)
def kind(request) -> Kind:
    return Kind(request.param)


class TestOneTally:
    def test_f_plus_1_distinct_addressed_senders_are_required(self, kind):
        first, second, _, _ = kind.senders
        kind.send(first, kind.value(1))
        assert kind.released() == [], "one vote is below f + 1"
        kind.send(second, kind.value(1))
        assert kind.released() == [kind.value(1)]

    def test_a_duplicate_sender_counts_once(self, kind):
        first = kind.senders[0]
        for _ in range(5):
            kind.send(first, kind.value(1))
        assert kind.released() == []
        assert kind.tally.ballots(kind.round(kind.value(1))) == 1

    def test_an_off_target_sender_is_ignored(self, kind):
        assert kind.outsider not in kind.senders
        for _ in range(3):
            kind.send(kind.outsider, kind.value(1))
        assert kind.tally.pending == 0
        kind.send(kind.senders[0], kind.value(1))
        assert kind.released() == [], "an outsider plus one member is not f + 1"

    def test_a_claimed_digest_liar_is_never_released(self, kind):
        liar, first, second, _ = kind.senders
        honest, forged = kind.value(1), kind.value(666)
        # The liar answers first, claiming the digest the correct senders
        # will produce over content of its own (a txn vote carries no
        # claim: there, the forged content is simply its vote), then votes
        # the forgery under its own digest, which stays a vote of one.
        kind.send(liar, forged, claim=honest)
        kind.send(liar, forged)
        kind.send(first, honest)
        assert kind.released() == [], "the liar's claim must not pair with an honest vote"
        kind.send(second, honest)
        assert kind.released() == [honest]
        assert kind.mismatched() == (1 if kind.name == "reply" else 0)

    def test_content_is_delivered_once(self, kind):
        for sender in kind.senders:
            kind.send(sender, kind.value(1))
        for sender in kind.senders:
            kind.send(sender, kind.value(1))
        assert kind.released() == [kind.value(1)]
        assert kind.tally.pending == 0

    # Only Notify opens rounds on the sender's say (one per inserted entry);
    # a reply or txn tally has one round per request or shard.
    @pytest.mark.parametrize("kind", ["notify"], indirect=True)
    def test_pending_rounds_stay_bounded(self, kind):
        sprayer = kind.senders[0]
        for index in range(4 * Tally.MAX_PENDING):
            kind.send(sprayer, kind.value(index), round_index=index)
        assert kind.released() == []
        assert 1 <= kind.tally.pending <= Tally.MAX_PENDING
