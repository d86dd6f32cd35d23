"""repro.txn — non-blocking cross-shard atomic transactions.

The tentpole contract: ``Space.transact()`` stages any mix of
``out``/``rd``/``in``/``cas``/``nix`` legs and commits them at one
linearization point — on the local and single-group backends as one
ordered request, on the sharded cluster through a replicated-coordinator
atomic commit whose locks carry ordered expirations (no crashed client or
``f`` faulty replicas can wedge a name forever).  The fault suite pins
the claims the protocol is named for: commits survive coordinator-group
member crashes between prepare and decision, a lying participant cannot
forge or block a certificate, expired locks are force-resolved by any
bystander, and the whole machinery replays byte-identically under one
seed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import connect
from repro.cluster.routing import ExplicitRouting
from repro.errors import ReplicationError, TxnAbortedError
from repro.net import codec
from repro.obs import Observability
from repro.policy.policy import AccessPolicy
from repro.policy.rules import Rule
from repro.replication.crypto import digest
from repro.replication.messages import TxnAck, TxnDecision, TxnPrepare, TxnVote
from repro.replication import ReplicaFaultMode, set_fault
from repro.sim import Scenario, run_scenario
from repro.sim.workloads import escrow_transfers
from repro.txn import NO_MATCH, TxnOutcome, outcome_from_payload
from repro.tuples import ANY, Formal, entry, template


def open_policy(operations=("out", "rdp", "inp", "cas")) -> AccessPolicy:
    return AccessPolicy([Rule(op, op) for op in operations], name="txn-open")


#: Explicit name → shard assignment: N0..N3 land on shards 0..3, and the
#: PAD name co-habits shard 1 (op-counter filler for the expiry tests).
ROUTING = ExplicitRouting({"N0": 0, "N1": 1, "N2": 2, "N3": 3, "PAD": 1})


def sharded_space(**options):
    return connect(
        "sharded", policy=open_policy(), shards=4, routing=ROUTING, **options
    )


def drive(space, future):
    space.network.run_until(lambda: future.done)
    assert future.done
    return future.result()


# ----------------------------------------------------------------------
# The Txn handle, backend-independent (local space)
# ----------------------------------------------------------------------


class TestTxnHandleLocal:
    def space(self):
        return connect("local", policy=open_policy())

    def test_commit_applies_every_leg_atomically(self):
        space = self.space()
        view = space.bind("p1")
        view.out(entry("A", 1))
        outcome = (
            space.transact("p1")
            .in_(template("A", Formal("v")))
            .out(entry("B", 2))
            .commit()
        )
        assert outcome.committed and bool(outcome)
        assert outcome.results == (entry("A", 1), entry("B", 2))
        assert set(space.snapshot()) == {entry("B", 2)}

    def test_abort_applies_nothing(self):
        space = self.space()
        outcome = (
            space.transact("p1")
            .in_(template("A", Formal("v")))  # no match: the whole txn aborts
            .out(entry("B", 2))
            .commit()
        )
        assert not outcome.committed
        assert outcome.reason == ("no-match", 0)
        assert space.snapshot() == ()
        with pytest.raises(TxnAbortedError):
            outcome.raise_for_abort()

    def test_rd_leg_is_a_non_destructive_precondition(self):
        space = self.space()
        view = space.bind("p1")
        view.out(entry("A", 1))
        outcome = (
            space.transact("p1").rd(template("A", ANY)).out(entry("B", 2)).commit()
        )
        assert outcome.results == (entry("A", 1), entry("B", 2))
        assert set(space.snapshot()) == {entry("A", 1), entry("B", 2)}

    def test_nix_leg_requires_absence(self):
        space = self.space()
        ok = space.transact("p1").nix(template("A", ANY)).out(entry("A", 1)).commit()
        assert ok.committed and ok.results == (None, entry("A", 1))
        again = space.transact("p1").nix(template("A", ANY)).out(entry("A", 2)).commit()
        assert not again.committed
        assert again.reason == ("match", 0, entry("A", 1))
        assert set(space.snapshot()) == {entry("A", 1)}

    def test_cas_leg_reports_insert_or_existing(self):
        space = self.space()
        first = space.transact("p1").cas(template("A", ANY), entry("A", 1)).commit()
        assert first.results == ((True, None),)
        second = space.transact("p1").cas(template("A", ANY), entry("A", 2)).commit()
        assert second.results == ((False, entry("A", 1)),)
        assert set(space.snapshot()) == {entry("A", 1)}

    def test_transfer_convenience_moves_or_raises(self):
        space = self.space()
        view = space.bind("p1")
        view.out(entry("A", "tok"))
        outcome = view.transfer(template("A", ANY), entry("B", "tok"))
        assert isinstance(outcome, TxnOutcome) and outcome.committed
        assert set(space.snapshot()) == {entry("B", "tok")}
        with pytest.raises(TxnAbortedError) as excinfo:
            view.transfer(template("A", ANY), entry("B", "again"))
        assert "no-match" in str(excinfo.value)

    def test_handle_is_one_shot(self):
        space = self.space()
        txn = space.transact("p1").out(entry("A", 1))
        assert txn.commit().committed
        with pytest.raises(ReplicationError):
            txn.out(entry("A", 2))

    def test_empty_transaction_is_rejected(self):
        with pytest.raises(ReplicationError):
            self.space().transact("p1").commit()

    def test_policy_denied_leg_aborts(self):
        # No inp grant: the in leg (checked as inp) refuses, atomically.
        space = connect("local", policy=open_policy(("out", "rdp", "cas")))
        view = space.bind("p1")
        view.out(entry("A", 1))
        outcome = (
            space.transact("p1").in_(template("A", ANY)).out(entry("B", 2)).commit()
        )
        assert not outcome.committed
        assert outcome.reason[0] == "policy-denied" and outcome.reason[1] == 0
        assert set(space.snapshot()) == {entry("A", 1)}


# ----------------------------------------------------------------------
# Single replicated group: one ordered txn_exec request
# ----------------------------------------------------------------------


class TestTxnReplicated:
    def test_transfer_commits_through_consensus(self):
        space = connect("replicated", policy=open_policy())
        view = space.bind("p1")
        view.out(entry("SRC", "tok"))
        outcome = view.transfer(template("SRC", ANY), entry("DST", "tok"))
        assert outcome.committed
        assert set(space.snapshot()) == {entry("DST", "tok")}

    def test_submit_commit_future_form(self):
        space = connect("replicated", policy=open_policy())
        space.bind("p1").out(entry("SRC", 1))
        txn = space.transact("p1").in_(template("SRC", ANY)).out(entry("DST", 1))
        future = txn.submit_commit()
        assert txn.submit_commit() is future  # idempotent seal
        payload = drive(space, future)
        assert outcome_from_payload(payload).committed

    def test_denied_leg_aborts_with_reason(self):
        space = connect("replicated", policy=open_policy(("out", "rdp", "cas")))
        outcome = space.transact("p1").in_(template("SRC", ANY)).commit()
        assert not outcome.committed and outcome.reason[0] == "policy-denied"


# ----------------------------------------------------------------------
# Sharded cluster: the replicated-coordinator atomic commit
# ----------------------------------------------------------------------


class TestTxnSharded:
    def test_cross_shard_transfer_commits(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N1", "tok"))
        outcome = view.transfer(template("N1", ANY), entry("N2", "tok"))
        assert outcome.committed
        assert outcome.results[0] == entry("N1", "tok")
        assert set(space.snapshot()) == {entry("N2", "tok")}

    def test_cross_shard_abort_changes_nothing(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N2", "keep"))
        with pytest.raises(TxnAbortedError):
            view.transfer(template("N1", ANY), entry("N3", "never"))
        assert set(space.snapshot()) == {entry("N2", "keep")}

    def test_three_shard_transaction_is_atomic(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N0", "a"))
        view.out(entry("N1", "b"))
        outcome = (
            space.transact("p1")
            .in_(template("N0", ANY))
            .in_(template("N1", ANY))
            .out(entry("N2", "merged"))
            .commit()
        )
        assert outcome.committed
        assert outcome.results == (entry("N0", "a"), entry("N1", "b"), entry("N2", "merged"))
        assert set(space.snapshot()) == {entry("N2", "merged")}

    def test_wildcard_nix_guards_every_shard(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N3", "occupied"))
        outcome = (
            space.transact("p1").nix(template(ANY, "occupied")).out(entry("N0", 1)).commit()
        )
        assert not outcome.committed
        assert outcome.reason == ("match", 0, entry("N3", "occupied"))
        gone = space.bind("p1").inp(template("N3", ANY))
        assert gone == entry("N3", "occupied")
        outcome = (
            space.transact("p1").nix(template(ANY, "occupied")).out(entry("N0", 1)).commit()
        )
        assert outcome.committed
        assert set(space.snapshot()) == {entry("N0", 1)}

    def test_single_shard_transaction_takes_the_fast_path(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N1", "x"))
        outcome = (
            space.transact("p1").in_(template("N1", ANY)).out(entry("N1", "y")).commit()
        )
        assert outcome.committed
        assert set(space.snapshot()) == {entry("N1", "y")}

    def test_stats_account_commits_and_aborts(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N1", "tok"))
        view.transfer(template("N1", ANY), entry("N2", "tok"))
        with pytest.raises(TxnAbortedError):
            view.transfer(template("N1", ANY), entry("N2", "again"))
        report = space.stats()["txn"]
        assert report["committed"] == 1
        assert report["aborted"] == {"no-match": 1}
        assert report["commit_latency"]["count"] == 1
        assert report["commit_latency"]["max"] > 0.0

    def test_concurrent_transfers_from_one_source_commit_exactly_one(self):
        space = sharded_space()
        space.bind("w").out(entry("N1", "tok"))
        first = space.submit_transfer(
            template("N1", ANY), entry("N2", "via-a"), process="a"
        )
        second = space.submit_transfer(
            template("N1", ANY), entry("N3", "via-b"), process="b"
        )
        space.network.run_until(lambda: first.done and second.done)
        outcomes = [
            outcome_from_payload(first.result()),
            outcome_from_payload(second.result()),
        ]
        assert sorted(o.committed for o in outcomes) == [False, True]
        assert len(space.snapshot()) == 1


# ----------------------------------------------------------------------
# Fault suite
# ----------------------------------------------------------------------


class TestCoordinatorFaults:
    def test_backup_crash_between_prepare_and_decision(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N1", "tok"))
        future = space.submit_transfer(
            template("N1", ANY), entry("N2", "tok"), process="p1"
        )
        # The coordinator is the lowest participant shard (1).  Wait until
        # a coordinator replica has executed and recorded the prepare,
        # then crash a coordinator-group backup: the decision has not
        # been ordered yet, and the group must finish without it.
        coordinators = space.service.group(1).nodes
        space.network.run_until(
            lambda: any(len(node.application._txn_coord) for node in coordinators)
        )
        assert not future.done
        set_fault(space.service.group(1).nodes[3], ReplicaFaultMode.CRASHED)
        payload = drive(space, future)
        assert outcome_from_payload(payload).committed
        assert set(space.snapshot()) == {entry("N2", "tok")}

    def test_coordinator_primary_crash_forces_a_view_change(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N1", "tok"))
        set_fault(space.service.group(1).nodes[0], ReplicaFaultMode.CRASHED)
        future = space.submit_transfer(
            template("N1", ANY), entry("N2", "tok"), process="p1"
        )
        payload = drive(space, future)
        assert outcome_from_payload(payload).committed
        assert set(space.snapshot()) == {entry("N2", "tok")}


class TestLyingParticipant:
    def test_lying_participant_replica_cannot_block_or_corrupt(self):
        space = sharded_space()
        set_fault(space.service.group(2).nodes[1], ReplicaFaultMode.LYING)
        view = space.bind("p1")
        view.out(entry("N1", "tok"))
        outcome = view.transfer(template("N1", ANY), entry("N2", "tok"))
        assert outcome.committed
        assert set(space.snapshot()) == {entry("N2", "tok")}

    def test_lying_coordinator_replica_cannot_forge_a_decision(self):
        space = sharded_space()
        set_fault(space.service.group(1).nodes[2], ReplicaFaultMode.LYING)
        view = space.bind("p1")
        view.out(entry("N1", "tok"))
        outcome = view.transfer(template("N1", ANY), entry("N3", "tok"))
        assert outcome.committed
        assert set(space.snapshot()) == {entry("N3", "tok")}

    def test_lying_replica_aborts_still_resolve_correctly(self):
        space = sharded_space()
        set_fault(space.service.group(1).nodes[3], ReplicaFaultMode.LYING)
        view = space.bind("p1")
        with pytest.raises(TxnAbortedError):
            view.transfer(template("N1", ANY), entry("N2", "never"))
        assert space.snapshot() == ()


class TestCrossGroupCertificates:
    """A push certificate counts only the group that must have sent it.

    One Byzantine replica in shard 0 and one in shard 2 (``f = 1`` per
    group) are two distinct replicas, but neither belongs to the group a
    decision or a shard-3 vote comes from; pooled, they used to make a
    certificate.
    """

    FORGERS = ("shard-0:replica-0", "shard-2:replica-3")

    def voting_txn(self, space):
        from repro.txn.legs import normalize_legs
        from repro.txn.manager import CrossShardTxn

        legs = normalize_legs(
            (
                ("in", template("N1", ANY)),
                ("out", entry("N2", "tok")),
                ("rd", template("N3", ANY)),
            )
        )
        txn = CrossShardTxn(space, "p1", legs)
        space.network.run_until(lambda: txn.stage == "vote")
        return txn

    def test_a_pooled_decision_certificate_cannot_commit_a_refused_txn(self):
        space = sharded_space()
        space.bind("p1").out(entry("N1", "tok"))
        txn = self.voting_txn(space)  # shard 3 has no N3: it votes no
        for forger in self.FORGERS:
            space.network.send(
                forger,
                "p1",
                TxnDecision(
                    replica=forger,
                    client="p1",
                    txn_id=txn.txn_id,
                    outcome="commit",
                    reason=None,
                ),
            )
        payload = drive(space, txn.future)
        assert txn.votes[3] == ("no", ("no-match", 0))
        assert payload == ("OK", ("aborted", ("no-match", 0)))
        assert set(space.snapshot()) == {entry("N1", "tok")}

    def test_pooled_votes_claiming_another_shard_do_not_count(self):
        space = sharded_space()
        view = space.bind("p1")
        view.out(entry("N1", "tok"))
        view.out(entry("N3", "rate"))
        txn = self.voting_txn(space)  # every group votes yes
        for forger in self.FORGERS:
            space.network.send(
                forger,
                "p1",
                TxnVote(
                    replica=forger,
                    client="p1",
                    txn_id=txn.txn_id,
                    shard=3,
                    vote="no",
                    reason=("forged",),
                    pins_digest="0" * 64,
                ),
            )
        payload = drive(space, txn.future)
        assert outcome_from_payload(payload).committed
        assert set(txn.certificates[3][1]) <= set(space.service.group(3).replica_ids)
        assert set(space.snapshot()) == {entry("N2", "tok"), entry("N3", "rate")}


class TestLockExpiry:
    def wedge(self, space, *, ttl):
        """Prepare + vote a transaction on shard 1 and abandon it: the
        lock on name N1 is held with no owner left to decide."""
        for group in space.service.groups:
            for node in group.nodes:
                node.application.txn_ttl_ops = ttl
        client = space.service.client("wedger")
        txn_id = client.mint_txn_id()
        group = space.service.group(1)
        prepared = client.submit(
            "txn_prepare", (txn_id, (1,)), replica_ids=group.replica_ids
        )
        space.network.run_until(lambda: prepared.done)
        assert prepared.result()[1][0] == "prepared"
        voted = client.submit(
            "txn_vote",
            (txn_id, 1, 1, (("in", template("N1", ANY)),)),
            replica_ids=group.replica_ids,
        )
        space.network.run_until(lambda: voted.done)
        assert voted.result()[1][1] == "yes"
        return client, txn_id

    def test_expired_lock_is_forced_and_the_blocked_op_proceeds(self):
        space = sharded_space()
        space.bind("seeder").out(entry("N1", "tok"))
        self.wedge(space, ttl=4)
        # The blocked inp keeps retrying through the lock-resolution
        # wrapper; its own refused attempts advance the shard's op
        # counter past the expiry, at which point it force-aborts the
        # wedged transaction at the (replicated) coordinator and takes
        # the tuple the abort released.
        future = space.submit_inp(template("N1", ANY), process="p2")
        payload = drive(space, future)
        assert payload == ("OK", entry("N1", "tok"))

    def test_late_decision_loses_to_the_forced_abort(self):
        space = sharded_space()
        space.bind("seeder").out(entry("N1", "tok"))
        client, txn_id = self.wedge(space, ttl=4)
        taken = space.submit_inp(template("N1", ANY), process="p2")
        drive(space, taken)
        # The owner comes back and asks to commit: the first ordered
        # decision (the forced abort) already won, and the coordinator
        # answers with the recorded outcome instead.
        evidence = ((1, "yes", tuple(space.service.group(1).replica_ids[:2])),)
        late = client.submit(
            "txn_decision",
            (txn_id, "commit", None, evidence),
            replica_ids=space.service.group(1).replica_ids,
        )
        space.network.run_until(lambda: late.done)
        status, value = late.result()
        assert value[0] == "decided" and value[1] == "abort"
        assert value[2] == ("expired",)

    def test_force_before_expiry_is_refused(self):
        space = sharded_space()
        space.bind("seeder").out(entry("N1", "tok"))
        client, txn_id = self.wedge(space, ttl=10_000)
        forced = client.submit(
            "txn_force", (txn_id,), replica_ids=space.service.group(1).replica_ids
        )
        space.network.run_until(lambda: forced.done)
        status, value = forced.result()
        assert value[0] == "not-expired"


class TestWaiterRearmAfterTxn:
    def test_blocked_readers_survive_a_wake_that_misses(self):
        # Two blocked takers, tuples arriving one at a time through
        # cross-shard transfers: each insert wakes both waiters, one
        # wins the re-probe, and the loser's waiter must re-arm — the
        # second transfer then completes it.
        space = sharded_space()
        seeder = space.bind("seeder")
        seeder.out(entry("N1", "a"))
        seeder.out(entry("N1", "b"))
        first = space.submit("in", (template("N2", ANY),), process="r1", timeout=30_000.0)
        second = space.submit("in", (template("N2", ANY),), process="r2", timeout=30_000.0)
        move_a = space.submit_transfer(template("N1", "a"), entry("N2", "a"), process="m")
        space.network.run_until(lambda: move_a.done)
        space.network.run_until(lambda: first.done or second.done)
        move_b = space.submit_transfer(template("N1", "b"), entry("N2", "b"), process="m")
        space.network.run_until(lambda: first.done and second.done)
        got = {first.result()[1], second.result()[1]}
        assert got == {entry("N2", "a"), entry("N2", "b")}
        assert space.snapshot() == ()

    def test_transactional_insert_wakes_a_blocked_reader_once(self):
        space = sharded_space()
        space.bind("seeder").out(entry("N1", "tok"))
        blocked = space.submit(
            "in", (template("N3", ANY),), process="r1", timeout=30_000.0
        )
        space.network.run_for(50.0)
        assert not blocked.done
        mover = space.submit_transfer(
            template("N1", ANY), entry("N3", "tok"), process="m"
        )
        space.network.run_until(lambda: mover.done and blocked.done)
        assert blocked.result() == ("OK", entry("N3", "tok"))


# ----------------------------------------------------------------------
# Conservation + determinism under transactional traffic
# ----------------------------------------------------------------------


def escrow_scenario(seed, *, n_clients=3, obs=None):
    # Hash routing co-locates the three TOKEN names; pin each family to
    # its own group so the transfers genuinely cross shards.
    return Scenario(
        name="txn-escrow",
        clients=escrow_transfers(
            n_clients, families=3, tokens=5, transfers_per_client=3, seed=seed
        ),
        shards=3,
        routing=ExplicitRouting({f"TOKEN-{family}": family for family in range(3)}),
        seed=seed,
        obs=obs,
    )


class TestConservation:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16), n_clients=st.integers(1, 4))
    def test_concurrent_transfers_conserve_the_token_pool(self, seed, n_clients):
        result = run_scenario(escrow_scenario(seed, n_clients=n_clients))
        assert result.completed
        assert not any(runner.failed for runner in result.engine.runners)
        tokens = [
            item
            for item in result.engine.space.snapshot()
            if str(item.fields[0]).startswith("TOKEN-")
        ]
        assert len(tokens) == 5


class TestReplayAndPassivity:
    def test_same_seed_txn_traffic_replays_byte_identically(self):
        first = run_scenario(escrow_scenario(11))
        second = run_scenario(escrow_scenario(11))
        assert first.metrics.trace_digest() == second.metrics.trace_digest()
        assert first.metrics.trace_text() == second.metrics.trace_text()

    def test_txn_instrumentation_is_passive(self):
        bare = run_scenario(escrow_scenario(11))
        observed = run_scenario(escrow_scenario(11, obs=Observability()))
        assert bare.metrics.trace_digest() == observed.metrics.trace_digest()


# ----------------------------------------------------------------------
# Wire shapes
# ----------------------------------------------------------------------


TXN_MESSAGES = [
    TxnPrepare(
        replica="s1-r0",
        client="alice",
        txn_id=("alice", 0),
        participants=(1, 2),
        expires_at=70,
    ),
    TxnVote(
        replica="s2-r1",
        client="alice",
        txn_id=("alice", 0),
        shard=2,
        vote="no",
        reason=("no-match", 1),
        pins_digest="p" * 64,
    ),
    TxnDecision(
        replica="s1-r2",
        client="alice",
        txn_id=("alice", 0),
        outcome="abort",
        reason=("expired",),
    ),
    TxnAck(
        replica="s2-r3",
        client="alice",
        txn_id=("alice", 0),
        shard=2,
        outcome="commit",
    ),
]


class TestTxnWire:
    @pytest.mark.parametrize("message", TXN_MESSAGES, ids=lambda m: type(m).__name__)
    def test_messages_roundtrip_with_stable_digest(self, message):
        decoded = codec.decode(codec.encode(message))
        assert decoded == message
        assert type(decoded) is type(message)
        assert digest(decoded) == digest(message)
        assert isinstance(decoded.txn_id, tuple)

    def test_no_match_sentinel_is_wire_safe(self):
        assert codec.decode(codec.encode(NO_MATCH)) == NO_MATCH
