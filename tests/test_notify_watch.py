"""The ``repro.notify`` acceptance suite: waiter lifecycle, vote safety,
reactive ``Space.watch`` and the one-round-trip wake-up of blocking reads.

Three layers:

* unit tests for the bounded replica-side :class:`WaiterTable` (the
  client-side f+1 vote is the one tally every message kind shares, tested
  in ``test_client_tally.py``);
* simulated-network tests on the replicated and sharded backends — push
  wake-up in one round trip, policy suppression at notification time,
  waiter-table drain on cancel/timeout/close, Byzantine pushes that must
  not unblock a correct client, and same-seed replay determinism with the
  channel active;
* real-transport conformance (asyncio loopback and TCP) for ``watch`` and
  the pushed wake-up, mirroring ``test_net_transports.py``.

Registrations are soft state delivered outside the ordered request
stream, so the networked tests pump the network after arming before
producing — a watch only guarantees events for inserts ordered after its
registration landed.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.errors import OperationTimeoutError, TupleSpaceError
from repro.notify import Subscription, WaiterTable
from repro.policy import AccessPolicy, Rule
from repro.replication.crypto import digest
from repro.replication.messages import Notify
from repro.replication import ReplicaFaultMode
from repro.sim import Scenario, run_scenario
from repro.sim.workloads import queue_consumers
from repro.tuples import ANY, entry, template

#: Wall-clock guard for real-transport waits (milliseconds).
WAIT_MS = 20_000.0


def open_policy(name: str = "notify-open") -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name=name
    )


def pump(space, duration: float = 30.0) -> None:
    """Advance the simulated clock so soft-state registrations land."""
    space.network.run_for(duration)


# ----------------------------------------------------------------------
# WaiterTable (replica-side soft state, bounded)
# ----------------------------------------------------------------------


class TestWaiterTable:
    def test_register_match_cancel(self):
        table = WaiterTable()
        assert table.register("alice", 1, template("JOB", ANY), "rd")
        waiters = table.matching(entry("JOB", 7))
        assert [w.waiter_id for w in waiters] == [1]
        assert not table.matching(entry("OTHER", 7))
        table.cancel("alice", 1)
        assert len(table) == 0
        # Cancel is idempotent.
        table.cancel("alice", 1)

    def test_entry_template_normalised_and_junk_rejected(self):
        table = WaiterTable()
        # An Entry registers as "match exactly this tuple".
        assert table.register("alice", 1, entry("K", 5), "rd")
        assert table.matching(entry("K", 5))
        assert not table.matching(entry("K", 6))
        # Anything that is not an Entry/Template is refused, not stored.
        assert not table.register("alice", 2, object(), "rd")
        assert not table.register("alice", 3, 42, "watch")
        assert len(table) == 1

    def test_per_client_cap_evicts_oldest(self):
        table = WaiterTable(max_waiters=1024, max_per_client=4)
        for waiter_id in range(6):
            table.register("alice", waiter_id, template("T", waiter_id), "rd")
        assert len(table.waiters_of("alice")) == 4
        survivors = {w.waiter_id for w in table.waiters_of("alice")}
        assert survivors == {2, 3, 4, 5}, "oldest registrations must go first"
        assert table.evictions == 2

    def test_global_cap_bounds_table(self):
        table = WaiterTable(max_waiters=8, max_per_client=8)
        for client in ("a", "b", "c"):
            for waiter_id in range(4):
                table.register(client, waiter_id, template("T", ANY), "rd")
        assert len(table) == 8, "table must never exceed max_waiters"
        assert table.evictions == 4

    def test_reregister_same_id_refreshes(self):
        table = WaiterTable()
        table.register("alice", 1, template("A", ANY), "rd")
        table.register("alice", 1, template("B", ANY), "rd")
        assert len(table) == 1
        assert not table.matching(entry("A", 1))
        assert table.matching(entry("B", 1))

    def test_matching_is_oldest_first(self):
        table = WaiterTable()
        table.register("bob", 9, template("T", ANY), "rd")
        table.register("alice", 2, template("T", ANY), "in")
        order = [(w.client, w.waiter_id) for w in table.matching(entry("T", 0))]
        assert order == [("bob", 9), ("alice", 2)]


# ----------------------------------------------------------------------
# Replicated backend (simulated network)
# ----------------------------------------------------------------------


def replicated_space(policy=None, **kwargs):
    return connect("replicated", policy=policy or open_policy(), f=1, **kwargs)


class TestReplicatedNotify:
    def test_watch_delivers_ordered_inserts(self):
        space = replicated_space()
        with space.watch(template("EVT", ANY), process="observer") as sub:
            pump(space)  # registrations are soft state: let them land
            for step in range(3):
                space.submit_out(entry("EVT", step), process="producer")
                pump(space, 60.0)
            events = sub.poll()
        assert [e.entry for e in events] == [entry("EVT", i) for i in range(3)]
        # Events carry the inserting request's key — the deterministic
        # cross-replica identifier of the ordered insert.
        assert all(e.event[0] == "producer" for e in events)
        space.close()

    def test_blocking_rd_wakes_in_one_round_trip(self):
        space = replicated_space()
        net = space.network
        # A poll interval far beyond the test window: if the fallback
        # chain were doing the waking, the read could not finish in time.
        future = space.submit_rd(
            template("PING", ANY),
            process="consumer",
            timeout=100_000.0,
            poll_interval=5_000.0,
        )
        pump(space)  # initial probe resolves empty; waiter armed
        assert not future.done
        inserted_at = net.now
        space.submit_out(entry("PING", 1), process="producer")
        net.run_until(lambda: future.done)
        assert future.result() == ("OK", entry("PING", 1))
        wake = net.now - inserted_at
        assert wake < 200.0, (
            f"woken after {wake} simulated ms — the push channel, not the "
            f"5000 ms fallback poll, must do the waking"
        )
        space.close()

    def test_waiter_tables_drain_on_cancel_timeout_and_close(self):
        space = replicated_space()

        def waiters_per_node():
            return list(space.stats()["notify"]["waiters"].values())

        sub = space.watch(template("A", ANY), process="w1")
        future = space.submit_rd(
            template("B", ANY), process="w2", timeout=300.0, poll_interval=50.0
        )
        pump(space)
        assert waiters_per_node() == [2, 2, 2, 2]
        # Cancel the watch: its registration is withdrawn everywhere.
        sub.cancel()
        pump(space)
        assert waiters_per_node() == [1, 1, 1, 1]
        # Let the blocking read time out: its waiter is disarmed too.
        with pytest.raises(OperationTimeoutError):
            space.network.run_until(lambda: future.done)
            future.result()
        pump(space)
        assert waiters_per_node() == [0, 0, 0, 0]
        # close() cancels any remaining subscriptions.
        leftover = space.watch(template("C", ANY), process="w3")
        pump(space)
        assert waiters_per_node() == [1, 1, 1, 1]
        space.close()
        assert not leftover.active

    def test_policy_suppresses_notifications_at_push_time(self):
        # "spy" may not read, so its watch never fires even though the
        # registration itself is accepted — enforcement happens where the
        # paper puts it, at the replicas, when the notification is cut.
        policy = AccessPolicy(
            [
                Rule("out", "out"),
                Rule("rdp", "rdp", lambda inv, state: inv.process != "spy"),
                Rule("inp", "inp"),
                Rule("cas", "cas"),
            ],
            name="no-spy-reads",
        )
        space = replicated_space(policy=policy)
        spy_sub = space.watch(template("SECRET", ANY), process="spy")
        ok_sub = space.watch(template("SECRET", ANY), process="auditor")
        pump(space)
        space.submit_out(entry("SECRET", 42), process="producer")
        pump(space, 100.0)
        assert spy_sub.poll() == []
        assert [e.entry for e in ok_sub.poll()] == [entry("SECRET", 42)]
        space.close()

    def test_lying_replica_cannot_wake_or_corrupt_a_watch(self):
        # With f=1, the single lying replica corrupts the entries it
        # pushes; its vote can never pair with a correct replica's, so
        # the subscriber sees exactly the true entry (or nothing) — never
        # the corruption.
        space = replicated_space(replica_faults={1: ReplicaFaultMode.LYING})
        sub = space.watch(template("EVT", ANY), process="observer")
        pump(space)
        space.submit_out(entry("EVT", "truth"), process="producer")
        pump(space, 150.0)
        events = sub.poll()
        assert [e.entry for e in events] == [entry("EVT", "truth")]
        space.close()

    def test_forged_notify_does_not_unblock_a_correct_client(self):
        space = replicated_space()
        net = space.network
        future = space.submit_rd(
            template("GOLD", ANY),
            process="victim",
            timeout=2_000.0,
            poll_interval=400.0,
        )
        pump(space)
        client = space.service.client("victim")
        assert len(client.armed_waiters) == 1
        waiter = client.armed_waiters[0]
        fake = entry("GOLD", "fools")
        # One Byzantine replica forges pushes for a tuple that was never
        # inserted — even replayed many times, a single replica is below
        # the f+1 bar and the read must keep waiting.
        replica = space.service.nodes[1]
        for _ in range(3):
            net.send(
                replica.replica_id,
                "victim",
                Notify(
                    replica=replica.replica_id,
                    client="victim",
                    waiter_id=waiter.waiter_id,
                    event=("forger", 0),
                    entry=fake,
                    entry_digest=digest(fake),
                ),
            )
        pump(space, 300.0)
        assert not future.done, "a sub-quorum of pushes must never wake"
        # A mismatching digest is discarded before it is even counted.
        net.send(
            replica.replica_id,
            "victim",
            Notify(
                replica=replica.replica_id,
                client="victim",
                waiter_id=waiter.waiter_id,
                event=("forger", 1),
                entry=fake,
                entry_digest=digest(entry("GOLD", "wrong-digest")),
            ),
        )
        pump(space, 100.0)
        assert waiter.pending_votes <= 1
        with pytest.raises(OperationTimeoutError):
            net.run_until(lambda: future.done)
            future.result()
        space.close()

    def test_stats_exposes_notify_metric_families(self):
        from repro.obs import Observability

        obs = Observability()
        space = replicated_space(obs=obs)
        future = space.submit_rd(
            template("M", ANY), process="c", timeout=5_000.0, poll_interval=1_000.0
        )
        pump(space)
        space.submit_out(entry("M", 1), process="p")
        space.network.run_until(lambda: future.done)
        snapshot = obs.registry.snapshot()
        assert {
            "notify_waiters",
            "notify_pushed_total",
            "notify_wake_latency",
        } <= set(snapshot)
        pushed = snapshot["notify_pushed_total"]["samples"]
        assert sum(sample["value"] for sample in pushed) >= 2
        wake = snapshot["notify_wake_latency"]["samples"]
        assert sum(sample["count"] for sample in wake) >= 1
        space.close()


# ----------------------------------------------------------------------
# Sharded backend (simulated network)
# ----------------------------------------------------------------------


def sharded_space(**kwargs):
    return connect("sharded", policy=open_policy(), shards=2, f=1, **kwargs)


class TestShardedNotify:
    def test_concrete_watch_registers_on_owning_group_only(self):
        space = sharded_space()
        sub = space.watch(template("K1", ANY), process="observer")
        pump(space)
        per_shard = space.stats()["notify"]["waiters"]
        armed = {
            shard: sum(counts.values()) for shard, counts in per_shard.items()
        }
        assert sum(1 for total in armed.values() if total > 0) == 1, (
            f"a concrete-name watch must arm exactly one group, got {armed}"
        )
        sub.cancel()
        pump(space)
        assert all(
            count == 0
            for counts in space.stats()["notify"]["waiters"].values()
            for count in counts.values()
        )
        space.close()

    def test_wildcard_watch_sees_inserts_on_every_shard(self):
        space = sharded_space()
        sub = space.watch(template(ANY, ANY), process="observer")
        pump(space)
        names = ("K1", "K2", "K3", "K4")
        for step, name in enumerate(names):
            space.submit_out(entry(name, step), process="producer")
            pump(space, 60.0)
        events = sub.poll()
        assert {e.entry.fields[0] for e in events} == set(names)
        shards = {e.shard for e in events}
        assert shards == {0, 1}, f"expected events from both shards, got {shards}"
        space.close()

    def test_blocking_in_wakes_by_push_on_sharded(self):
        space = sharded_space()
        net = space.network
        future = space.submit_in(
            template("JOB", ANY),
            process="consumer",
            timeout=100_000.0,
            poll_interval=5_000.0,
        )
        pump(space)
        inserted_at = net.now
        space.submit_out(entry("JOB", "payload"), process="producer")
        net.run_until(lambda: future.done)
        assert future.result() == ("OK", entry("JOB", "payload"))
        assert net.now - inserted_at < 200.0
        assert space.snapshot() == (), "blocking in must consume the tuple"
        space.close()

    def test_watch_rejects_malformed_template(self):
        space = sharded_space()
        with pytest.raises(Exception):
            space.watch("not-a-template", process="observer")
        space.close()


# ----------------------------------------------------------------------
# Local backend
# ----------------------------------------------------------------------


class TestLocalNotify:
    def test_watch_delivers_and_cancels(self):
        space = connect("local", policy=open_policy())
        seen = []
        sub = space.watch(
            template("X", ANY), process="observer", on_event=lambda e: seen.append(e)
        )
        space.out(entry("X", 1), process="producer")
        space.out(entry("Y", 1), process="producer")
        events = sub.poll()
        assert [e.entry for e in events] == [entry("X", 1)]
        assert events[0].event is None, "local inserts carry no request key"
        assert len(seen) == 1
        sub.cancel()
        space.out(entry("X", 2), process="producer")
        assert sub.poll() == []
        space.close()

    def test_watch_requires_template(self):
        space = connect("local", policy=open_policy())
        with pytest.raises((TypeError, TupleSpaceError)):
            space.watch(123, process="observer")
        space.close()


# ----------------------------------------------------------------------
# Determinism and passivity with the channel active
# ----------------------------------------------------------------------


def notify_scenario(obs=None) -> Scenario:
    return Scenario(
        name="notify-determinism",
        clients=queue_consumers(2, 4, items_per_producer=2, burst_pause=40.0),
        seed=23,
        obs=obs,
    )


@pytest.mark.parametrize("backend", ["local", "replicated"])
def test_cancelled_subscriptions_are_forgotten(backend):
    """Regression: the space kept every cancelled Subscription (and its
    event buffer) until close(); a cancelled one must leave the list."""
    space = connect(backend, policy=open_policy())
    for _ in range(1_000):
        with space.watch(template("A", ANY), process="w"):
            pass
    assert space._watches == []
    kept = space.watch(template("A", ANY), process="w")
    assert space._watches == [kept]
    space.close()
    assert space._watches == [] and not kept.active


@pytest.mark.parametrize("backend", ["replicated", "sharded"])
def test_one_request_inserting_two_matches_delivers_both(backend):
    """Regression: pushes voted per inserting request, so the second
    match one transaction inserted lost its vote to the first and was
    never delivered.  Each inserted entry is its own vote."""
    space = replicated_space() if backend == "replicated" else sharded_space()
    with space.watch(template("W", ANY), process="observer") as sub:
        pump(space)
        txn = space.transact(process="producer").out(entry("W", 1)).out(entry("W", 2))
        txn.commit().raise_for_abort()
        pump(space, 60.0)
        events = sub.poll()
    # Votes complete in network-delivery order, not insertion order.
    assert len(events) == 2
    assert {e.entry for e in events} == {entry("W", 1), entry("W", 2)}
    assert events[0].event == events[1].event, "one request inserted both"
    space.close()


class TestNotifyDeterminism:
    def test_same_seed_replay_is_byte_identical_with_notify_active(self):
        first = run_scenario(notify_scenario())
        second = run_scenario(notify_scenario())
        assert first.completed and second.completed
        assert first.metrics.trace_digest() == second.metrics.trace_digest()

    def test_obs_is_passive_with_notify_active(self):
        from repro.obs import Observability

        plain = run_scenario(notify_scenario())
        observed = run_scenario(notify_scenario(obs=Observability()))
        assert plain.metrics.trace_digest() == observed.metrics.trace_digest()


# ----------------------------------------------------------------------
# Real transports (asyncio loopback + TCP)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
class TestRealTransportNotify:
    def test_watch_and_push_wake_conformance(self, transport):
        space = connect("replicated", policy=open_policy(), f=1, transport=transport)
        try:
            view = space.bind("consumer")
            sub = space.watch(template("EVT", ANY), process="observer")
            # Soft-state registrations: give them a wall-clock beat to land.
            future = space.submit_rd(
                template("EVT", ANY),
                process="consumer",
                timeout=WAIT_MS,
                poll_interval=WAIT_MS / 8.0,
            )
            deadline_net = space.network
            deadline_net.run_for(100.0)
            view.out(entry("EVT", "hello"))
            assert future.wait(WAIT_MS / 1000.0), "pushed wake-up did not arrive"
            assert future.result() == ("OK", entry("EVT", "hello"))
            event = sub.next(timeout=WAIT_MS)
            assert event is not None and event.entry == entry("EVT", "hello")
            sub.cancel()
        finally:
            space.close()
