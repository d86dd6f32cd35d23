"""Flight recorder: ring-buffer mechanics, dump shape, end-to-end events.

The recorder is the black box of PR 10 — per-node bounded rings of typed
events, strictly passive (no clock reads, no RNG), so the determinism
tests at the bottom pin that a fully instrumented replay stays
byte-identical with the bare one.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.obs import (
    EVENT_KINDS,
    EventLog,
    NullEventLog,
    NULL_EVENTS,
    Observability,
    NULL_HEALTH,
)
from repro.policy import AccessPolicy, Rule
from repro.sim import Scenario, run_scenario
from repro.sim.workloads import consensus_storm
from repro.tuples import entry, template, Formal


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="flight-test"
    )


# ----------------------------------------------------------------------
# Ring-buffer mechanics
# ----------------------------------------------------------------------


class TestRingBuffer:
    def test_unknown_kind_is_rejected(self):
        recorder = EventLog()
        with pytest.raises(ValueError):
            recorder.record("not-a-kind", "n", 0.0)

    def test_events_carry_kind_time_key_details_and_seq(self):
        recorder = EventLog()
        recorder.record("submit", "c1", 1.5, key=("c1", 0), operation="out")
        (event,) = recorder.events("c1")
        assert event["kind"] == "submit"
        assert event["t"] == 1.5
        assert event["key"] == ("c1", 0)  # dumps JSON-ify; in-memory keeps the key
        assert event["operation"] == "out"
        assert event["seq"] == 0

    def test_ring_wraps_and_accounts_drops(self):
        recorder = EventLog(capacity=4)
        for index in range(7):
            recorder.record("execute", "r0", float(index), sequence=index)
        events = recorder.events("r0")
        assert len(events) == 4
        # Oldest three were overwritten; survivors are in seq order.
        assert [event["seq"] for event in events] == [3, 4, 5, 6]
        assert [event["sequence"] for event in events] == [3, 4, 5, 6]
        dump = recorder.dump_node("r0")
        assert dump["recorded"] == 7
        assert dump["dropped"] == 3
        assert dump["capacity"] == 4

    def test_per_node_rings_are_independent(self):
        recorder = EventLog(capacity=2)
        recorder.record("execute", "a", 0.0, sequence=1)
        for index in range(3):
            recorder.record("execute", "b", float(index), sequence=index)
        assert len(recorder.events("a")) == 1
        assert len(recorder.events("b")) == 2
        assert recorder.nodes() == ["a", "b"]
        stats = recorder.statistics()["flight"]
        assert stats == {"nodes": 2, "retained": 3, "recorded": 4, "dropped": 1}

    def test_dump_is_deterministic_for_identical_histories(self):
        def build():
            recorder = EventLog(capacity=8)
            for index in range(12):
                recorder.record(
                    "msg-send", f"r{index % 3}", float(index), type="Prepare"
                )
            return recorder.dump()

        assert build() == build()

    def test_clear_resets_everything(self):
        recorder = EventLog(capacity=2)
        for index in range(5):
            recorder.record("execute", "r0", float(index), sequence=index)
        recorder.clear()
        assert recorder.nodes() == []
        assert recorder.statistics()["flight"] == {
            "nodes": 0, "retained": 0, "recorded": 0, "dropped": 0,
        }

    def test_null_recorder_is_disabled_and_inert(self):
        assert NULL_EVENTS.enabled is False
        assert isinstance(NULL_EVENTS, NullEventLog)
        NULL_EVENTS.record("execute", "r0", 0.0)
        assert NULL_EVENTS.nodes() == []
        assert NULL_EVENTS.dump() == {"capacity": 0, "nodes": {}}

    def test_event_kinds_is_a_closed_frozen_set(self):
        assert isinstance(EVENT_KINDS, frozenset)
        for kind in ("msg-send", "checkpoint-vote", "view-change", "policy-deny"):
            assert kind in EVENT_KINDS


# ----------------------------------------------------------------------
# End-to-end recording through the real stack
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_replicated_request_leaves_consensus_breadcrumbs(self):
        obs = Observability()
        space = connect("replicated", policy=open_policy(), f=1, obs=obs)
        space.out(entry("k", 1), process="p0")
        assert space.rdp(template("k", Formal("v")), process="p0") == entry("k", 1)
        kinds = {
            event["kind"]
            for node in obs.events.nodes()
            for event in obs.events.events(node)
        }
        assert {"submit", "msg-send", "msg-recv", "execute", "reply", "complete"} <= kinds
        # Every node that spoke has a ring: the client plus four replicas.
        assert len(obs.events.nodes()) == 5

    def test_sharded_submit_records_route_events(self):
        obs = Observability()
        space = connect("sharded", policy=open_policy(), shards=2, f=1, obs=obs)
        space.out(entry("a", 1), process="p0")
        routes = [
            event
            for node in obs.events.nodes()
            for event in obs.events.events(node)
            if event["kind"] == "route"
        ]
        assert routes and all(event["shard"] in (0, 1) for event in routes)

    def test_space_stats_surface_flight_and_health(self):
        obs = Observability()
        space = connect("replicated", policy=open_policy(), f=1, obs=obs)
        space.out(entry("k", 1), process="p0")
        stats = space.stats()
        assert stats["flight"]["recorded"] > 0
        assert stats["flight"]["dropped"] == 0
        assert stats["health"] == []  # healthy run: no active reports

    def test_flight_events_use_the_virtual_clock(self):
        obs = Observability()
        space = connect("replicated", policy=open_policy(), f=1, obs=obs)
        space.out(entry("k", 1), process="p0")
        for node in obs.events.nodes():
            times = [event["t"] for event in obs.events.events(node)]
            assert times == sorted(times)  # per-node rings are append-ordered


# ----------------------------------------------------------------------
# Determinism: recording must not perturb the replay
# ----------------------------------------------------------------------


def _storm(obs):
    return Scenario(
        name="flight-determinism", clients=consensus_storm(8), seed=29, obs=obs
    )


def test_trace_digest_identical_with_flight_and_health_enabled():
    bare = run_scenario(_storm(None))
    instrumented = run_scenario(_storm(Observability()))
    tracer_only = run_scenario(
        _storm(Observability(events=NULL_EVENTS, health=NULL_HEALTH))
    )
    assert bare.completed and instrumented.completed and tracer_only.completed
    assert bare.metrics.trace_digest() == instrumented.metrics.trace_digest()
    assert bare.metrics.trace_digest() == tracer_only.metrics.trace_digest()


def test_flight_dump_is_identical_across_same_seed_replays():
    first_obs, second_obs = Observability(), Observability()
    run_scenario(_storm(first_obs))
    run_scenario(_storm(second_obs))
    assert first_obs.events.dump() == second_obs.events.dump()
