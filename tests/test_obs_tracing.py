"""End-to-end request tracing, Space.stats() surfacing and determinism."""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.obs import EventLog, Observability, PHASES
from repro.policy import AccessPolicy, Rule
from repro.sim import Scenario, SimMetrics, run_scenario
from repro.sim.workloads import consensus_storm
from repro.tuples import entry, template, Formal


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="obs-test"
    )


# ----------------------------------------------------------------------
# Phase view unit behaviour
# ----------------------------------------------------------------------


def test_tracer_first_observation_wins_and_sorts_canonically():
    log = EventLog()
    key = ("client", 0)
    log.record("prepare", "replica-2", 5.0, key=key)
    log.record("submit", "client", 1.0, key=key)
    log.record("prepare", "replica-0", 4.0, key=key)  # later report, ignored
    timeline = log.timeline(key)
    assert [row[0] for row in timeline] == ["submit", "prepare"]
    assert timeline[1] == ("prepare", 5.0, "replica-2")
    assert log.phase_durations(key) == [("submit→prepare", 4.0)]


def test_tracer_caps_new_requests_but_completes_open_spans():
    log = EventLog(max_requests=1)
    log.record("submit", "c", 1.0, key="a")
    log.record("complete", "c", 2.0, key="a")  # open span keeps recording
    log.record("submit", "c", 3.0, key="b")  # new key at cap: dropped
    stats = log.statistics()["tracing"]
    assert stats == {"requests": 1, "complete": 1, "observations": 2, "dropped": 1}


def test_phase_report_aggregates_over_requests():
    log = EventLog()
    for index, latency in enumerate((1.0, 3.0)):
        key = ("c", index)
        log.record("submit", "c", 0.0, key=key)
        log.record("complete", "c", latency, key=key)
    (row,) = log.phase_report()
    assert row["phase"] == "submit→complete"
    assert row["count"] == 2
    assert row["mean"] == pytest.approx(2.0)
    assert row["max"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Span assembly through the real stack
# ----------------------------------------------------------------------


def test_replicated_requests_assemble_full_consensus_span():
    obs = Observability()
    space = connect("replicated", policy=open_policy(), f=1, obs=obs)
    space.out(entry("k", 1), process="p0")
    assert space.rd(template("k", Formal("v")), process="p0") == entry("k", 1)
    keys = obs.events.requests()
    assert keys, "no spans were traced"
    phases = [phase for phase, _, _ in obs.events.timeline(keys[0])]
    assert phases == [
        "submit", "pre-prepare", "prepare", "commit", "execute", "reply", "complete",
    ]
    # Phase times never run backwards along the lifecycle.
    times = [when for _, when, _ in obs.events.timeline(keys[0])]
    assert times == sorted(times)


def test_sharded_requests_include_route_phase_and_shard_node():
    obs = Observability()
    space = connect("sharded", policy=open_policy(), shards=2, f=1, obs=obs)
    space.out(entry("a", 1), process="p0")
    space.out(entry("b", 2), process="p0")
    routed = {}
    for key in obs.events.requests():
        for phase, _, node in obs.events.timeline(key):
            if phase == "route":
                routed[key] = node
    assert routed, "sharded submits must traverse the route phase"
    assert all(node.startswith("shard-") for node in routed.values())
    # Both tuples hash to some shard; the route span also appears in the
    # scatter metrics when a wildcard probe fans out.
    assert space.rdp(template("a", Formal("v")), process="p0") == entry("a", 1)
    snap = obs.registry.snapshot()
    assert "cluster_routed_total" in snap


def test_wildcard_scatter_counts_probe_fanout():
    obs = Observability()
    space = connect("sharded", policy=open_policy(), shards=4, f=1, obs=obs)
    space.out(entry("x", 1), process="p0")
    from repro.tuples import ANY

    assert space.rdp(template(ANY, Formal("v")), process="p0") == entry("x", 1)
    snap = obs.registry.snapshot()
    rounds = snap["cluster_scatter_rounds_total"]["samples"][0]["value"]
    probes = snap["cluster_scatter_probes_total"]["samples"][0]["value"]
    assert rounds >= 1
    assert probes == rounds * 4


def test_all_phases_are_canonical():
    obs = Observability()
    space = connect("sharded", policy=open_policy(), shards=2, f=1, obs=obs)
    space.out(entry("k", 1), process="p0")
    seen = {
        phase
        for key in obs.events.requests()
        for phase, _, _ in obs.events.timeline(key)
    }
    assert seen <= set(PHASES)


# ----------------------------------------------------------------------
# Space.stats() surfacing
# ----------------------------------------------------------------------


def test_space_stats_surfaces_network_metrics_and_tracing():
    obs = Observability()
    space = connect("replicated", policy=open_policy(), f=1, obs=obs)
    space.out(entry("k", 1), process="p0")
    stats = space.stats()
    assert stats["backend"] == "replicated"
    assert "handler_errors" in stats["network"]
    assert stats["tracing"]["requests"] >= 1
    assert stats["metrics"]["client_requests_total"]["samples"][0]["value"] >= 1
    assert "nodes" in stats
    node_stats = next(iter(stats["nodes"].values()))
    for key in (
        "batches_proposed", "pending_unordered", "view_changes_started",
        "checkpoints_taken", "truncations", "reply_cache_hits", "requests_executed",
        "requests_proposed",
    ):
        assert key in node_stats


def test_space_stats_without_obs_omits_metrics_but_keeps_handler_errors():
    space = connect("replicated", policy=open_policy(), f=1)
    space.out(entry("k", 1), process="p0")
    stats = space.stats()
    assert "metrics" not in stats and "tracing" not in stats
    assert stats["network"]["handler_errors"] == 0


def test_local_space_stats():
    space = connect("local", policy=open_policy())
    space.out(entry("k", 1), process="p0")
    stats = space.stats()
    assert stats["backend"] == "local"
    assert stats["tuples"] == 1
    assert stats["policy"] == "obs-test"


def test_pbft_statistics_count_reply_cache_hits_with_obs():
    obs = Observability()
    space = connect("replicated", policy=open_policy(), f=1, obs=obs)
    space.out(entry("k", 1), process="p0")
    snap = obs.registry.snapshot()
    assert "pbft_batches_total" in snap
    batches = sum(s["value"] for s in snap["pbft_batches_total"]["samples"])
    assert batches >= 1
    # Only the primary proposes; its batch-size histogram has samples,
    # the backups' pre-bound children legitimately stay empty.
    sizes = snap["pbft_batch_size"]["samples"]
    assert sum(s["count"] for s in sizes) >= 1


def test_peo_denials_are_counted_by_reason():
    obs = Observability()
    # Policy with no inp rule: destructive reads denied.
    policy = AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp")], name="no-removal"
    )
    space = connect("replicated", policy=policy, f=1, obs=obs)
    space.out(entry("k", 1), process="p0")
    # The unified denial model reads a denied inp as "no match".
    assert space.inp(template("k", Formal("v")), process="p0") is None
    snap = obs.registry.snapshot()
    denials = snap["peats_denials_total"]["samples"]
    assert denials and all(s["labels"]["operation"] == "inp" for s in denials)
    # The label is the bounded kind, never the free-form reason text.
    assert {s["labels"]["reason"] for s in denials} == {"no-rule"}


# ----------------------------------------------------------------------
# Determinism: observability must not perturb the replay
# ----------------------------------------------------------------------


def _storm(obs):
    return Scenario(
        name="obs-determinism", clients=consensus_storm(8), seed=13, obs=obs
    )


def test_trace_digest_identical_with_and_without_observability():
    bare = run_scenario(_storm(None))
    instrumented = run_scenario(_storm(Observability()))
    assert bare.completed and instrumented.completed
    assert bare.metrics.trace_digest() == instrumented.metrics.trace_digest()


def test_instrumented_replay_is_self_identical_and_metrics_match():
    first_obs, second_obs = Observability(), Observability()
    first = run_scenario(_storm(first_obs))
    second = run_scenario(_storm(second_obs))
    assert first.metrics.trace_digest() == second.metrics.trace_digest()
    # The whole metrics export is deterministic too: same seed, same text.
    assert (
        first_obs.registry.to_prometheus_text()
        == second_obs.registry.to_prometheus_text()
    )
    assert first_obs.events.phase_report() == second_obs.events.phase_report()


# ----------------------------------------------------------------------
# SimMetrics throughput-series cache hardening (regression)
# ----------------------------------------------------------------------


def test_throughput_series_stays_fresh_when_interleaved_with_records():
    metrics = SimMetrics(throughput_bucket=10.0)
    metrics.record_complete(5.0, "p", "out", 0, latency=1.0, status="OK")
    assert metrics.throughput_series() == [(0.0, 1)]
    # A completion recorded *after* a series call must invalidate the cache.
    metrics.record_complete(15.0, "p", "out", 1, latency=1.0, status="OK")
    assert metrics.throughput_series() == [(0.0, 1), (10.0, 1)]
    metrics.record_complete(15.5, "p", "out", 2, latency=1.0, status="OK")
    assert metrics.throughput_series() == [(0.0, 1), (10.0, 2)]


def test_throughput_series_returns_defensive_copies():
    metrics = SimMetrics(throughput_bucket=10.0)
    metrics.record_complete(5.0, "p", "out", 0, latency=1.0, status="OK")
    series = metrics.throughput_series()
    series.append(("corrupted", 99))
    assert metrics.throughput_series() == [(0.0, 1)]


def test_throughput_bucket_reassignment_invalidates_cache():
    metrics = SimMetrics(throughput_bucket=10.0)
    metrics.record_complete(5.0, "p", "out", 0, latency=1.0, status="OK")
    metrics.record_complete(15.0, "p", "out", 1, latency=1.0, status="OK")
    assert metrics.throughput_series() == [(0.0, 1), (10.0, 1)]
    metrics.throughput_bucket = 100.0
    assert metrics.throughput_series() == [(0.0, 2)]
    with pytest.raises(ValueError):
        metrics.throughput_bucket = 0.0
