"""repro.obs.registry — label semantics, exporters, merge, private registries."""

from __future__ import annotations

import json

import pytest

from repro.api import connect
from repro.obs import DEFAULT_BUCKETS, MetricsRegistry, Observability, resolve_obs
from repro.policy import AccessPolicy, Rule
from repro.tuples import entry


# ----------------------------------------------------------------------
# Label identity and family semantics
# ----------------------------------------------------------------------


def test_labels_are_order_insensitive_and_value_stringified():
    registry = MetricsRegistry()
    counter = registry.counter("ops_total", "ops")
    counter.labels(node="0", op="out").inc()
    counter.labels(op="out", node=0).inc(2.0)  # same identity, reordered + int
    (sample,) = registry.snapshot()["ops_total"]["samples"]
    assert sample["labels"] == {"node": "0", "op": "out"}
    assert sample["value"] == 3.0


def test_bare_and_labelled_children_are_distinct():
    registry = MetricsRegistry()
    counter = registry.counter("c", "")
    counter.inc()  # family-level convenience = bare child
    counter.labels(k="v").inc(5.0)
    values = {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in registry.snapshot()["c"]["samples"]
    }
    assert values == {(): 1.0, (("k", "v"),): 5.0}


def test_get_or_create_returns_same_family_and_rejects_kind_conflicts():
    registry = MetricsRegistry()
    first = registry.counter("n", "help")
    assert registry.counter("n") is first
    with pytest.raises(TypeError):
        registry.gauge("n")
    with pytest.raises(TypeError):
        registry.histogram("n")
    registry.histogram("h")
    with pytest.raises(TypeError):
        registry.counter("h")


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(10.0)
    gauge.inc(2.0)
    gauge.dec()
    assert gauge.value == 11.0


def test_histogram_buckets_are_cumulative_and_end_at_inf():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(1.0, 10.0))
    for value in (0.5, 0.7, 5.0, 100.0):
        histogram.observe(value)
    (sample,) = registry.snapshot()["lat"]["samples"]
    assert sample["count"] == 4
    assert sample["sum"] == pytest.approx(106.2)
    assert sample["buckets"] == {"1": 2, "10": 3, "+Inf": 4}


def test_snapshot_iteration_order_is_creation_order():
    registry = MetricsRegistry()
    for name in ("zeta", "alpha", "mid"):
        registry.counter(name).inc()
    assert list(registry.snapshot()) == ["zeta", "alpha", "mid"]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def test_prometheus_text_escapes_labels_and_help():
    registry = MetricsRegistry()
    counter = registry.counter("weird_total", 'has \\ and\nnewline')
    counter.labels(path='a\\b', quote='say "hi"', nl="x\ny").inc()
    text = registry.to_prometheus_text()
    assert '# HELP weird_total has \\\\ and\\nnewline' in text
    assert 'path="a\\\\b"' in text
    assert 'quote="say \\"hi\\""' in text
    assert 'nl="x\\ny"' in text
    assert text.endswith("\n")


def test_prometheus_text_histogram_series():
    registry = MetricsRegistry()
    registry.histogram("lat", "latency", buckets=(1.0,)).labels(node="0").observe(0.5)
    text = registry.to_prometheus_text()
    assert '# TYPE lat histogram' in text
    assert 'lat_bucket{node="0",le="1"} 1' in text
    assert 'lat_bucket{node="0",le="+Inf"} 1' in text
    assert 'lat_sum{node="0"} 0.5' in text
    assert 'lat_count{node="0"} 1' in text


def test_json_lines_round_trips():
    registry = MetricsRegistry()
    registry.counter("a").labels(x="1").inc(2.0)
    registry.gauge("b").set(7.0)
    records = [json.loads(line) for line in registry.to_json_lines().splitlines()]
    assert {r["name"] for r in records} == {"a", "b"}
    by_name = {r["name"]: r for r in records}
    assert by_name["a"]["value"] == 2.0 and by_name["a"]["labels"] == {"x": "1"}
    assert by_name["b"]["kind"] == "gauge"


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------


def test_merge_sums_counters_histograms_and_overwrites_gauges():
    left, right = MetricsRegistry(), MetricsRegistry()
    for registry, amount in ((left, 1.0), (right, 2.0)):
        registry.counter("ops").labels(shard="0").inc(amount)
        registry.gauge("depth").set(amount)
        registry.histogram("lat", buckets=(1.0,)).observe(amount)
    left.merge(right)
    snap = left.snapshot()
    assert snap["ops"]["samples"][0]["value"] == 3.0
    assert snap["depth"]["samples"][0]["value"] == 2.0
    lat = snap["lat"]["samples"][0]
    assert lat["count"] == 2 and lat["sum"] == pytest.approx(3.0)
    assert lat["buckets"] == {"1": 1, "+Inf": 2}


def test_merge_rejects_mismatched_histogram_buckets():
    left, right = MetricsRegistry(), MetricsRegistry()
    left.histogram("lat", buckets=(1.0,))
    right.histogram("lat", buckets=(2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        left.merge(right)


# ----------------------------------------------------------------------
# No obs= : a private registry per deployment, never a shared one
# ----------------------------------------------------------------------


def test_two_deployments_built_without_obs_do_not_share_counters():
    policy = AccessPolicy([Rule("out", "out"), Rule("rdp", "rdp")], name="open")
    busy = connect("replicated", policy=policy, f=1)
    idle = connect("replicated", policy=policy, f=1)
    for value in range(3):
        busy.out(entry("k", value), process="p0")
    assert busy.service.client_statistics()["requests"] == 3
    assert idle.service.client_statistics()["requests"] == 0
    assert all(node.statistics["requests_executed"] == 3 for node in busy.service.nodes)
    assert all(node.statistics["requests_executed"] == 0 for node in idle.service.nodes)
    assert busy.observability.registry is not idle.observability.registry


def test_resolve_obs_hands_out_a_fresh_disabled_bundle_with_a_live_registry():
    first, second = resolve_obs(None), resolve_obs(None)
    assert first is not second and first.registry is not second.registry
    assert not first.enabled
    assert not (first.events.enabled or first.health.enabled)
    first.registry.counter("x").inc()
    assert first.registry.counter("x").value == 1.0
    assert "x" not in second.registry.snapshot()
    attached = Observability()
    assert resolve_obs(attached) is attached and attached.enabled


def test_default_buckets_are_sorted_and_positive():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert all(bound > 0 for bound in DEFAULT_BUCKETS)


def test_observability_snapshot_bundles_metrics_and_tracing():
    obs = Observability()
    obs.registry.counter("ops").inc()
    obs.events.record("submit", "c", 1.0, key=("c", 0))
    snap = obs.snapshot()
    assert snap["metrics"]["ops"]["samples"][0]["value"] == 1.0
    assert snap["tracing"]["requests"] == 1
