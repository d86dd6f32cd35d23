"""Health probes: unit behaviour over fake deployments, hysteresis, and
the live checkpoint-starvation signal on a real replicated group."""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.obs import HealthMonitor, HealthReport, NULL_HEALTH, Observability
from repro.policy import AccessPolicy, Rule
from repro.tuples import entry


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="health-test"
    )


# ----------------------------------------------------------------------
# Fakes — the monitor duck-types deployments, so tests can shape state
# ----------------------------------------------------------------------


class FakeApp:
    def __init__(self, waiters=0, cap=32):
        self._waiters, self._cap = waiters, cap

    def occupancy(self):
        return {
            "waiters": self._waiters, "waiter_cap": self._cap,
            "reply_cache": 0, "locks": 0,
        }


class FakeNode:
    def __init__(
        self,
        replica_id,
        *,
        last_executed=0,
        stable_checkpoint=0,
        checkpoint_interval=8,
        log_window=16,
        view_changes=0,
        votes=None,
        waiters=0,
        view=0,
        executed_at_view_change=0,
    ):
        self.replica_id = replica_id
        self.last_executed = last_executed
        self.stable_checkpoint = stable_checkpoint
        self.checkpoint_interval = checkpoint_interval
        self.log_window = log_window
        self.statistics = {"view_changes_started": view_changes}
        self.view = view
        self.executed_at_view_change = executed_at_view_change
        self._votes = dict(votes or {})
        self.application = FakeApp(waiters=waiters)

    def checkpoint_vote_table(self):
        return dict(self._votes)


class FakeService:
    group = None

    def __init__(self, nodes, client_totals=None):
        self.nodes = tuple(nodes)
        self._totals = client_totals or {}

    def client_statistics(self):
        return dict(self._totals)

    @property
    def groups(self):
        return (self,)


class FakeCluster:
    def __init__(self, groups):
        self.groups = tuple(groups)


def settle(monitor, service, rounds=2, **kwargs):
    """Run enough evaluations to pass the fire_after hysteresis."""
    reports = []
    for _ in range(rounds):
        reports = monitor.check(service, **kwargs)
    return reports


# ----------------------------------------------------------------------
# Probe units
# ----------------------------------------------------------------------


class TestCheckpointStarvation:
    def test_within_one_interval_is_silent(self):
        service = FakeService([FakeNode("r0", last_executed=8, stable_checkpoint=0)])
        assert settle(HealthMonitor(), service) == []

    def test_lag_past_interval_warns_and_past_window_is_critical(self):
        monitor = HealthMonitor()
        warn = FakeService([FakeNode("r0", last_executed=12, stable_checkpoint=0)])
        (report,) = settle(monitor, warn)
        assert (report.probe, report.level) == ("checkpoint-starvation", "warn")
        critical = FakeService([FakeNode("r0", last_executed=16, stable_checkpoint=0)])
        (report,) = settle(HealthMonitor(), critical)
        assert report.level == "critical"
        assert report.data["lag"] == 16

    def test_divergent_votes_name_each_digest_group(self):
        votes = {
            "r0": (8, "aaaa" * 16), "r2": (8, "aaaa" * 16),
            "r1": (8, "bbbb" * 16), "r3": (8, "bbbb" * 16),
        }
        node = FakeNode(
            "r0", last_executed=16, stable_checkpoint=0, votes=votes
        )
        (report,) = [
            r for r in settle(HealthMonitor(), FakeService([node]))
            if r.probe == "checkpoint-divergence"
        ]
        assert "diverge" in report.detail
        groups = report.data["votes_by_digest"]
        assert sorted(groups.values()) == [["r0", "r2"], ["r1", "r3"]]


class TestViewChurnAndOccupancy:
    def test_churn_without_progress_fires_and_progress_clears(self):
        node = FakeNode("r0", last_executed=5, view_changes=0)
        monitor = HealthMonitor(fire_after=1, clear_after=1)
        service = FakeService([node])
        assert monitor.check(service) == []  # no view change yet
        node.statistics["view_changes_started"] = 4  # +4 churn, no progress
        node.executed_at_view_change = 5
        (report,) = monitor.check(service)
        assert report.probe == "view-churn"
        node.statistics["view_changes_started"] = 8
        node.last_executed = 8  # churn continues but execution moves
        assert monitor.check(service) == []

    def test_occupancy_levels_track_waiter_fill(self):
        monitor = HealthMonitor(fire_after=1)
        quiet = FakeService([FakeNode("r0", waiters=8)])
        assert monitor.check(quiet) == []
        warm = FakeService([FakeNode("r0", waiters=28)])  # 87% of 32
        (report,) = monitor.check(warm)
        assert (report.probe, report.level) == ("occupancy", "warn")
        hot = FakeService([FakeNode("r0", waiters=31)])  # 97% of 32
        (report,) = monitor.check(hot)
        assert report.level == "critical"


class TestReplyDivergenceAndSkew:
    def test_quorum_failures_are_critical_and_delta_based(self):
        service = FakeService(
            [FakeNode("r0")], client_totals={"quorum_failures": 3}
        )
        monitor = HealthMonitor(fire_after=1)
        assert monitor.check(service) == []  # pre-existing count only seeds
        service._totals["quorum_failures"] = 5  # +2 since last evaluation
        (report,) = monitor.check(service)
        assert (report.probe, report.level) == ("quorum-failure", "critical")
        assert report.data["quorum_failures"] == 2

    def test_shard_skew_names_the_laggard(self):
        fast = FakeService(
            [FakeNode("s0:r0", last_executed=40, stable_checkpoint=40)]
        )
        slow = FakeService([FakeNode("s1:r0", last_executed=2)])
        fast.group, slow.group = "shard-0", "shard-1"
        cluster = FakeCluster([fast, slow])
        (report,) = settle(HealthMonitor(), cluster)
        assert report.probe == "shard-skew"
        assert "shard-1" in report.detail
        assert report.data["skew"] == 38


# ----------------------------------------------------------------------
# Hysteresis
# ----------------------------------------------------------------------


class TestHysteresis:
    def test_fire_after_consecutive_observations(self):
        monitor = HealthMonitor(fire_after=3, clear_after=1)
        sick = FakeService([FakeNode("r0", last_executed=16)])
        assert monitor.check(sick) == []
        assert monitor.check(sick) == []
        assert len(monitor.check(sick)) == 1  # third consecutive: fires
        assert monitor.statistics()["fired"] == 1

    def test_interrupted_streak_resets(self):
        monitor = HealthMonitor(fire_after=2, clear_after=1)
        sick = FakeService([FakeNode("r0", last_executed=16)])
        healthy = FakeService([FakeNode("r0", last_executed=16, stable_checkpoint=16)])
        assert monitor.check(sick) == []
        assert monitor.check(healthy) == []  # streak broken
        assert monitor.check(sick) == []  # back to one observation
        assert len(monitor.check(sick)) == 1

    def test_clear_after_consecutive_clean_evaluations(self):
        monitor = HealthMonitor(fire_after=1, clear_after=2)
        sick = FakeService([FakeNode("r0", last_executed=16)])
        healthy = FakeService([FakeNode("r0", last_executed=16, stable_checkpoint=16)])
        assert len(monitor.check(sick)) == 1
        assert len(monitor.check(healthy)) == 1  # still active: one clean round
        assert monitor.check(healthy) == []  # second clean round clears
        assert monitor.statistics()["cleared"] == 1
        assert monitor.active() == []

    def test_active_report_refreshes_while_condition_escalates(self):
        monitor = HealthMonitor(fire_after=1, clear_after=1)
        warn = FakeService([FakeNode("r0", last_executed=12)])
        critical = FakeService([FakeNode("r0", last_executed=40)])
        (report,) = monitor.check(warn)
        assert report.level == "warn"
        (report,) = monitor.check(critical)
        assert report.level == "critical"  # refreshed in place, no re-fire
        assert monitor.statistics()["fired"] == 1

    def test_constructor_validates_hysteresis(self):
        with pytest.raises(ValueError):
            HealthMonitor(fire_after=0)


# ----------------------------------------------------------------------
# Metrics, null monitor and Space surfacing
# ----------------------------------------------------------------------


def test_metric_families_count_evaluations_findings_and_active():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    monitor = HealthMonitor(fire_after=1, registry=registry)
    sick = FakeService([FakeNode("r0", last_executed=16)])
    monitor.check(sick)
    snap = registry.snapshot()
    evaluations = snap["health_evaluations_total"]["samples"][0]["value"]
    assert evaluations == 1
    fired = snap["health_findings_total"]["samples"]
    assert any(
        s["labels"] == {"probe": "checkpoint-starvation", "level": "critical"}
        and s["value"] == 1
        for s in fired
    )
    active = {
        s["labels"]["probe"]: s["value"]
        for s in snap["health_alerts_active"]["samples"]
    }
    assert active["checkpoint-starvation"] == 1
    assert active["view-churn"] == 0


def test_null_monitor_is_disabled_and_inert():
    assert NULL_HEALTH.enabled is False
    assert NULL_HEALTH.check(object()) == []
    assert NULL_HEALTH.active() == []
    assert NULL_HEALTH.statistics()["evaluations"] == 0


def test_health_report_as_dict_round_trips():
    report = HealthReport("p", "warn", "s", "d", {"k": 1})
    assert report.as_dict() == {
        "probe": "p", "level": "warn", "subject": "s", "detail": "d", "data": {"k": 1},
    }


def test_space_stats_run_one_health_evaluation_per_call():
    obs = Observability()
    space = connect("replicated", policy=open_policy(), f=1, obs=obs)
    space.out(entry("k", 1), process="p0")
    space.stats()
    space.stats()
    assert obs.health.statistics()["evaluations"] == 2
