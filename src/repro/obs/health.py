"""repro.obs.health — the diagnosis rules, run online with hysteresis.

Metrics count events and traces time requests; neither notices a system
that has *stopped* (a digest nondeterminism bug once wedged replica
groups while every counter simply stopped moving).  :class:`HealthMonitor`
builds, on demand, the :class:`~repro.obs.rules.Facts` the doctor reads
from dumps — from state the deployment already exposes: ``node.statistics``,
checkpoint vote tables, waiter occupancy, and the clients' cumulative
counters as deltas since the previous evaluation (the first one only
seeds them) — and runs the one rule table of :mod:`repro.obs.rules`.
It sends **zero** extra messages and reads no clock, so same-seed replay
stays byte-identical with monitoring enabled.

A finding must appear on ``fire_after`` consecutive evaluations before
it becomes *active* (one noisy sample never pages), and an active one
clears only after ``clear_after`` consecutive clean evaluations (no
flapping).  :meth:`HealthMonitor.check` returns the active reports;
``Space.stats()["health"]`` surfaces them and the ``health_*`` metric
families count them.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.rules import LEVELS, RULES, Facts, HealthReport, ReplicaFacts, evaluate

__all__ = ["HealthReport", "HealthMonitor", "NullHealthMonitor", "NULL_HEALTH", "LEVELS"]

#: The cumulative client counters the rules read as deltas.
_CLIENT_COUNTERS = ("mismatched_replies", "quorum_failures")


class HealthMonitor:
    """Evaluate the rule table against a deployment, with hysteresis.

    ``check(service)`` inspects one :class:`~repro.cluster.service.ShardedPEATS`
    (duck-typed: its ``groups`` and ``client_statistics()``) and returns the
    currently *active* reports.  The monitor keeps streak counters for the
    hysteresis and the previous client counters for their deltas, and only
    ever reads statistics the deployment already maintains.
    """

    enabled = True

    def __init__(
        self, *, fire_after: int = 2, clear_after: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if fire_after < 1 or clear_after < 1:
            raise ValueError("fire_after and clear_after must be at least 1")
        self.fire_after = fire_after
        self.clear_after = clear_after
        registry = registry if registry is not None else MetricsRegistry()
        self._obs_evaluations = registry.counter(
            "health_evaluations_total", "Health probe evaluation rounds"
        ).labels()
        self._obs_findings = registry.counter(
            "health_findings_total", "Health findings fired, by probe/level"
        )
        self._obs_cleared = registry.counter(
            "health_cleared_total", "Active health findings that cleared"
        ).labels()
        self._obs_active = registry.gauge(
            "health_alerts_active", "Currently active health alerts by probe"
        )
        # (probe, subject) -> consecutive evaluations the finding appeared.
        self._pending: dict[tuple[str, str], int] = {}
        # (probe, subject) -> the active (fired) report, refreshed each check.
        self._active: dict[tuple[str, str], HealthReport] = {}
        # (probe, subject) -> consecutive clean evaluations of an active one.
        self._missing: dict[tuple[str, str], int] = {}
        # The client counters of the previous evaluation.
        self._previous: Optional[dict[str, int]] = None

    def check(self, service: Any) -> list[HealthReport]:
        """Run every rule once; return the active reports (sorted)."""
        candidates = {
            (report.probe, report.subject): report for report in evaluate(self._facts(service))
        }
        self._obs_evaluations.inc()

        for key, report in candidates.items():
            if key in self._active:
                # Refresh (the level or data may have escalated).
                self._active[key] = report
                self._missing.pop(key, None)
                continue
            streak = self._pending.get(key, 0) + 1
            if streak >= self.fire_after:
                self._pending.pop(key, None)
                self._active[key] = report
                self._obs_findings.labels(probe=report.probe, level=report.level).inc()
            else:
                self._pending[key] = streak

        self._pending = {key: n for key, n in self._pending.items() if key in candidates}
        for key in list(self._active):
            if key not in candidates:
                misses = self._missing.get(key, 0) + 1
                if misses >= self.clear_after:
                    del self._active[key]
                    self._missing.pop(key, None)
                    self._obs_cleared.inc()
                else:
                    self._missing[key] = misses

        active = [probe for probe, _subject in self._active]
        for kind in RULES:
            self._obs_active.labels(probe=kind).set(active.count(kind))
        return self.active()

    def _facts(self, service: Any) -> Facts:
        """The rules' :class:`Facts`, read from a live deployment.

        Duck-typed (the monitor imports nothing from the replication
        layer); a one-shard cluster's one group has no name.  Reading
        advances the client-counter baseline the next call's deltas
        start from.
        """
        facts = Facts()
        for group in service.groups:
            for node in group.nodes:
                occupancy = getattr(node.application, "occupancy", None)
                facts.replicas[str(node.replica_id)] = ReplicaFacts(
                    group=group.group or "group",
                    last_executed=node.last_executed,
                    stable_checkpoint=node.stable_checkpoint,
                    view=node.view,
                    view_changes=node.statistics["view_changes_started"],
                    executed_at_view_change=node.executed_at_view_change,
                    votes={str(v): vote for v, vote in node.checkpoint_vote_table().items()},
                    checkpoint_interval=node.checkpoint_interval,
                    log_window=node.log_window,
                    occupancy=occupancy() if occupancy is not None else None,
                )
        client_statistics = getattr(service, "client_statistics", None)
        if client_statistics is not None:
            totals = client_statistics()
            now = {counter: totals.get(counter, 0) for counter in _CLIENT_COUNTERS}
            if self._previous is not None:
                facts.clients["clients"] = {c: now[c] - self._previous[c] for c in now}
            self._previous = now
        return facts

    def active(self) -> list[HealthReport]:
        """The currently active reports without re-evaluating."""
        return sorted(self._active.values(), key=lambda report: (report.probe, report.subject))

    def statistics(self) -> dict[str, int]:
        return {
            "evaluations": int(self._obs_evaluations.value),
            "active": len(self._active),
            "fired": int(sum(child.value for _, child in self._obs_findings.samples())),
            "cleared": int(self._obs_cleared.value),
        }

    def __repr__(self) -> str:
        return (
            f"HealthMonitor(active={len(self._active)}, "
            f"evaluations={int(self._obs_evaluations.value)})"
        )


class NullHealthMonitor:
    """Disabled monitor: ``enabled`` is False, every probe a no-op."""

    enabled = False

    def check(self, service: Any) -> list[HealthReport]:
        return []

    def active(self) -> list[HealthReport]:
        return []

    def statistics(self) -> dict[str, int]:
        return {"evaluations": 0, "active": 0, "fired": 0, "cleared": 0}

    def __repr__(self) -> str:
        return "NullHealthMonitor()"


#: Shared disabled monitor — the default every component binds against.
NULL_HEALTH = NullHealthMonitor()
