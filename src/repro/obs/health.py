"""repro.obs.health — online health probes over already-observed state.

Metrics count events and traces time requests; neither notices a system
that has *stopped*.  PR 9's digest-nondeterminism bug wedged whole
replica groups — checkpoint certificates starved below quorum, the log
window jammed at ``stable + log_window`` and the primary could not
assign another sequence number — while every counter simply stopped
moving.  :class:`HealthMonitor` closes that gap: a set of probes
evaluated on demand from state the deployment already exposes
(``node.statistics``, checkpoint vote tables, client counters, waiter
occupancy), sending **zero** extra messages and reading no clock, so
same-seed replay stays byte-identical with monitoring enabled.

Probes
======

``checkpoint-starvation``
    Per replica group: execution has run more than a checkpoint interval
    past the newest *stable* checkpoint (``warn``), or a full log window
    past it (``critical`` — the group wedges the moment the primary hits
    the high-water mark).  When the merged checkpoint vote tables show
    replicas voting **different digests** for the same sequence, the
    report names each digest's voters — the PR 9 wedge signature.
``view-churn``
    Per replica group: view changes keep firing between evaluations
    while execution makes no progress — the classic symptom of a group
    that can elect primaries but cannot order.
``reply-divergence``
    Client side: replies that never formed an ``f + 1`` quorum.  New
    mismatched replies since the last evaluation ``warn``; outright
    quorum failures (retransmissions exhausted) are ``critical``.
``occupancy``
    Per replica: waiter-table fill fraction against its hard cap
    (``warn`` at 80 %, ``critical`` at 95 % by default), with
    reply-cache and lock-table sizes along for the ride.
``shard-skew``
    Sharded deployments only: the fastest and slowest shard differ by
    more than a log window of executed sequences.

Hysteresis
==========

A condition must be observed on ``fire_after`` consecutive evaluations
before its report becomes *active* (one noisy sample never pages), and
an active report clears only after ``clear_after`` consecutive clean
evaluations (no flapping).  :meth:`HealthMonitor.check` returns the
active reports; ``Space.stats()["health"]`` surfaces them and the
``health_*`` metric families count them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.registry import MetricsRegistry

__all__ = [
    "HealthReport",
    "HealthMonitor",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "LEVELS",
]

#: Report severities, mildest first.
LEVELS = ("warn", "critical")


@dataclass(frozen=True)
class HealthReport:
    """One leveled finding from one probe about one subject."""

    probe: str
    level: str
    subject: str
    detail: str
    data: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "probe": self.probe,
            "level": self.level,
            "subject": self.subject,
            "detail": self.detail,
            "data": dict(self.data),
        }


def _digest_prefix(digest: Any) -> str:
    text = str(digest)
    return text[:12] if len(text) > 12 else text


class HealthMonitor:
    """Evaluate health probes against a deployment, with hysteresis.

    ``check(service)`` inspects one
    :class:`~repro.cluster.service.ShardedPEATS` (duck-typed: its
    ``groups`` and ``client_statistics()``) and returns the currently
    *active* reports.  The monitor is stateful — it keeps per-finding
    streak counters for the fire/clear hysteresis and previous counter
    values for the delta-based probes — but strictly passive: it only
    ever reads statistics the deployment already maintains.
    """

    enabled = True

    def __init__(
        self,
        *,
        fire_after: int = 2,
        clear_after: int = 2,
        occupancy_warn: float = 0.80,
        occupancy_critical: float = 0.95,
        churn_threshold: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if fire_after < 1 or clear_after < 1:
            raise ValueError("fire_after and clear_after must be at least 1")
        self.fire_after = fire_after
        self.clear_after = clear_after
        self.occupancy_warn = occupancy_warn
        self.occupancy_critical = occupancy_critical
        self.churn_threshold = churn_threshold
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
        # Previous counter samples for the delta probes.
        self._prev: dict[tuple[str, str], dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def check(self, service: Any, *, clients: Any = None) -> list[HealthReport]:
        """Run every probe once; return the active reports (sorted).

        ``clients`` optionally overrides where the reply-divergence probe
        reads client counters; by default it asks the service for
        ``client_statistics()``.
        """
        candidates: dict[tuple[str, str], HealthReport] = {}
        for report in self._probe_all(service, clients):
            candidates[(report.probe, report.subject)] = report
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

        for key in list(self._pending):
            if key not in candidates:
                del self._pending[key]
        for key in list(self._active):
            if key not in candidates:
                misses = self._missing.get(key, 0) + 1
                if misses >= self.clear_after:
                    del self._active[key]
                    self._missing.pop(key, None)
                    self._obs_cleared.inc()
                else:
                    self._missing[key] = misses

        self._update_gauges()
        return sorted(
            self._active.values(), key=lambda report: (report.probe, report.subject)
        )

    def _update_gauges(self) -> None:
        counts: dict[str, int] = {}
        for probe, _subject in self._active:
            counts[probe] = counts.get(probe, 0) + 1
        for probe in (
            "checkpoint-starvation",
            "view-churn",
            "reply-divergence",
            "occupancy",
            "shard-skew",
        ):
            self._obs_active.labels(probe=probe).set(counts.get(probe, 0))

    def active(self) -> list[HealthReport]:
        """The currently active reports without re-evaluating."""
        return sorted(
            self._active.values(), key=lambda report: (report.probe, report.subject)
        )

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

    # ------------------------------------------------------------------
    # Probes (each yields zero or more candidate reports)
    # ------------------------------------------------------------------

    def _probe_all(self, service: Any, clients: Any):
        # Duck-typed (the monitor imports nothing from the replication
        # layer); a one-shard cluster's one group has no name.
        groups = [(group.group or "group", group) for group in service.groups]
        for label, group in groups:
            yield from self._probe_checkpoint_starvation(label, group)
            yield from self._probe_view_churn(label, group)
            yield from self._probe_occupancy(label, group)
        yield from self._probe_reply_divergence(service, clients)
        if len(groups) > 1:
            yield from self._probe_shard_skew(groups)

    def _probe_checkpoint_starvation(self, label: str, group: Any):
        nodes = group.nodes
        if not nodes:
            return
        last = max(node.last_executed for node in nodes)
        stable = max(node.stable_checkpoint for node in nodes)
        interval = max(node.checkpoint_interval for node in nodes)
        window = max(node.log_window for node in nodes)
        lag = last - stable
        if lag <= interval:
            return
        level = "critical" if lag >= window else "warn"
        data: dict[str, Any] = {
            "lag": lag,
            "last_executed": last,
            "stable_checkpoint": stable,
            "checkpoint_interval": interval,
            "log_window": window,
        }
        detail = (
            f"{label}: execution at seq {last} but newest stable checkpoint "
            f"is {stable} (lag {lag}, log window {window})"
        )
        divergence = self._checkpoint_divergence(nodes, stable)
        if divergence:
            sequence, by_digest = divergence
            data["divergent_sequence"] = sequence
            data["votes_by_digest"] = {
                digest: sorted(voters) for digest, voters in by_digest.items()
            }
            groups_text = "; ".join(
                f"replicas {', '.join(sorted(voters))} report digest {digest}"
                for digest, voters in sorted(by_digest.items())
            )
            detail += (
                f" — checkpoint votes for seq {sequence} diverge: {groups_text}"
            )
        yield HealthReport(
            probe="checkpoint-starvation",
            level=level,
            subject=label,
            detail=detail,
            data=data,
        )

    @staticmethod
    def _checkpoint_divergence(nodes: Any, stable: int):
        """Merge every node's checkpoint vote table; report a digest split.

        Returns ``(sequence, {digest_prefix: set(voters)})`` for the
        highest voted sequence above the stable checkpoint when more
        than one digest is in play, else ``None``.
        """
        merged: dict[str, tuple[int, str]] = {}
        for node in nodes:
            table = getattr(node, "checkpoint_vote_table", None)
            if table is None:
                continue
            for voter, (sequence, digest) in table().items():
                current = merged.get(voter)
                if current is None or sequence > current[0]:
                    merged[voter] = (sequence, _digest_prefix(digest))
        votes = [(seq, dig, voter) for voter, (seq, dig) in merged.items()]
        if not votes:
            return None
        target = max(seq for seq, _, _ in votes)
        if target <= stable:
            return None
        by_digest: dict[str, set] = {}
        for sequence, digest, voter in votes:
            if sequence == target:
                by_digest.setdefault(digest, set()).add(voter)
        if len(by_digest) < 2:
            return None
        return target, by_digest

    def _probe_view_churn(self, label: str, group: Any):
        nodes = group.nodes
        if not nodes:
            return
        started = sum(node.statistics["view_changes_started"] for node in nodes)
        executed = max(node.last_executed for node in nodes)
        key = ("view-churn", label)
        prev = self._prev.get(key)
        self._prev[key] = {"started": started, "executed": executed}
        if prev is None:
            return
        churn = started - prev["started"]
        progress = executed - prev["executed"]
        if churn < self.churn_threshold or progress > 0:
            return
        yield HealthReport(
            probe="view-churn",
            level="warn",
            subject=label,
            detail=(
                f"{label}: {churn} view changes since the last evaluation "
                f"with no execution progress (stuck at seq {executed})"
            ),
            data={"view_changes": churn, "last_executed": executed},
        )

    def _probe_occupancy(self, label: str, group: Any):
        for node in group.nodes:
            occupancy = getattr(node.application, "occupancy", None)
            if occupancy is None:
                continue
            usage = occupancy()
            cap = usage.get("waiter_cap", 0)
            if cap <= 0:
                continue
            fraction = usage["waiters"] / cap
            if fraction < self.occupancy_warn:
                continue
            level = "critical" if fraction >= self.occupancy_critical else "warn"
            yield HealthReport(
                probe="occupancy",
                level=level,
                subject=str(node.replica_id),
                detail=(
                    f"{node.replica_id}: waiter table at "
                    f"{usage['waiters']}/{cap} ({fraction:.0%} of cap)"
                ),
                data=dict(usage),
            )

    def _probe_reply_divergence(self, service: Any, clients: Any):
        source = clients if clients is not None else getattr(
            service, "client_statistics", None
        )
        if source is None:
            return
        totals = source() if callable(source) else dict(source)
        key = ("reply-divergence", "clients")
        prev = self._prev.get(key)
        self._prev[key] = dict(totals)
        if prev is None:
            return
        mismatched = totals.get("mismatched_replies", 0) - prev.get(
            "mismatched_replies", 0
        )
        failures = totals.get("quorum_failures", 0) - prev.get("quorum_failures", 0)
        if failures > 0:
            yield HealthReport(
                probe="reply-divergence",
                level="critical",
                subject="clients",
                detail=(
                    f"{failures} request(s) exhausted retransmissions without "
                    f"an f+1 reply quorum since the last evaluation"
                ),
                data={"quorum_failures": failures, "mismatched_replies": mismatched},
            )
        elif mismatched > 0:
            yield HealthReport(
                probe="reply-divergence",
                level="warn",
                subject="clients",
                detail=(
                    f"{mismatched} request(s) saw all replies without an f+1 "
                    f"matching quorum since the last evaluation"
                ),
                data={"quorum_failures": 0, "mismatched_replies": mismatched},
            )

    def _probe_shard_skew(self, groups: list[tuple[str, Any]]):
        progress = {
            label: max((node.last_executed for node in group.nodes), default=0)
            for label, group in groups
        }
        window = max(
            (node.log_window for _, group in groups for node in group.nodes),
            default=0,
        )
        fastest = max(progress.values())
        slowest = min(progress.values())
        skew = fastest - slowest
        if window <= 0 or skew <= window:
            return
        laggard = min(progress, key=lambda label: (progress[label], label))
        yield HealthReport(
            probe="shard-skew",
            level="warn",
            subject="cluster",
            detail=(
                f"shard progress skew {skew} exceeds the log window {window}: "
                f"{laggard} at seq {progress[laggard]}, fastest at {fastest}"
            ),
            data={"progress": progress, "skew": skew, "log_window": window},
        )


class NullHealthMonitor:
    """Disabled monitor: ``enabled`` is False, every probe a no-op."""

    enabled = False

    def check(self, service: Any, *, clients: Any = None) -> list[HealthReport]:
        return []

    def active(self) -> list[HealthReport]:
        return []

    def statistics(self) -> dict[str, int]:
        return {"evaluations": 0, "active": 0, "fired": 0, "cleared": 0}

    def __repr__(self) -> str:
        return "NullHealthMonitor()"


#: Shared disabled monitor — the default every component binds against.
NULL_HEALTH = NullHealthMonitor()
