"""repro.obs.rules — the one diagnosis engine: pure rules over one ``Facts`` shape.

:class:`~repro.obs.health.HealthMonitor` builds :class:`Facts` from a live
deployment and ``python -m repro.obs.doctor`` builds them from merged ring
dumps; both run :data:`RULES`, so a wedge gets the same findings live and
post mortem.  A fact only one source carries keeps its rule silent on the
other: no dump records waiter occupancy, and only dumps record drops and
ring wrap.

=========================  ============================================  ==============  ======
kind                       fires when                                    level           source
=========================  ============================================  ==============  ======
``checkpoint-divergence``  replicas vote different digests for the       critical        both
                           newest checkpoint above the stable one
``checkpoint-starvation``  execution runs > an interval past the stable  warn; critical  both
                           checkpoint; a full log window is critical
``view-churn``             ``VIEW_CHURN`` view changes started and none  warn            both
                           executed past where the newest one began
``quorum-failure``         retransmissions ran out without f+1 replies   critical        both
``reply-divergence``       every replica answered, no f+1 matching       warn            both
``occupancy``              waiter table ``OCCUPANCY_WARN`` (or           warn; critical  live
                           ``OCCUPANCY_CRITICAL``) of its cap
``shard-skew``             shard progress differs by > a log window      warn            both
``message-loss``           drops and rejects, by reason and link         info            dumps
``recording-truncated``    a ring wrapped: its earliest events are lost  info            dumps
=========================  ============================================  ==============  ======
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = [
    "Facts", "ReplicaFacts", "HealthReport", "RULES", "LEVELS", "VIEW_CHURN",
    "OCCUPANCY_WARN", "OCCUPANCY_CRITICAL", "evaluate",
]

#: Finding severities, mildest first.
LEVELS = ("info", "warn", "critical")
#: View changes started in one group, none followed by execution, that
#: make ``view-churn``.
VIEW_CHURN = 4
#: Waiter-table fill fractions at which ``occupancy`` warns / is critical.
OCCUPANCY_WARN = 0.80
OCCUPANCY_CRITICAL = 0.95


@dataclass(frozen=True)
class HealthReport:
    """One leveled finding of one rule about one subject."""

    probe: str
    level: str
    subject: str
    detail: str
    data: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class ReplicaFacts:
    """What one replica's state (or its ring) says about it."""

    group: str
    last_executed: int = 0
    stable_checkpoint: int = 0
    view: int = 0
    view_changes: int = 0
    #: ``last_executed`` when the newest view change started.
    executed_at_view_change: int = 0
    #: The latest checkpoint vote seen per voter: ``(sequence, digest)``.
    votes: dict[str, tuple[int, str]] = field(default_factory=dict)
    checkpoint_interval: int = 0
    log_window: int = 0
    #: ``PEATSReplica.occupancy()`` (live only).
    occupancy: Optional[dict[str, int]] = None


@dataclass
class Facts:
    """Everything the rules read: per replica, per client, per link."""

    replicas: dict[str, ReplicaFacts] = field(default_factory=dict)
    #: Client -> ``{"mismatched_replies": n, "quorum_failures": n}``.
    clients: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Link (``sender->receiver``) -> drop reason -> count (dumps only).
    drops: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Node -> events its ring lost to wrapping (dumps only).
    truncated: dict[str, int] = field(default_factory=dict)

    def groups(self) -> dict[str, dict[str, ReplicaFacts]]:
        groups: dict[str, dict[str, ReplicaFacts]] = {}
        for name, replica in sorted(self.replicas.items()):
            groups.setdefault(replica.group, {})[name] = replica
        return dict(sorted(groups.items()))


#: One rule's finding: ``(level, subject, detail, data)``.
Finding = tuple[str, str, str, dict[str, Any]]
Group = dict[str, ReplicaFacts]


def _top(group: Group, fact: str) -> int:
    return max(getattr(replica, fact) for replica in group.values())


def _quorum(n: int) -> int:
    return 2 * ((n - 1) // 3) + 1


def _votes(group: Group) -> tuple[int, dict[str, list[str]], int]:
    """The newest voted sequence, its voters by digest when it is above the
    stable checkpoint, and n (replicas plus voters only seen voting)."""
    latest: dict[str, tuple[int, str]] = {}
    for replica in group.values():
        for voter, (sequence, digest) in replica.votes.items():
            if voter not in latest or sequence > latest[voter][0]:
                latest[voter] = (sequence, str(digest)[:12])
    target = max((sequence for sequence, _ in latest.values()), default=0)
    camps: dict[str, list[str]] = {}
    if target > _top(group, "stable_checkpoint"):
        for voter, (sequence, digest) in sorted(latest.items()):
            if sequence == target:
                camps.setdefault(digest, []).append(voter)
    return target, dict(sorted(camps.items())), len(set(group) | set(latest))


def _checkpoint_divergence(facts: Facts) -> Iterator[Finding]:
    for label, group in facts.groups().items():
        sequence, camps, n = _votes(group)
        if len(camps) < 2:
            continue
        text = "; ".join(f"replicas {', '.join(v)} report digest {d}" for d, v in camps.items())
        yield "critical", label, (
            f"{label}: checkpoint votes for seq {sequence} diverge, certificate stuck at "
            f"{max(map(len, camps.values()))}/{n} votes (quorum {_quorum(n)}); {text}"
        ), {"sequence": sequence, "quorum": _quorum(n), "replicas": n, "votes_by_digest": camps}


def _checkpoint_starvation(facts: Facts) -> Iterator[Finding]:
    for label, group in facts.groups().items():
        last, stable = _top(group, "last_executed"), _top(group, "stable_checkpoint")
        interval, window = _top(group, "checkpoint_interval"), _top(group, "log_window")
        lag = last - stable
        if interval <= 0 or lag <= interval:
            continue
        sequence, camps, n = _votes(group)
        votes = max(map(len, camps.values()), default=0)
        yield ("critical" if lag >= window else "warn"), label, (
            f"{label}: execution at seq {last} but the newest stable checkpoint is {stable} "
            f"(lag {lag}, log window {window}); the newest vote above it has {votes}/{n} "
            f"(quorum {_quorum(n)})"
        ), {"lag": lag, "last_executed": last, "stable_checkpoint": stable,
            "checkpoint_interval": interval, "log_window": window,
            "sequence": sequence, "votes": votes, "quorum": _quorum(n)}


def _view_churn(facts: Facts) -> Iterator[Finding]:
    for label, group in facts.groups().items():
        started = sum(replica.view_changes for replica in group.values())
        executed, view = _top(group, "last_executed"), _top(group, "view")
        since = max(
            (r.executed_at_view_change for r in group.values() if r.view_changes), default=0
        )
        if started >= VIEW_CHURN and executed <= since:
            yield "warn", label, (
                f"{label}: {started} view changes started (now view {view}) and no "
                f"replica executed past seq {executed} since the newest one"
            ), {"view_changes": started, "view": view, "last_executed": executed}


def _client_rule(counter: str, level: str, what: str) -> Callable[[Facts], Iterator[Finding]]:
    def rule(facts: Facts) -> Iterator[Finding]:
        count = sum(counts.get(counter, 0) for counts in facts.clients.values())
        if count > 0:
            yield level, "clients", f"{count} {what}", {counter: count}

    return rule


def _occupancy(facts: Facts) -> Iterator[Finding]:
    for name, replica in sorted(facts.replicas.items()):
        usage = replica.occupancy or {}
        cap = usage.get("waiter_cap", 0)
        fraction = usage["waiters"] / cap if cap > 0 else 0.0
        if fraction >= OCCUPANCY_WARN:
            yield ("critical" if fraction >= OCCUPANCY_CRITICAL else "warn"), name, (
                f"{name}: waiter table at {usage['waiters']}/{cap} ({fraction:.0%} of cap)"
            ), dict(usage)


def _shard_skew(facts: Facts) -> Iterator[Finding]:
    groups = facts.groups()
    progress = {label: _top(group, "last_executed") for label, group in groups.items()}
    fastest, slowest = max(progress.values(), default=0), min(progress.values(), default=0)
    window = max((replica.log_window for replica in facts.replicas.values()), default=0)
    if len(groups) > 1 and 0 < window < fastest - slowest:
        laggard = min(progress, key=lambda label: (progress[label], label))
        yield "warn", "cluster", (
            f"shard progress skew {fastest - slowest} exceeds the log window {window}: "
            f"{laggard} at seq {slowest}, fastest at {fastest}"
        ), {"progress": progress, "skew": fastest - slowest, "log_window": window}


def _message_loss(facts: Facts) -> Iterator[Finding]:
    by_reason: dict[str, int] = {}
    for reasons in facts.drops.values():
        for reason, count in reasons.items():
            by_reason[reason] = by_reason.get(reason, 0) + count
    if by_reason:
        total = sum(by_reason.values())
        by_link = {link: sum(reasons.values()) for link, reasons in sorted(facts.drops.items())}
        parts = ", ".join(f"{reason}: {count}" for reason, count in sorted(by_reason.items()))
        yield "info", "network", (
            f"{total} message(s) dropped or rejected on {len(by_link)} link(s) ({parts})"
        ), {"by_reason": by_reason, "by_link": by_link, "total": total}


def _recording_truncated(facts: Facts) -> Iterator[Finding]:
    if facts.truncated:
        drops = ", ".join(f"{node}={count}" for node, count in sorted(facts.truncated.items()))
        yield "info", "flight-recorder", (
            f"{len(facts.truncated)} node ring(s) wrapped — earliest history is missing "
            f"(drops: {drops})"
        ), {"dropped": dict(facts.truncated)}


#: The rule table: finding kind -> rule.  Both diagnosers run every row.
RULES: dict[str, Callable[[Facts], Iterable[Finding]]] = {
    "checkpoint-divergence": _checkpoint_divergence,
    "checkpoint-starvation": _checkpoint_starvation,
    "view-churn": _view_churn,
    "quorum-failure": _client_rule(
        "quorum_failures", "critical",
        "request(s) exhausted retransmissions without an f+1 reply quorum",
    ),
    "reply-divergence": _client_rule(
        "mismatched_replies", "warn",
        "reply round(s) saw every replica answer without f+1 matching digests",
    ),
    "occupancy": _occupancy,
    "shard-skew": _shard_skew,
    "message-loss": _message_loss,
    "recording-truncated": _recording_truncated,
}


def evaluate(facts: Facts) -> list[HealthReport]:
    """Every rule's findings over ``facts``, in table order."""
    return [HealthReport(kind, *finding) for kind, rule in RULES.items() for finding in rule(facts)]
