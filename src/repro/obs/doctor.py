"""repro.obs.doctor — merge event-log dumps into a post-mortem diagnosis.

``python -m repro.obs.doctor dump1.json dump2.json ...`` takes the
per-node ring dumps of the event log of a wedged (or merely suspicious)
deployment, merges them into one causally ordered timeline keyed by the
on-wire correlation ids, reads the :class:`~repro.obs.rules.Facts` the
recordings prove, runs the rule table of :mod:`repro.obs.rules` over them
(the one the live health monitor runs), cross-references an optional
health-report snapshot, and emits a text or JSON diagnosis.  On a
divergent-checkpoint wedge it reads "checkpoint votes for seq 8 diverge,
certificate stuck at 2/4 votes (quorum 3); replicas replica-1, replica-3
report digest X; replicas replica-0, replica-2 report digest Y".

Every input may be a full :meth:`~repro.obs.events.EventLog.dump`
(many nodes) or a single ``dump_node`` payload; overlapping dumps of the
same node are deduplicated by per-node sequence number, so partial and
repeated captures merge cleanly.  The tool is read-only and dependency
free (argparse + json only).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Optional

from repro.obs.rules import LEVELS, Facts, ReplicaFacts, evaluate

__all__ = [
    "load_dump", "merge_dumps", "build_timeline", "dump_facts", "diagnose",
    "render_text", "main",
]


def load_dump(path: Any) -> dict[str, Any]:
    """Read one JSON dump file (full dump or single-node payload)."""
    return json.loads(Path(path).read_text())


def _node_payloads(payload: dict[str, Any]) -> list[dict[str, Any]]:
    """The ``dump_node``-shaped payloads of either dump shape."""
    if isinstance(payload.get("nodes"), dict):
        return list(payload["nodes"].values())
    return [payload] if "node" in payload else []


def merge_dumps(payloads: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Merge dump payloads into ``{node: {"events", "recorded", "dropped"}}``.

    Overlapping dumps of one node (two captures of the same ring) are
    deduplicated by the per-node event sequence number; ``recorded`` and
    ``dropped`` take the largest value seen, since both are monotone.
    """
    merged: dict[str, dict[str, Any]] = {}
    for payload in payloads:
        for node_payload in _node_payloads(payload):
            name = str(node_payload.get("node"))
            slot = merged.setdefault(name, {"events": {}, "recorded": 0, "dropped": 0})
            slot["recorded"] = max(slot["recorded"], node_payload.get("recorded", 0))
            slot["dropped"] = max(slot["dropped"], node_payload.get("dropped", 0))
            for event in node_payload.get("events", ()):
                slot["events"][event.get("seq", len(slot["events"]))] = event
    return {
        name: {**slot, "events": [slot["events"][seq] for seq in sorted(slot["events"])]}
        for name, slot in sorted(merged.items())
    }


def build_timeline(merged: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
    """One causally ordered event list across every node.

    Events are stamped with their recording node and ordered by
    ``(t, node, seq)`` — the virtual (or wall) clock first, then a
    deterministic tiebreak, so two runs over the same dumps produce the
    same timeline byte for byte.
    """
    timeline: list[dict[str, Any]] = []
    for node, slot in merged.items():
        for event in slot["events"]:
            stamped = dict(event)
            stamped["node"] = node
            timeline.append(stamped)
    timeline.sort(key=lambda event: (event.get("t", 0.0), event["node"], event.get("seq", 0)))
    return timeline


def timeline_for_key(timeline: list[dict[str, Any]], key: Any) -> list[dict[str, Any]]:
    """The sub-timeline of one request's correlation id."""
    wanted = _key_token(key)
    return [event for event in timeline if _key_token(event.get("key")) == wanted]


def _key_token(key: Any) -> Optional[str]:
    return None if key is None else repr(tuple(key) if isinstance(key, (list, tuple)) else key)


def _group_of(node: str) -> str:
    """The replica group a node name belongs to (``shard-k`` prefix)."""
    return node.split(":", 1)[0] if ":" in node else "group"


#: Event kinds only replicas emit: a node is a replica iff it recorded one
#: (so n counts no client, and does count a replica whose votes went silent).
_REPLICA_KINDS = frozenset({
    "msg-send", "execute", "reply", "checkpoint-vote", "checkpoint-cert", "state-request",
    "state-response", "state-install", "view-change", "view-installed", "waiter-notify",
    "policy-deny", "lock-grant", "lock-release", "lock-expire",
})
_CLIENT_KINDS = {"quorum-failure": "quorum_failures", "reply-mismatch": "mismatched_replies"}


def dump_facts(merged: dict[str, dict[str, Any]]) -> Facts:
    """The rules' :class:`~repro.obs.rules.Facts`, read from merged dumps.

    Each node's events are replayed in its own recording order, so a
    replica's vote table ends as the live one did.  Null batches record
    no ``execute``; the replica's own checkpoint vote and its view-change
    events carry ``last_executed`` past them.
    """
    facts = Facts()
    for node, slot in merged.items():
        if slot["dropped"]:
            facts.truncated[node] = slot["dropped"]
        for event in slot["events"]:
            kind = event.get("kind")
            sequence = event.get("sequence", 0)
            if kind in ("msg-drop", "net-reject"):
                link = (  # a drop is recorded at its sender, a reject at its receiver
                    f"{node}->{event.get('receiver')}" if kind == "msg-drop"
                    else f"{event.get('sender')}->{node}"
                )
                reasons = facts.drops.setdefault(link, {})
                reason = str(event.get("reason", "unknown"))
                reasons[reason] = reasons.get(reason, 0) + 1
            elif kind in _CLIENT_KINDS:
                counts = facts.clients.setdefault(node, {})
                counts[_CLIENT_KINDS[kind]] = counts.get(_CLIENT_KINDS[kind], 0) + 1
            if kind not in _REPLICA_KINDS:
                continue
            replica = facts.replicas.setdefault(node, ReplicaFacts(_group_of(node)))
            if kind in ("execute", "state-install") or event.get("voter") == node:
                replica.last_executed = max(replica.last_executed, sequence)
            if kind in ("checkpoint-cert", "state-install"):
                replica.stable_checkpoint = max(replica.stable_checkpoint, sequence)
            elif kind == "checkpoint-vote":
                voter = str(event.get("voter"))
                if voter not in replica.votes or sequence >= replica.votes[voter][0]:
                    replica.votes[voter] = (sequence, event.get("digest"))
                for fact in ("checkpoint_interval", "log_window"):
                    setattr(replica, fact, event.get(fact, getattr(replica, fact)))
            elif kind == "view-change":
                replica.view_changes += 1
                replica.executed_at_view_change = event.get("last_executed", 0)
                replica.last_executed = max(replica.last_executed, replica.executed_at_view_change)
            elif kind == "view-installed":
                replica.view = event.get("view", replica.view)
    return facts


def diagnose(
    merged: dict[str, dict[str, Any]], *, health: Optional[list[dict[str, Any]]] = None
) -> dict[str, Any]:
    """The full diagnosis payload over merged dumps (+ optional health).

    The findings are the rule table of :mod:`repro.obs.rules` over
    :func:`dump_facts`, each keyed by ``kind``.  ``health`` is the
    ``Space.stats()["health"]`` list captured alongside the dumps; its
    reports are cross-referenced into the findings as ``health:<probe>``
    so the online and post-mortem views corroborate each other.
    """
    timeline = build_timeline(merged)
    findings = []
    for report in evaluate(dump_facts(merged)):
        finding = report.as_dict()
        finding["kind"] = finding.pop("probe")
        findings.append(finding)
    for report in health or []:
        findings.append({
            "kind": f"health:{report.get('probe', '?')}",
            "level": report.get("level", "warn"),
            "subject": report.get("subject", "?"),
            "detail": f"online probe: {report.get('detail', '')}",
            "data": dict(report.get("data", {})),
        })
    rank = {level: -index for index, level in enumerate(LEVELS)}
    findings.sort(key=lambda f: (rank.get(f["level"], 1), f["kind"], f["subject"]))
    return {
        "nodes": sorted(merged),
        "events": len(timeline),
        "span": [timeline[0].get("t", 0.0), timeline[-1].get("t", 0.0)] if timeline else [0.0, 0.0],
        "findings": findings,
    }


_LEVEL_TAGS = {"critical": "[CRIT]", "warn": "[WARN]", "info": "[info]"}


def render_text(diagnosis: dict[str, Any], *, tail: int = 0, timeline: Any = None) -> str:
    lines = [
        f"flight doctor: {len(diagnosis['nodes'])} node(s), "
        f"{diagnosis['events']} event(s), "
        f"t=[{diagnosis['span'][0]:g}, {diagnosis['span'][1]:g}]",
    ]
    if not diagnosis["findings"]:
        lines.append("no findings — the recordings look healthy")
    for finding in diagnosis["findings"]:
        tag = _LEVEL_TAGS.get(finding["level"], "[????]")
        lines.append(f"{tag} {finding['kind']} ({finding['subject']}): {finding['detail']}")
    if tail and timeline:
        lines += ["", f"last {min(tail, len(timeline))} event(s):"]
        for event in timeline[-tail:]:
            key = f" key={event['key']!r}" if event.get("key") is not None else ""
            lines.append(f"  t={event.get('t', 0.0):g} {event['node']} {event.get('kind')}{key}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.doctor",
        description="Merge event-log ring dumps into a post-mortem diagnosis.",
    )
    parser.add_argument("dumps", nargs="+", help="ring dump JSON files (EventLog.dump)")
    parser.add_argument("--health", help="optional Space.stats()['health'] JSON snapshot")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the diagnosis here instead of stdout")
    parser.add_argument(
        "--tail", type=int, default=0, help="show the last N merged timeline events (text)"
    )
    parser.add_argument(
        "--fail-on-critical", action="store_true", help="exit 1 on any critical finding"
    )
    options = parser.parse_args(argv)

    merged = merge_dumps([load_dump(path) for path in options.dumps])
    health = None
    if options.health:
        loaded = json.loads(Path(options.health).read_text())
        health = loaded if isinstance(loaded, list) else loaded.get("health", [])
    diagnosis = diagnose(merged, health=health)

    if options.format == "json":
        text = json.dumps(diagnosis, indent=2, sort_keys=True)
    else:
        text = render_text(diagnosis, tail=options.tail, timeline=build_timeline(merged))
    if options.output:
        Path(options.output).write_text(text + "\n")
    else:
        print(text)
    critical = any(f["level"] == "critical" for f in diagnosis["findings"])
    return 1 if (options.fail_on_critical and critical) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    raise SystemExit(main())
