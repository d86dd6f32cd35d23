"""repro.obs.doctor — merge event-log dumps into a post-mortem diagnosis.

``python -m repro.obs.doctor dump1.json dump2.json ...`` takes the
per-node ring dumps of the event log of a wedged (or merely suspicious)
deployment, merges them into one causally ordered timeline keyed by the
on-wire correlation ids, cross-references an optional health-report
snapshot, and emits a text or JSON diagnosis naming what it can prove
from the recordings alone:

* **checkpoint-divergence** — replicas voted *different digests* for the
  same checkpoint sequence, so no 2f+1 certificate can form and the log
  window jams (the PR 9 wedge).  The finding names each digest's voters:
  "checkpoint certificate stuck at 2/4 votes since seq 16; replicas
  shard-1:replica-0, shard-1:replica-2 report digest X, replicas
  shard-1:replica-1, shard-1:replica-3 digest Y".
* **checkpoint-starvation** — votes for a sequence above the last
  certificate never reached quorum (crashed or partitioned voters).
* **view-churn** — repeated view changes recorded without later
  execution progress.
* **quorum-failure** / **reply-divergence** — client-side evidence that
  f+1 reply votes never formed.
* **message-loss** — drop/reject counts by reason, attributing lossy
  links, partitions, and MAC rejections.

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

__all__ = [
    "load_dump",
    "merge_dumps",
    "build_timeline",
    "diagnose",
    "render_text",
    "main",
]


# ----------------------------------------------------------------------
# Loading and merging
# ----------------------------------------------------------------------


def load_dump(path: Any) -> dict[str, Any]:
    """Read one JSON dump file (full dump or single-node payload)."""
    return json.loads(Path(path).read_text())


def _node_payloads(payload: dict[str, Any]):
    """Yield ``dump_node``-shaped payloads from either dump shape."""
    if "nodes" in payload and isinstance(payload["nodes"], dict):
        for node_payload in payload["nodes"].values():
            yield node_payload
    elif "node" in payload:
        yield payload


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
            slot = merged.setdefault(
                name, {"events": {}, "recorded": 0, "dropped": 0}
            )
            slot["recorded"] = max(slot["recorded"], node_payload.get("recorded", 0))
            slot["dropped"] = max(slot["dropped"], node_payload.get("dropped", 0))
            for event in node_payload.get("events", ()):
                slot["events"][event.get("seq", len(slot["events"]))] = event
    return {
        name: {
            "events": [slot["events"][seq] for seq in sorted(slot["events"])],
            "recorded": slot["recorded"],
            "dropped": slot["dropped"],
        }
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
    if key is None:
        return None
    if isinstance(key, (list, tuple)):
        return repr(tuple(key))
    return repr(key)


# ----------------------------------------------------------------------
# Diagnosis
# ----------------------------------------------------------------------


def _group_of(node: str) -> str:
    """The replica group a node name belongs to (``shard-k`` prefix)."""
    return node.split(":", 1)[0] if ":" in node else "group"


def _digest_prefix(digest: Any) -> str:
    text = str(digest)
    return text[:12] if len(text) > 12 else text


#: Event kinds only replicas emit — used to tell replicas from clients
#: when inferring each group's size n (and so f and the quorum).
_REPLICA_KINDS = frozenset(
    {
        "msg-send", "execute", "reply", "checkpoint-vote", "checkpoint-cert",
        "state-request", "state-response", "state-install", "view-change",
        "view-installed", "waiter-notify", "policy-deny", "lock-grant",
        "lock-release", "lock-expire",
    }
)


def _replica_members(timeline: list[dict[str, Any]]) -> dict[str, set]:
    """Group label -> replica names, inferred from replica-only events.

    Counting every dumped node would fold clients into n; counting only
    checkpoint voters would shrink n when some replicas went silent (the
    exact case the doctor must diagnose).  A node is a replica iff it
    recorded at least one replica-side event kind.
    """
    members: dict[str, set] = {}
    for event in timeline:
        if event.get("kind") in _REPLICA_KINDS:
            members.setdefault(_group_of(event["node"]), set()).add(event["node"])
    return members


def _analyze_checkpoints(timeline: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per replica group: latest votes vs the latest certificate."""
    findings: list[dict[str, Any]] = []
    replicas = _replica_members(timeline)
    groups: dict[str, dict[str, Any]] = {}
    for event in timeline:
        kind = event.get("kind")
        if kind not in ("checkpoint-vote", "checkpoint-cert"):
            continue
        node = event["node"]
        label = _group_of(node)
        group = groups.setdefault(
            label,
            {"votes": {}, "cert_seq": 0, "members": set(), "first_seen": {}},
        )
        group["members"].update(replicas.get(label, ()))
        group["members"].add(node)
        if kind == "checkpoint-cert":
            group["cert_seq"] = max(group["cert_seq"], event.get("sequence", 0))
            continue
        voter = str(event.get("voter"))
        group["members"].add(voter)
        sequence = event.get("sequence", 0)
        current = group["votes"].get(voter)
        if current is None or sequence >= current[0]:
            group["votes"][voter] = (sequence, _digest_prefix(event.get("digest")))
        first = group["first_seen"].get((voter, sequence))
        if first is None or event.get("t", 0.0) < first:
            group["first_seen"][(voter, sequence)] = event.get("t", 0.0)

    for label in sorted(groups):
        group = groups[label]
        votes = group["votes"]
        if not votes:
            continue
        target = max(sequence for sequence, _ in votes.values())
        if target <= group["cert_seq"]:
            continue
        n = max(len(group["members"]), len(votes))
        f = (n - 1) // 3
        quorum = 2 * f + 1
        by_digest: dict[str, list[str]] = {}
        for voter, (sequence, digest) in votes.items():
            if sequence == target:
                by_digest.setdefault(digest, []).append(voter)
        leading = max(len(voters) for voters in by_digest.values())
        since = min(
            (t for (voter, sequence), t in group["first_seen"].items() if sequence == target),
            default=0.0,
        )
        if len(by_digest) >= 2:
            groups_text = "; ".join(
                f"replicas {', '.join(sorted(voters))} report digest {digest}"
                for digest, voters in sorted(by_digest.items())
            )
            findings.append(
                {
                    "kind": "checkpoint-divergence",
                    "level": "critical",
                    "subject": label,
                    "detail": (
                        f"{label} checkpoint certificate stuck at {leading}/{n} "
                        f"votes since seq {target} (t={since:g}, quorum {quorum}); "
                        f"{groups_text}"
                    ),
                    "data": {
                        "sequence": target,
                        "quorum": quorum,
                        "replicas": n,
                        "votes_by_digest": {
                            digest: sorted(voters)
                            for digest, voters in sorted(by_digest.items())
                        },
                    },
                }
            )
        elif leading < quorum:
            findings.append(
                {
                    "kind": "checkpoint-starvation",
                    "level": "warn",
                    "subject": label,
                    "detail": (
                        f"{label} checkpoint for seq {target} has {leading}/{n} "
                        f"votes since t={since:g} and never reached the "
                        f"quorum of {quorum} (crashed or partitioned voters?)"
                    ),
                    "data": {
                        "sequence": target,
                        "quorum": quorum,
                        "replicas": n,
                        "votes": leading,
                    },
                }
            )
    return findings


def _analyze_view_churn(timeline: list[dict[str, Any]]) -> list[dict[str, Any]]:
    findings: list[dict[str, Any]] = []
    churn: dict[str, int] = {}
    last_view_change: dict[str, float] = {}
    last_execute: dict[str, float] = {}
    for event in timeline:
        group = _group_of(event["node"])
        if event.get("kind") == "view-change":
            churn[group] = churn.get(group, 0) + 1
            last_view_change[group] = event.get("t", 0.0)
        elif event.get("kind") == "execute":
            last_execute[group] = event.get("t", 0.0)
    for group in sorted(churn):
        if churn[group] < 4:
            continue
        stalled = last_execute.get(group, 0.0) < last_view_change.get(group, 0.0)
        findings.append(
            {
                "kind": "view-churn",
                "level": "warn" if stalled else "info",
                "subject": group,
                "detail": (
                    f"{group} recorded {churn[group]} view changes"
                    + (
                        " with no execution after the last one"
                        if stalled
                        else " (execution continued afterwards)"
                    )
                ),
                "data": {"view_changes": churn[group], "stalled": stalled},
            }
        )
    return findings


def _analyze_client_evidence(timeline: list[dict[str, Any]]) -> list[dict[str, Any]]:
    findings: list[dict[str, Any]] = []
    failures = [event for event in timeline if event.get("kind") == "quorum-failure"]
    mismatches = [event for event in timeline if event.get("kind") == "reply-mismatch"]
    if failures:
        keys = sorted({_key_token(event.get("key")) or "?" for event in failures})
        findings.append(
            {
                "kind": "quorum-failure",
                "level": "critical",
                "subject": "clients",
                "detail": (
                    f"{len(failures)} request(s) exhausted retransmissions "
                    f"without an f+1 reply quorum: {', '.join(keys[:5])}"
                    + ("..." if len(keys) > 5 else "")
                ),
                "data": {"count": len(failures), "keys": keys},
            }
        )
    if mismatches:
        findings.append(
            {
                "kind": "reply-divergence",
                "level": "warn",
                "subject": "clients",
                "detail": (
                    f"{len(mismatches)} reply round(s) saw every target answer "
                    f"without f+1 matching digests"
                ),
                "data": {"count": len(mismatches)},
            }
        )
    return findings


def _analyze_message_loss(timeline: list[dict[str, Any]]) -> list[dict[str, Any]]:
    by_reason: dict[str, int] = {}
    for event in timeline:
        if event.get("kind") in ("msg-drop", "net-reject"):
            reason = str(event.get("reason", "unknown"))
            by_reason[reason] = by_reason.get(reason, 0) + 1
    if not by_reason:
        return []
    total = sum(by_reason.values())
    parts = ", ".join(f"{reason}: {count}" for reason, count in sorted(by_reason.items()))
    return [
        {
            "kind": "message-loss",
            "level": "info",
            "subject": "network",
            "detail": f"{total} message(s) dropped or rejected ({parts})",
            "data": {"by_reason": by_reason, "total": total},
        }
    ]


def diagnose(
    merged: dict[str, dict[str, Any]],
    *,
    health: Optional[list[dict[str, Any]]] = None,
) -> dict[str, Any]:
    """The full diagnosis payload over merged dumps (+ optional health).

    ``health`` is the ``Space.stats()["health"]`` list captured alongside
    the dumps; its reports are cross-referenced into the findings so the
    online and post-mortem views corroborate each other.
    """
    timeline = build_timeline(merged)
    findings: list[dict[str, Any]] = []
    findings.extend(_analyze_checkpoints(timeline))
    findings.extend(_analyze_view_churn(timeline))
    findings.extend(_analyze_client_evidence(timeline))
    findings.extend(_analyze_message_loss(timeline))
    truncated = {
        node: slot["dropped"] for node, slot in merged.items() if slot["dropped"]
    }
    if truncated:
        findings.append(
            {
                "kind": "recording-truncated",
                "level": "info",
                "subject": "flight-recorder",
                "detail": (
                    f"{len(truncated)} node ring(s) wrapped — earliest history "
                    f"is missing (drops: "
                    + ", ".join(f"{node}={count}" for node, count in sorted(truncated.items()))
                    + ")"
                ),
                "data": {"dropped": truncated},
            }
        )
    for report in health or []:
        findings.append(
            {
                "kind": f"health:{report.get('probe', '?')}",
                "level": report.get("level", "warn"),
                "subject": report.get("subject", "?"),
                "detail": f"online probe: {report.get('detail', '')}",
                "data": dict(report.get("data", {})),
            }
        )
    rank = {"critical": 0, "warn": 1, "info": 2}
    findings.sort(key=lambda finding: (rank.get(finding["level"], 3), finding["kind"]))
    return {
        "nodes": sorted(merged),
        "events": len(timeline),
        "span": (
            [timeline[0].get("t", 0.0), timeline[-1].get("t", 0.0)] if timeline else [0.0, 0.0]
        ),
        "findings": findings,
    }


# ----------------------------------------------------------------------
# Rendering and CLI
# ----------------------------------------------------------------------

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
        lines.append("")
        lines.append(f"last {min(tail, len(timeline))} event(s):")
        for event in timeline[-tail:]:
            key = event.get("key")
            key_text = f" key={key!r}" if key is not None else ""
            lines.append(
                f"  t={event.get('t', 0.0):g} {event['node']} "
                f"{event.get('kind')}{key_text}"
            )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.doctor",
        description="Merge event-log ring dumps into a post-mortem diagnosis.",
    )
    parser.add_argument("dumps", nargs="+", help="ring dump JSON files (EventLog.dump)")
    parser.add_argument(
        "--health", help="optional Space.stats()['health'] JSON snapshot"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", help="write the diagnosis here instead of stdout")
    parser.add_argument(
        "--tail", type=int, default=0, help="show the last N merged timeline events (text)"
    )
    parser.add_argument(
        "--fail-on-critical",
        action="store_true",
        help="exit 1 when any critical finding is present",
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
        text = render_text(
            diagnosis, tail=options.tail, timeline=build_timeline(merged)
        )
    if options.output:
        Path(options.output).write_text(text + "\n")
    else:
        print(text)
    critical = any(f["level"] == "critical" for f in diagnosis["findings"])
    return 1 if (options.fail_on_critical and critical) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    raise SystemExit(main())
