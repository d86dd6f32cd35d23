"""repro.obs.events — one passive event log with two read views.

Every instrumented moment — a client submitting a request, a replica
executing it, a message dropped at a partition, a checkpoint vote — is
one ``record(kind, node, now, key=..., **fields)`` call on the
deployment's :class:`EventLog`.  The closed kind table says where each
kind goes:

* the **phase view**: per request, keyed by the correlation id that is
  already on every wire message (``ClientRequest.key == (client,
  request_id)``), the *first* time each lifecycle phase was reached — the
  2f+1 replicas all reach ``prepare``; the earliest one defines when the
  system did.  :meth:`EventLog.timeline` returns one request's phase
  times and :meth:`EventLog.phase_report` aggregates the deltas between
  consecutive present phases — the "where did the 1.5 ms go" table;
* the **ring view**: per node, a bounded ring of the last ``capacity``
  events, with monotone per-node sequence numbers and drop accounting, so
  a dump is honest about what it no longer shows.  :meth:`EventLog.dump`
  emits a deterministic JSON-able payload that ``python -m
  repro.obs.doctor`` merges across nodes into a diagnosis.

Canonical phases, in lifecycle order::

    submit → route → pre-prepare → prepare → commit → execute → reply → notify → complete

``route`` only appears on sharded deployments, ``notify`` only when a
replica pushes a waiter wake-up (:mod:`repro.notify`), and
``txn-prepare``/``txn-decision`` (between ``execute`` and ``reply``) only
for the commit protocol's ordered steps.  The per-replica ordering
phases stay out of the rings: a ring entry per request per replica would
make the full configuration pay for what the phase view already keeps.

The log is strictly passive: it never reads a clock or an RNG (the call
sites pass ``now``) and never schedules anything, so the byte-identical
same-seed replay holds with it on.  Call sites follow the guarded
convention (``if self._events.enabled:``), enforced by lint rule RL002,
so a deployment without the log pays one attribute read per moment.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Optional, Tuple

__all__ = ["PHASES", "EVENT_KINDS", "EventLog", "NullEventLog", "NULL_EVENTS"]

#: The closed kind table: kind → (ring, phase).  ``ring``: the per-node
#: ring keeps the event.  ``phase``: the lifecycle phase the per-request
#: index files a keyed event under (``None``: not a phase).  Typed kinds
#: keep dumps machine-diagnosable: the doctor pattern-matches on them.
_KINDS: dict[str, Tuple[bool, Optional[str]]] = {
    # The request lifecycle, in phase order.
    "submit": (True, "submit"),
    "route": (True, "route"),
    "pre-prepare": (False, "pre-prepare"),
    "prepare": (False, "prepare"),
    "commit": (False, "commit"),
    "execute": (True, "execute"),
    "txn-prepare": (False, "txn-prepare"),
    # A coordinator executing txn_decision/txn_force; the ring's
    # ``txn-decision`` is a decision pushed or learnt, another moment.
    "txn-decide": (False, "txn-decision"),
    "reply": (True, "reply"),
    "waiter-notify": (True, "notify"),
    "complete": (True, "complete"),
}
_KINDS.update(
    dict.fromkeys(
        (
            "msg-send", "msg-recv", "msg-drop",  # message plane
            "view-change", "view-installed",
            "checkpoint-vote", "checkpoint-cert",
            "state-request", "state-response", "state-install",
            "reply-mismatch", "quorum-failure",  # client-side vote failures
            "policy-deny",
            "waiter-register", "waiter-cancel",  # repro.notify
            "lock-grant", "lock-release", "lock-expire", "txn-vote", "txn-decision",
            "net-reject", "net-error",  # real transports (repro.net)
        ),
        (True, None),
    )
)

#: Canonical lifecycle order; assembled timelines sort by this.
PHASES: Tuple[str, ...] = tuple(phase for _, phase in _KINDS.values() if phase)
#: The closed vocabulary ``record`` accepts.
EVENT_KINDS: frozenset[str] = frozenset(_KINDS)

_PHASE_INDEX = {phase: index for index, phase in enumerate(PHASES)}


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _jsonable(value: Any) -> Any:
    """Deterministically convert an event field for a JSON dump."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class EventLog:
    """The deployment's one event log: a per-request phase index and
    per-node bounded rings, filled by one :meth:`record` per moment.

    ``capacity`` is per node: a ring holds that node's most recent
    events, older ones are evicted and counted, so ring memory is bounded
    by ``capacity * nodes`` regardless of run length.  ``max_requests``
    bounds the phase index: once reached, phases of *new* request keys
    are dropped (counted), while already-open spans keep completing.
    """

    enabled = True

    def __init__(self, *, capacity: int = 512, max_requests: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_requests <= 0:
            raise ValueError("max_requests must be positive")
        self._lock = threading.Lock()
        self.capacity = capacity
        self._max_requests = max_requests
        # node -> ring list (append until capacity, then overwrite at head).
        self._rings: dict[str, list[dict[str, Any]]] = {}
        self._heads: dict[str, int] = {}
        self._next_seq: dict[str, int] = {}
        self._dropped: dict[str, int] = {}
        # key -> {phase: (first_time, node)}; dicts preserve insertion
        # order, so iteration over spans is first-seen order.
        self._spans: dict[Hashable, dict[str, Tuple[float, str]]] = {}
        self._spans_dropped = 0
        self._observations = 0

    # ------------------------------------------------------------------
    # Recording (hot path — called from inside the event loops)
    # ------------------------------------------------------------------

    def record(
        self,
        kind: str,
        node: Any,
        now: float,
        *,
        key: Optional[Hashable] = None,
        **fields: Any,
    ) -> None:
        """Log one ``kind`` moment observed by ``node`` at time ``now``.

        ``key`` carries the on-wire correlation id when the moment belongs
        to one request's lifecycle; ``fields`` are free-form structured
        details (sequence numbers, digests, view numbers, reasons).
        """
        try:
            ring, phase = _KINDS[kind]
        except KeyError:
            raise ValueError(f"unknown event kind {kind!r}") from None
        name = str(node)
        if ring:
            event: dict[str, Any] = {"kind": kind, "t": now}
            if key is not None:
                event["key"] = key
            if fields:
                event.update(fields)
        with self._lock:
            if ring:
                self._append(name, event)
            if phase is not None and key is not None:
                # A route is the client's moment, filed under the shard
                # it picked.
                where = f"shard-{fields['shard']}" if kind == "route" else name
                self._observe(phase, key, where, now)

    def _append(self, name: str, event: dict[str, Any]) -> None:
        seq = self._next_seq.get(name, 0)
        self._next_seq[name] = seq + 1
        event["seq"] = seq
        ring = self._rings.get(name)
        if ring is None:
            ring = []
            self._rings[name] = ring
            self._heads[name] = 0
            self._dropped[name] = 0
        if len(ring) < self.capacity:
            ring.append(event)
        else:
            head = self._heads[name]
            ring[head] = event
            self._heads[name] = (head + 1) % self.capacity
            self._dropped[name] += 1

    def _observe(self, phase: str, key: Hashable, node: str, now: float) -> None:
        span = self._spans.get(key)
        if span is None:
            if len(self._spans) >= self._max_requests:
                self._spans_dropped += 1
                return
            span = {}
            self._spans[key] = span
        self._observations += 1
        if phase not in span:
            span[phase] = (now, node)

    # ------------------------------------------------------------------
    # Phase view
    # ------------------------------------------------------------------

    def requests(self) -> list[Hashable]:
        with self._lock:
            return list(self._spans)

    def timeline(self, key: Hashable) -> list[Tuple[str, float, str]]:
        """One request's ``(phase, time, node)`` rows in lifecycle order."""
        with self._lock:
            span = dict(self._spans.get(key, {}))
        rows = [(phase, when, node) for phase, (when, node) in span.items()]
        rows.sort(key=lambda row: _PHASE_INDEX[row[0]])
        return rows

    def phase_durations(self, key: Hashable) -> list[Tuple[str, float]]:
        """Deltas between consecutive present phases of one request."""
        timeline = self.timeline(key)
        return [(f"{a}→{b}", t1 - t0) for (a, t0, _), (b, t1, _) in zip(timeline, timeline[1:])]

    def phase_report(self) -> list[dict[str, Any]]:
        """Aggregate phase-to-phase latency over every traced request.

        One row per transition (``submit→pre-prepare`` etc.), with count,
        mean, p50, p95 and max — the per-request answer to "where did the
        time go", summed over the run.
        """
        samples: dict[str, list[float]] = {}
        order: dict[str, int] = {}
        for key in self.requests():
            timeline = self.timeline(key)
            for position, ((a, t0, _), (b, t1, _)) in enumerate(
                zip(timeline, timeline[1:])
            ):
                label = f"{a}→{b}"
                samples.setdefault(label, []).append(t1 - t0)
                if label not in order:
                    order[label] = _PHASE_INDEX[a] * 100 + position
        rows = []
        for label in sorted(samples, key=lambda name: (order[name], name)):
            ordered = sorted(samples[label])
            rows.append(
                {
                    "phase": label,
                    "count": len(ordered),
                    "mean": round(sum(ordered) / len(ordered), 3),
                    "p50": round(_percentile(ordered, 50), 3),
                    "p95": round(_percentile(ordered, 95), 3),
                    "max": round(ordered[-1], 3),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Ring view
    # ------------------------------------------------------------------

    def nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._rings)

    def events(self, node: Any) -> list[dict[str, Any]]:
        """One node's retained events, oldest first (sequence order)."""
        name = str(node)
        with self._lock:
            ring = self._rings.get(name)
            if not ring:
                return []
            head = self._heads[name]
            return [dict(event) for event in ring[head:] + ring[:head]]

    def dump_node(self, node: Any) -> dict[str, Any]:
        """One node's ring as a deterministic JSON-able payload."""
        name = str(node)
        events = [
            {field: _jsonable(value) for field, value in event.items()}
            for event in self.events(name)
        ]
        with self._lock:
            recorded = self._next_seq.get(name, 0)
            dropped = self._dropped.get(name, 0)
        return {
            "node": name,
            "capacity": self.capacity,
            "recorded": recorded,
            "dropped": dropped,
            "events": events,
        }

    def dump(self) -> dict[str, Any]:
        """Every node's ring, keyed by node name (sorted)."""
        return {
            "capacity": self.capacity,
            "nodes": {name: self.dump_node(name) for name in self.nodes()},
        }

    # ------------------------------------------------------------------
    # Both views
    # ------------------------------------------------------------------

    def statistics(self) -> dict[str, dict[str, int]]:
        """The phase view's counts under ``tracing``, the rings' under
        ``flight`` — the two sections of ``Space.stats()``."""
        with self._lock:
            complete = sum(1 for span in self._spans.values() if "complete" in span)
            return {
                "tracing": {
                    "requests": len(self._spans),
                    "complete": complete,
                    "observations": self._observations,
                    "dropped": self._spans_dropped,
                },
                "flight": {
                    "nodes": len(self._rings),
                    "retained": sum(len(ring) for ring in self._rings.values()),
                    "recorded": sum(self._next_seq.values()),
                    "dropped": sum(self._dropped.values()),
                },
            }

    def clear(self) -> None:
        with self._lock:
            self._rings.clear()
            self._heads.clear()
            self._next_seq.clear()
            self._dropped.clear()
            self._spans.clear()
            self._spans_dropped = 0
            self._observations = 0

    def __repr__(self) -> str:
        stats = self.statistics()
        return (
            f"EventLog(requests={stats['tracing']['requests']}, "
            f"nodes={stats['flight']['nodes']}, dropped={stats['flight']['dropped']})"
        )


class NullEventLog(EventLog):
    """Disabled log: ``enabled`` is False so call sites skip entirely,
    and every view reads empty."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self.capacity = 0

    def record(self, *args: Any, **fields: Any) -> None:
        pass

    def __repr__(self) -> str:
        return "NullEventLog()"


#: Shared disabled log — the default every component binds against.
NULL_EVENTS = NullEventLog()
