"""repro.obs.registry — a zero-dependency metrics registry.

One :class:`MetricsRegistry` instance serves a whole deployment: every
layer (tuple space, PBFT nodes, cluster router, transports) asks it for a
:class:`Counter` / :class:`Gauge` / :class:`Histogram` by name and keeps
the returned *bound child* (one per label set), so the hot path is a bare
attribute call with no dict lookups, no string formatting and no
allocation.  The registry works identically under the virtual-time
``SimulatedNetwork`` and the wall-clock ``RealTransport`` family — it
never reads a clock and never touches any RNG, which is what keeps the
byte-identical same-seed replay guarantee intact with observability
enabled.

Iteration order is deterministic: metrics render in creation order and
samples in first-seen label order (plain dict insertion order), so two
identical runs produce identical exporter output.

The registry is also the deployment's *only* counter store: the
``statistics`` dicts of nodes, clients and transports are read-only views
over the children those components bound here.  When no observability
bundle is attached the deployment still gets a registry — a private one
nobody exports (see :func:`repro.obs.resolve_obs`).

Exporters: :meth:`MetricsRegistry.snapshot` (plain dicts, for
``Space.stats()``), :meth:`MetricsRegistry.to_json_lines` and
:meth:`MetricsRegistry.to_prometheus_text`.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Iterator, Mapping, Optional, Sequence, Tuple, TypeVar, cast

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bounds (milliseconds — request latencies span the
#: sub-ms simulated fast path up to multi-second wall-clock storms).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Canonical label identity: sorted ``(key, value)`` string pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    """Prometheus HELP escaping: backslash and newline only."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _format_bound(bound: float) -> str:
    """Render a bucket bound the way Prometheus clients do (no trailing 0s)."""
    return f"{bound:g}"


class _CounterChild:
    """One labelled counter sample.  ``inc`` is the entire hot path."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class _GaugeChild:
    """One labelled gauge sample (set / inc / dec)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """One labelled histogram sample: bucket counts + sum + count + max."""

    __slots__ = ("bounds", "counts", "sum", "count", "max")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value

    def cumulative(self) -> Iterator[Tuple[str, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            yield _format_bound(bound), running
        yield "+Inf", running + self.counts[-1]


class _Family:
    """Shared family behaviour: named children keyed by label set.

    The no-label child is memoized on a slot so the common unlabelled
    ``counter.inc()`` path skips even the dict access.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._children: dict[LabelKey, Any] = {}
        self._bare: Any = None

    def _new_child(self) -> Any:
        raise NotImplementedError

    def labels(self, **labels: Any) -> Any:
        if not labels:
            child = self._bare
            if child is None:
                child = self._bare = self._child_for(())
            return child
        return self._child_for(_label_key(labels))

    def _child_for(self, key: LabelKey) -> Any:
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._new_child()
                    # repro-lint: disable=RL006 — one child per label set and
                    # never pruned, so call sites label by bounded vocabularies
                    # (node ids, operations, reason *kinds*), never free text.
                    self._children[key] = child
        return child

    def samples(self) -> Iterator[Tuple[LabelKey, Any]]:
        # Snapshot the item list under the lock; values mutate freely after.
        with self._lock:
            items = list(self._children.items())
        return iter(items)


_F = TypeVar("_F", bound=_Family)


class Counter(_Family):
    """Monotone counter family.  ``labels(**kw)`` binds one sample."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value


class Gauge(_Family):
    """Point-in-time value family (queue depths, view numbers, ...)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    @property
    def value(self) -> float:
        return self.labels().value


class Histogram(_Family):
    """Distribution family with fixed bucket bounds."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """Deterministically-ordered collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Family creation (get-or-create, kind-checked)
    # ------------------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", *, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._family(Histogram, name, help, buckets or DEFAULT_BUCKETS)

    def _family(self, cls: type[_F], name: str, help: str, *args: Any) -> _F:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, help, self._lock, *args)
                    # repro-lint: disable=RL006 — keyed by family name, which
                    # RL004 requires to be a literal at every creation site.
                    self._metrics[name] = metric
        if type(metric) is not cls:
            raise TypeError(f"metric {name!r} already registered as {metric.kind}")
        return cast(_F, metric)

    def families(self) -> Iterator[_Family]:
        with self._lock:
            return iter(list(self._metrics.values()))

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view: ``{name: {kind, help, samples: [...]}}``."""
        out: dict[str, Any] = {}
        for family in self.families():
            samples: list[dict[str, Any]] = []
            for key, child in family.samples():
                row: dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    row["sum"] = child.sum
                    row["count"] = child.count
                    row["buckets"] = {le: count for le, count in child.cumulative()}
                else:
                    row["value"] = child.value
                samples.append(row)
            out[family.name] = {"kind": family.kind, "help": family.help, "samples": samples}
        return out

    def to_json_lines(self) -> str:
        """One compact JSON object per sample (easy to grep / load)."""
        lines: list[str] = []
        for name, family in self.snapshot().items():
            for sample in family["samples"]:
                record = {"name": name, "kind": family["kind"], **sample}
                lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition (HELP/TYPE headers, escaped labels)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.samples():
                if family.kind == "histogram":
                    for le, count in child.cumulative():
                        labels = _render_labels(key, (("le", le),))
                        lines.append(f"{family.name}_bucket{labels} {count}")
                    labels = _render_labels(key)
                    lines.append(f"{family.name}_sum{labels} {child.sum}")
                    lines.append(f"{family.name}_count{labels} {child.count}")
                else:
                    lines.append(f"{family.name}{_render_labels(key)} {child.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters and histograms add; gauges take the other side's value
        (last writer wins — the merge target is usually empty).  Used to
        aggregate per-shard or per-process registries into one report.
        """
        for family in other.families():
            if isinstance(family, Histogram):
                histogram = self.histogram(family.name, family.help, buckets=family.buckets)
                if histogram.buckets != family.buckets:
                    raise ValueError(
                        f"histogram {family.name!r} bucket bounds differ; cannot merge"
                    )
                for key, child in family.samples():
                    target = histogram._child_for(key)
                    for index, count in enumerate(child.counts):
                        target.counts[index] += count
                    target.sum += child.sum
                    target.count += child.count
                    target.max = max(target.max, child.max)
            elif isinstance(family, Counter):
                counter = self.counter(family.name, family.help)
                for key, child in family.samples():
                    counter._child_for(key).inc(child.value)
            elif isinstance(family, Gauge):
                gauge = self.gauge(family.name, family.help)
                for key, child in family.samples():
                    gauge._child_for(key).set(child.value)
            else:  # pragma: no cover - no other kinds exist
                raise TypeError(f"cannot merge metric kind {family.kind!r}")

    def __repr__(self) -> str:
        return f"MetricsRegistry(metrics={len(self._metrics)})"
