"""repro.obs — observability for every deployment shape.

The package bundles three passive instruments:

* :class:`~repro.obs.registry.MetricsRegistry` — labelled counters,
  gauges and histograms with deterministic iteration order and three
  exporters (plain dicts, JSON lines, Prometheus text);
* :class:`~repro.obs.events.EventLog` — one typed, structured event per
  instrumented moment (a submit, an execute, a message drop, a checkpoint
  vote, a lock grant, a policy denial, ...), read through two views: the
  per-request lifecycle phases keyed by the ``(client, request_id)``
  correlation id already on the wire, assembled into timelines and a
  "where did the time go" report; and per-node bounded rings with drop
  accounting, dumpable for the post-mortem ``python -m repro.obs.doctor``;
* :class:`~repro.obs.health.HealthMonitor` — the diagnosis rules of
  :mod:`repro.obs.rules` (checkpoint divergence and starvation, view
  churn, quorum failures, reply divergence, waiter occupancy, shard
  skew) run online over already-observed state with fire/clear
  hysteresis, surfaced via ``Space.stats()["health"]``.  The doctor
  runs the same rule table over ring dumps.

:class:`Observability` carries all three through ``connect(obs=...)`` /
``Scenario(obs=...)`` into every layer.  The registry is the one store
for every counted fact: components bind children on the deployment's
registry, and their ``statistics`` dicts (``node.statistics``,
``client.statistics``, ``network.statistics``, ``Space.stats()["txn"]``)
are read-only views over those children.  Without ``obs=`` the registry
is private and unexported (:func:`resolve_obs`), so the counters are live
either way and attaching a bundle only decides who else can read them.
No instrument reads a clock or an RNG — enabling observability never
perturbs the seeded simulation, so same-seed replays stay byte-identical
(the determinism tests pin this down).

Quick start::

    from repro.api import connect
    from repro.obs import Observability

    obs = Observability()
    space = connect("replicated", policy=policy, obs=obs)
    ... run a workload ...
    print(space.stats()["metrics"]["peats_operations_total"])
    for row in obs.events.phase_report():
        print(row)
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.events import EVENT_KINDS, PHASES, EventLog, NullEventLog, NULL_EVENTS
from repro.obs.health import (
    HealthMonitor,
    HealthReport,
    NullHealthMonitor,
    NULL_HEALTH,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "PHASES",
    "EVENT_KINDS",
    "EventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "HealthMonitor",
    "HealthReport",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "Observability",
    "resolve_obs",
]


class Observability:
    """Registry + event log + health monitor, one bundle.

    Every instrument defaults to a live instance; pass the matching
    null object (``NULL_EVENTS``, ``NULL_HEALTH``) to switch one off
    individually.  The registry has no null twin: it is the deployment's
    counter store.

    One bundle belongs to one deployment.  Components bind their metric
    children by node / client / transport label, and those ids are
    unique per network — so within one bundle label identity is instance
    identity, and two deployments sharing a bundle would share counters.
    """

    enabled = True

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        health: Union[HealthMonitor, NullHealthMonitor, None] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.health = (
            health if health is not None else HealthMonitor(registry=self.registry)
        )

    def snapshot(self) -> dict[str, Any]:
        return {
            "metrics": self.registry.snapshot(),
            **self.events.statistics(),  # tracing, flight
            "health": self.health.statistics(),
        }

    def __repr__(self) -> str:
        return (
            f"Observability(registry={self.registry!r}, events={self.events!r}, "
            f"health={self.health!r})"
        )


def resolve_obs(obs: Optional[Observability]) -> Observability:
    """Normalise an ``obs=`` argument.  ``None`` → a fresh *disabled*
    bundle, one per deployment or stand-alone component: nothing is traced,
    recorded, probed or exported (``enabled`` is False), but the registry
    is real and private — the ``statistics`` views read their counters
    from it."""
    if obs is not None:
        return obs
    bundle = Observability(events=NULL_EVENTS, health=NULL_HEALTH)
    bundle.enabled = False
    return bundle
