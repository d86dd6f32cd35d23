#!/usr/bin/env python3
"""Observability tour: where does one consensus operation spend its time?

A 16-client consensus storm runs twice — on the deterministic virtual-time
simulation and on the real asyncio loopback transport — with one
:class:`repro.obs.Observability` bundle attached to each deployment.  The
bundle threads itself through every layer (client, shard router, PBFT
nodes, executing replicas, reference monitor, transport) via the
correlation id already on the wire, so afterwards we can print:

* the **phase report**, the event log's per-request view: aggregate
  submit → pre-prepare → prepare → commit → execute → reply → complete
  latency over every traced request ("where did the 1.5 ms go");
* one request's **timeline**, phase by phase, with the node that
  reached each phase first;
* the **metrics registry**: batches, pending-queue depth, policy
  denials, reply-cache hits, per-transport frame counts — identical
  machinery under both substrates.

The event log is passive: the same seeded scenario replayed *without* the
bundle produces a byte-identical trace digest, which this script checks.

Run it with::

    python examples/observability_tour.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.api import connect  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.policy import AccessPolicy, Rule  # noqa: E402
from repro.sim import Scenario, run_scenario  # noqa: E402
from repro.sim.workloads import consensus_storm  # noqa: E402
from repro.tuples import Formal, entry, template  # noqa: E402

STORM_CLIENTS = 16


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="obs-tour"
    )


def print_phase_report(obs: Observability, *, unit: str) -> None:
    rows = obs.events.phase_report()
    width = max(len(row["phase"]) for row in rows)
    print(f"  phase breakdown ({unit}):")
    for row in rows:
        print(
            f"    {row['phase']:<{width}}  count={row['count']:<4}"
            f" mean={row['mean']:<8} p50={row['p50']:<8}"
            f" p95={row['p95']:<8} max={row['max']}"
        )


def print_one_timeline(obs: Observability) -> None:
    key = obs.events.requests()[0]
    print(f"  request {key} phase by phase:")
    start = obs.events.timeline(key)[0][1]
    for phase, when, node in obs.events.timeline(key):
        print(f"    +{when - start:8.3f}  {phase:<12} first reached at {node}")


def metric_value(obs: Observability, name: str) -> float:
    family = obs.registry.snapshot().get(name, {})
    return sum(sample.get("value", 0.0) for sample in family.get("samples", ()))


def print_headline_metrics(obs: Observability) -> None:
    for name in (
        "pbft_batches_total",
        "pbft_reply_cache_hits_total",
        "peats_operations_total",
        "peats_denials_total",
        "client_requests_total",
        "net_frames_sent_total",
    ):
        print(f"    {name:<30} {metric_value(obs, name):g}")


# ----------------------------------------------------------------------
# Part 1: the storm on virtual time
# ----------------------------------------------------------------------


def storm_scenario(obs: Observability | None) -> Scenario:
    return Scenario(
        name="obs-storm",
        clients=consensus_storm(STORM_CLIENTS),
        seed=7,
        obs=obs,
    )


def simulated_storm() -> None:
    print(f"== Simulated consensus storm ({STORM_CLIENTS} clients, virtual time) ==")
    obs = Observability()
    result = run_scenario(storm_scenario(obs))
    assert result.completed
    summary = result.metrics.summary()
    print(f"  ops: {summary['ops']} in {summary['virtual_ms']} virtual ms")
    print_phase_report(obs, unit="virtual ms")
    print_one_timeline(obs)
    print("  headline counters:")
    print_headline_metrics(obs)

    # Passive instrumentation: with the bundle detached, the same seed
    # must yield a byte-identical trace.
    bare = run_scenario(storm_scenario(None))
    digest_with, digest_without = (
        result.metrics.trace_digest(),
        bare.metrics.trace_digest(),
    )
    assert digest_with == digest_without, "observability perturbed the replay"
    print(f"  replay digest with/without obs: {digest_with[:16]}… (identical)")


# ----------------------------------------------------------------------
# Part 2: the same storm on real reactors
# ----------------------------------------------------------------------


def loopback_storm() -> None:
    print(f"\n== Loopback consensus storm ({STORM_CLIENTS} clients, wall clock) ==")
    obs = Observability()
    space = connect(
        "replicated", policy=open_policy(), f=1, transport="asyncio", obs=obs
    )
    try:
        views = [space.bind(f"storm-{index:02d}") for index in range(STORM_CLIENTS)]
        for step in ("cas", "rdp"):
            futures = []
            for index, view in enumerate(views):
                if step == "cas":
                    futures.append(
                        view.submit_cas(
                            template("DECISION", Formal("d")),
                            entry("DECISION", f"v{index}"),
                        )
                    )
                else:
                    futures.append(view.submit_rdp(template("DECISION", Formal("d"))))
            for future in futures:
                assert future.wait(30.0), "loopback storm request stalled"
                future.result()
        stats = space.stats()
        print(
            f"  network: {stats['network']['frames_sent']:g} frames sent, "
            f"{stats['network']['handler_errors']:g} handler errors"
        )
        print_phase_report(obs, unit="wall-clock ms")
        print_one_timeline(obs)
        print("  headline counters:")
        print_headline_metrics(obs)
    finally:
        space.close()


def main() -> None:
    simulated_storm()
    loopback_storm()
    print("\nobservability tour complete")


if __name__ == "__main__":
    main()
