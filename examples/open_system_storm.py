#!/usr/bin/env python3
"""An open-system storm on the replicated PEATS (the Section 4 regime).

32 mutually-distrusting simulated clients hammer one policy-enforced tuple
space replicated over 4 Byzantine fault-tolerant servers (f = 1), while a
fault schedule perturbs the run:

* replica-1 **lies** in every reply for the whole run (caught by the
  clients' f + 1 matching-reply vote);
* a **partition window** cuts the replica-2 ↔ replica-3 link mid-run.

All correct-client operations still complete, and — because the only
randomness is the network's seeded RNG — replaying the scenario with the
same seed reproduces the run **byte for byte**, which this script checks.

Run it with::

    python examples/open_system_storm.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.replication import ReplicaFaultMode  # noqa: E402
from repro.sim import PartitionWindow, Scenario, SimMetrics, run_scenario  # noqa: E402
from repro.sim.workloads import kv_readwrite  # noqa: E402


def storm_scenario(seed: int = 11) -> Scenario:
    return Scenario(
        name="open-system-storm",
        clients=kv_readwrite(32, ops_per_client=6, seed=3),
        faults=(PartitionWindow(30.0, 120.0, left=[2], right=[3]),),
        replica_faults={1: ReplicaFaultMode.LYING},
        seed=seed,
    )


def main() -> None:
    print("== Open-system storm: 32 clients, f=1, lying replica + partition ==")
    result = run_scenario(storm_scenario(), metrics=SimMetrics(throughput_bucket=5.0))
    summary = result.metrics.summary()

    print(f"  clients:                 {len(result.engine.runners)}")
    print(f"  operations completed:    {summary['ops']} (failures: {summary['failures']})")
    print(f"  virtual duration:        {summary['virtual_ms']} ms")
    print(f"  throughput:              {summary['ops_per_vsec']} ops per virtual second")
    print(
        "  latency (virtual ms):    "
        f"p50={summary['latency_p50']}  p95={summary['latency_p95']}  max={summary['latency_max']}"
    )
    print(f"  messages delivered:      {summary['messages']} (dropped: {summary['drops']})")

    print("\n  per-operation latency:")
    for row in result.metrics.per_operation_rows():
        print(
            f"    {row['operation']:<4} count={row['count']:<4} "
            f"mean={row['mean']:<7} p95={row['p95']}"
        )

    print("\n  throughput over virtual time (completions per 5 ms bucket):")
    for bucket_start, completed in result.metrics.throughput_series():
        bar = "#" * completed
        print(f"    t={bucket_start:>6.0f} ms  {completed:>4}  {bar}")

    assert result.completed, "every correct client must finish"

    print("\n== Deterministic replay ==")
    replay = run_scenario(storm_scenario())
    identical = replay.metrics.trace_text() == result.metrics.trace_text()
    print(f"  first run trace digest:  {result.metrics.trace_digest()[:32]}…")
    print(f"  replay trace digest:     {replay.metrics.trace_digest()[:32]}…")
    print(f"  byte-identical replay:   {identical}")
    assert identical, "same seed must reproduce the same trace"

    other = run_scenario(storm_scenario(seed=12))
    diverged = other.metrics.trace_text() != result.metrics.trace_text()
    print(f"  different seed diverges: {diverged}")
    assert diverged, "a different seed must change the interleaving"

    print("\nAll storm invariants hold: the open system is reproducible.")


if __name__ == "__main__":
    main()
