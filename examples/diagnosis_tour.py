#!/usr/bin/env python3
"""Diagnosis tour: wedge a replica group on purpose, then find the culprits.

This is an old post-mortem, replayed as a demo.  A digest
nondeterminism bug once made replicas vote *different digests* for the
same checkpoint sequence: no 2f+1 certificate could form, the log window
jammed at ``stable + log_window`` and the group wedged while every
counter simply stopped moving.  The tour re-creates exactly that failure
shape with :data:`ReplicaFaultMode.DIVERGENT` on replicas 1 and 3
(splitting the checkpoint vote 2-vs-2 at f=1) and then walks the
instruments that make it diagnosable:

1. the **event log**'s ring view — per-node ring buffers of typed
   events (message flow, checkpoint votes, view changes), always on,
   bounded, and strictly passive;
2. the **health monitor** — the rule table of :mod:`repro.obs.rules`
   run online over already-observed state, with zero extra messages:
   ``checkpoint-divergence`` names both digest camps and
   ``checkpoint-starvation`` fires *critical*;
3. the **post-mortem doctor** — fed nothing but the ring dumps, it
   merges them into one causally ordered timeline, runs the same rule
   table and attributes the divergence to exactly replicas {1, 3} vs
   {0, 2}: the same findings the live monitor reported.

Run it with::

    python examples/diagnosis_tour.py

``--report diagnosis.json`` additionally writes the doctor's JSON
diagnosis (CI uses this to smoke-test the whole pipeline).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs import Observability  # noqa: E402
from repro.obs.doctor import diagnose, merge_dumps, render_text  # noqa: E402
from repro.replication import ReplicaFaultMode  # noqa: E402
from repro.sim import FaultModeWindow, Scenario, run_scenario  # noqa: E402
from repro.sim.workloads import consensus_storm  # noqa: E402


def wedge_scenario(obs: Observability) -> Scenario:
    return Scenario(
        name="diagnosis-tour",
        clients=consensus_storm(12),
        faults=[
            FaultModeWindow(replica=1, mode=ReplicaFaultMode.DIVERGENT, start=0.0),
            FaultModeWindow(replica=3, mode=ReplicaFaultMode.DIVERGENT, start=0.0),
        ],
        seed=11,
        checkpoint_interval=4,  # log window 8: the wedge bites quickly
        deadline=2500.0,  # the group stalls; the run must still end
        obs=obs,
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="A checkpoint wedge, diagnosed live")
    parser.add_argument(
        "--report", type=pathlib.Path, default=None,
        help="also write the doctor's JSON diagnosis here",
    )
    options = parser.parse_args(argv)

    print("== 1. Reproduce the wedge (DIVERGENT checkpoints on replicas 1, 3) ==")
    obs = Observability()
    result = run_scenario(wedge_scenario(obs))
    print(f"  scenario completed: {result.completed}  (False = wedged, as intended)")
    for node in result.service.nodes:
        print(
            f"  {node.replica_id}: executed seq {node.last_executed}, "
            f"stable checkpoint {node.stable_checkpoint} "
            f"(window {node.log_window})"
        )

    print("\n== 2. The live monitor runs the rules (no extra messages) ==")
    reports = []
    for _ in range(obs.health.fire_after):  # hysteresis: two consecutive looks
        reports = obs.health.check(result.service)
    for report in reports:
        print(f"  [{report.level.upper()}] {report.probe}: {report.detail}")

    print("\n== 3. The event log's rings kept the evidence ==")
    stats = obs.events.statistics()["flight"]
    print(
        f"  {stats['nodes']} node rings, {stats['recorded']} events recorded, "
        f"{stats['retained']} retained, {stats['dropped']} dropped"
    )

    print("\n== 4. The doctor runs the same rules on the dumps alone ==")
    merged = merge_dumps([obs.events.dump()])
    diagnosis = diagnose(merged, health=[r.as_dict() for r in reports])
    print(render_text(diagnosis))

    divergence = [
        finding for finding in diagnosis["findings"]
        if finding["kind"] == "checkpoint-divergence"
    ]
    assert divergence, "the doctor must attribute the wedge"
    camps = sorted(divergence[0]["data"]["votes_by_digest"].values())
    assert camps == [["replica-0", "replica-2"], ["replica-1", "replica-3"]]
    print("\nculprits attributed: replicas 1, 3 diverge from replicas 0, 2")

    if options.report is not None:
        options.report.write_text(json.dumps(diagnosis, indent=2, sort_keys=True) + "\n")
        print(f"wrote {options.report}")

    print("\ndiagnosis tour complete")


if __name__ == "__main__":
    main()
