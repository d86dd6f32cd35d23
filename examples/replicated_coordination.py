#!/usr/bin/env python3
"""Coordination over the Byzantine fault-tolerant replicated PEATS (Fig. 2).

This example runs the same algorithms as the other examples, but over the
simulated DepSpace-style deployment: ``3f + 1`` replicas, each with its own
tuple space and reference monitor, coordinated by a PBFT-style total-order
protocol; clients vote on ``f + 1`` matching replies.  Everything goes
through the unified API — ``connect("replicated", ...)`` returns the same
``Space`` handle the local and sharded deployments expose, and the
consensus/universal constructions program against it directly.

Scenario — a small job-dispatch service used by mutually distrustful
worker processes:

1. workers reach *strong consensus* on the configuration epoch to use, even
   though one worker is Byzantine and one replica lies in its replies;
2. a shared FIFO **job queue** is emulated over the replicated PEATS with
   the lock-free universal construction, and workers dispatch jobs from it;
3. the primary replica is crashed, a view change elects a new one, and the
   service keeps answering.

Run it with::

    python examples/replicated_coordination.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    LockFreeUniversalConstruction,
    StrongConsensus,
    connect,
    lock_free_universal_policy,
    run_consensus,
    strong_consensus_policy,
)
from repro.model.faults import unjustified_deciding_byzantine  # noqa: E402
from repro.replication import ReplicaFaultMode  # noqa: E402
from repro.tuples import Formal, entry, template  # noqa: E402
from repro.universal.emulated import fifo_queue_type  # noqa: E402


def consensus_over_replicated_peats() -> None:
    print("== 1. Strong consensus over the replicated PEATS ==")
    workers = list(range(4))  # n = 4 workers, t = 1 Byzantine worker
    space = connect(
        "replicated",
        policy=strong_consensus_policy(workers, t=1),
        f=1,
        replica_faults={3: ReplicaFaultMode.LYING},  # one lying replica too
    )
    consensus = StrongConsensus(workers, t=1, space=space)
    proposals = {0: 1, 1: 1, 2: 1}  # correct workers propose epoch 1
    run = run_consensus(
        consensus,
        proposals,
        byzantine={3: unjustified_deciding_byzantine(value=0, fake_supporters=(3,))},
    )
    print("  epoch decided by correct workers:", run.decision())
    print("  agreement:", run.agreement)
    digests = space.service.replica_state_digests()
    correct_digests = {d for r, d in digests.items() if r != "replica-3"}
    print("  correct replica states identical:", len(correct_digests) == 1)
    print("  simulated network messages delivered:",
          int(space.network.statistics["delivered"]))
    print()


def replicated_job_queue() -> None:
    print("== 2. Replicated FIFO job queue (lock-free universal construction) ==")
    space = connect("replicated", policy=lock_free_universal_policy(), f=1)
    construction = LockFreeUniversalConstruction(
        fifo_queue_type(), space=space.bind("dispatcher")
    )
    # The universal construction is uniform, so handles can be created for
    # any client identity; here every worker drives it through its own
    # authenticated client connection.
    dispatcher = construction.handle("dispatcher")
    for job_id in range(1, 6):
        dispatcher.invoke("enqueue", f"job-{job_id}")
    print("  dispatcher enqueued 5 jobs")

    worker_construction = LockFreeUniversalConstruction(
        fifo_queue_type(), space=space.bind("worker-A")
    )
    worker = worker_construction.handle("worker-A")
    taken = [worker.invoke("dequeue") for _ in range(3)]
    print("  worker-A dequeued:", taken)
    print("  replicated tuple space now holds", len(space.snapshot()), "SEQ tuples")
    print()


def surviving_a_primary_crash() -> None:
    print("== 3. View change: the primary replica crashes ==")
    space = connect(
        "replicated",
        policy=lock_free_universal_policy(),
        f=1,
        replica_faults={0: ReplicaFaultMode.CRASHED},
        view_change_timeout=10.0,
    )
    client = space.bind("operator")
    inserted, _ = client.cas(
        template("SEQ", 1, Formal("x")),
        entry("SEQ", 1, "bootstrap"),
    )
    print("  request executed despite the crashed primary:", bool(inserted))
    print("  replica views after the crash:",
          {node.replica_id: node.view for node in space.service.correct_nodes()})
    print()


def main() -> None:
    consensus_over_replicated_peats()
    replicated_job_queue()
    surviving_a_primary_crash()


if __name__ == "__main__":
    main()
