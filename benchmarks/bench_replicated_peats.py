"""Experiment E7 — the replicated PEATS deployment (Fig. 2 / DepSpace).

The paper (Section 7, ref. [26]) reports that the replicated PEATS's
performance is "competitive with nondependable tuple space implementations".
We reproduce the *shape* of that evaluation on the simulated substrate:

* wall-clock cost per operation for a local (unreplicated, unprotected)
  space, a local PEATS (policy on), and the replicated PEATS with f = 1
  (4 replicas) and f = 2 (7 replicas);
* simulated message count per operation — the quantity that actually grows
  with the replication degree (O(n^2) for the PBFT-style ordering);
* the effect of a lying replica and of a crashed primary (view change) on
  client-observed behaviour.

Expected shape: policy enforcement adds a small constant factor; the
replication protocol dominates the cost and grows with f; faults change
latency but not results.
"""

import pytest

from benchmarks._output import emit_table
from repro.api import connect
from repro.cluster import ShardedPEATS
from repro.peo import PEATS
from repro.policy import strong_consensus_policy
from repro.replication import ReplicaFaultMode
from repro.tspace import AugmentedTupleSpace
from repro.tuples import Formal, entry, template

PROCESSES = list(range(8))
POLICY = lambda: strong_consensus_policy(PROCESSES, 2)  # noqa: E731


def out_rdp_round_raw(space, i):
    space.out(entry("PROPOSE", i % 8, i % 2))
    space.rdp(template("PROPOSE", i % 8, Formal("v")))


def out_rdp_round_peats(space, i):
    space.out(entry("PROPOSE", i % 8, i % 2), process=i % 8)
    space.rdp(template("PROPOSE", i % 8, Formal("v")), process=i % 8)


def out_rdp_round_replicated(shared, i):
    shared.out(entry("PROPOSE", i % 8, i % 2), process=i % 8)
    shared.rdp(template("PROPOSE", i % 8, Formal("v")), process=i % 8)


def test_e7_local_raw_tuple_space(benchmark):
    space = AugmentedTupleSpace()
    counter = iter(range(10**9))
    benchmark(lambda: out_rdp_round_raw(space, next(counter)))


def test_e7_local_peats(benchmark):
    space = PEATS(POLICY())
    counter = iter(range(10**9))
    benchmark(lambda: out_rdp_round_peats(space, next(counter)))


def test_e7_replicated_peats_f1(benchmark):
    service = ShardedPEATS(POLICY(), shards=1, f=1)
    shared = connect(service=service)
    counter = iter(range(10**9))
    benchmark(lambda: out_rdp_round_replicated(shared, next(counter)))


def test_e7_replicated_peats_f2(benchmark):
    service = ShardedPEATS(POLICY(), shards=1, f=2)
    shared = connect(service=service)
    counter = iter(range(10**9))
    benchmark(lambda: out_rdp_round_replicated(shared, next(counter)))


def test_e7_replicated_peats_with_lying_replica(benchmark):
    service = ShardedPEATS(POLICY(), shards=1, f=1, replica_faults={2: ReplicaFaultMode.LYING})
    shared = connect(service=service)
    counter = iter(range(10**9))
    benchmark(lambda: out_rdp_round_replicated(shared, next(counter)))


def test_e7_message_complexity_table(benchmark):
    """Simulated messages per client operation as the replication degree grows."""

    def measure():
        rows = []
        for f in (0, 1, 2):
            service = ShardedPEATS(POLICY(), shards=1, f=f)
            shared = connect(service=service)
            operations = 20
            for i in range(operations):
                shared.out(entry("PROPOSE", i % 8, i % 2), process=i % 8)
            delivered = service.network.statistics["delivered"]
            rows.append(
                {
                    "f": f,
                    "replicas": 3 * f + 1,
                    "operations": operations,
                    "messages_delivered": int(delivered),
                    "messages_per_op": round(delivered / operations, 1),
                    "replica_states_agree": len(
                        set(service.replica_state_digests().values())
                    )
                    == 1,
                }
            )
        return rows

    rows = benchmark(measure)
    emit_table(rows, title="E7 — message cost of the replicated PEATS (simulated network)")
    assert all(row["replica_states_agree"] for row in rows)
    # Message complexity grows superlinearly with the replication degree —
    # the quadratic agreement traffic of the ordering protocol.
    per_op = [row["messages_per_op"] for row in rows]
    assert per_op[0] < per_op[1] < per_op[2]
