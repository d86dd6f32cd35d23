"""Experiment E5 — policy conformance (Figs. 3, 4, 5, 7, 8).

For each canonical policy, a Byzantine process fires the full attack
battery (impersonation, double proposals, removals, unjustified
decisions, ⊥-forcing, out-of-order threading); the table reports how many
attempts each policy rejected.  Expected shape: 100% denials for every
policy.

What enforcement *costs* — the paper argues the predicate evaluation is
"little (local) processing" — is priced by the benchmark of record as
``peo.enforce_factor`` (``benchmarks/ladder``), not here.
"""

from benchmarks._output import emit_table
from repro.model.faults import attack_peats
from repro.peo import PEATS
from repro.policy import (
    default_consensus_policy,
    lock_free_universal_policy,
    strong_consensus_policy,
    wait_free_universal_policy,
    weak_consensus_policy,
)

PROCESSES = list(range(4))

POLICIES = [
    ("Fig. 3 weak consensus", lambda: weak_consensus_policy()),
    ("Fig. 4 strong consensus", lambda: strong_consensus_policy(PROCESSES, 1)),
    ("Fig. 5 default consensus", lambda: default_consensus_policy(PROCESSES, 1)),
    ("Fig. 7 lock-free universal", lambda: lock_free_universal_policy()),
    ("Fig. 8 wait-free universal", lambda: wait_free_universal_policy(PROCESSES)),
]


def run_attack_battery():
    rows = []
    for label, factory in POLICIES:
        space = PEATS(factory())
        report = attack_peats(space.bind(3), attacker=3, victims=[0, 1], t=1)
        rows.append(
            {
                "policy": label,
                "attacks": report.total,
                "denied": report.denied,
                "denied_pct": 100.0 * report.denied / report.total,
            }
        )
    return rows


def test_e5_attack_rejection_table(benchmark):
    rows = benchmark(run_attack_battery)
    emit_table(rows, title="E5 — Byzantine attack battery vs the paper's access policies")
    assert all(row["denied"] == row["attacks"] for row in rows)
