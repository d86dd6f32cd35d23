"""Experiment E5 — policy conformance and enforcement cost (Figs. 3, 4, 5, 7, 8).

Two questions:

1. **Conformance / attack rejection** — for each canonical policy, a
   Byzantine process fires the full attack battery (impersonation, double
   proposals, removals, unjustified decisions, ⊥-forcing, out-of-order
   threading); the table reports how many attempts each policy rejected.
   Expected shape: 100% denials for every policy.

2. **Enforcement overhead** — the paper argues the predicate evaluation is
   "little (local) processing".  We time the strong-consensus ``out`` and
   ``cas`` paths with the reference monitor on (PEATS) and off (raw
   augmented tuple space) — the ablation ROADMAP item 1 prices as
   ``peo.enforce_factor``.  Expected shape: the policy-enforced operation stays within a small constant
   factor of the raw one (microseconds, not milliseconds).
"""

import pathlib
import sys
import time

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import pytest

from benchmarks._output import emit, emit_table, write_bench_json
from repro.model.faults import attack_peats
from repro.peo import PEATS
from repro.policy import (
    default_consensus_policy,
    lock_free_universal_policy,
    strong_consensus_policy,
    wait_free_universal_policy,
    weak_consensus_policy,
)
from repro.tspace import AugmentedTupleSpace
from repro.tuples import ANY, Formal, entry, template

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


def _consensus_round_on(space, *, enforced: bool) -> None:
    """One proposal + read + decision attempt, with or without the monitor."""
    if enforced:
        space.out(entry("PROPOSE", 0, 1), process=0)
        space.rdp(template("PROPOSE", 0, Formal("v")), process=1)
        space.cas(
            template("DECISION", Formal("d"), ANY),
            entry("DECISION", 1, frozenset({0, 1})),
            process=1,
        )
    else:
        space.out(entry("PROPOSE", 0, 1))
        space.rdp(template("PROPOSE", 0, Formal("v")))
        space.cas(
            template("DECISION", Formal("d"), ANY),
            entry("DECISION", 1, frozenset({0, 1})),
        )


def test_e5_enforced_operations_overhead(benchmark):
    """Policy-enforced consensus operations (monitor on)."""
    def enforced_round():
        space = PEATS(strong_consensus_policy(PROCESSES, 1))
        space.out(entry("PROPOSE", 1, 1), process=1)
        _consensus_round_on(space, enforced=True)

    benchmark(enforced_round)


def test_e5_raw_operations_baseline(benchmark):
    """The same operations on a raw augmented tuple space (monitor off)."""
    def raw_round():
        space = AugmentedTupleSpace()
        space.out(entry("PROPOSE", 1, 1))
        _consensus_round_on(space, enforced=False)

    benchmark(raw_round)


# ----------------------------------------------------------------------
# Machine-readable trajectory (BENCH_policy_enforcement.json)
# ----------------------------------------------------------------------

#: Consensus rounds timed per side of the enforcement ablation.
OVERHEAD_ROUNDS = 400


def measure_enforcement_overhead(rounds: int = OVERHEAD_ROUNDS) -> dict:
    """Wall-clock cost of one consensus round with the monitor on vs off.

    Each round includes space construction (matching the pytest-benchmark
    cases above, which rebuild per round so ``cas`` always races a fresh
    decision slot).  The per-round microsecond numbers are machine-bound
    and informational; the enforced/raw **ratio** is what the regression
    gate watches — it is a same-machine comparison, stable across hosts.
    """

    def enforced_round() -> None:
        space = PEATS(strong_consensus_policy(PROCESSES, 1))
        space.out(entry("PROPOSE", 1, 1), process=1)
        _consensus_round_on(space, enforced=True)

    def raw_round() -> None:
        space = AugmentedTupleSpace()
        space.out(entry("PROPOSE", 1, 1))
        _consensus_round_on(space, enforced=False)

    def timed(fn) -> float:
        for _ in range(rounds // 10):  # warm-up
            fn()
        started = time.perf_counter()
        for _ in range(rounds):
            fn()
        return (time.perf_counter() - started) / rounds * 1e6

    enforced_us = timed(enforced_round)
    raw_us = timed(raw_round)
    return {
        "rounds": rounds,
        "enforced_us_per_round": round(enforced_us, 3),
        "raw_us_per_round": round(raw_us, 3),
        "overhead_factor": round(enforced_us / raw_us, 3) if raw_us > 0 else 0.0,
    }


def run_policy_bench() -> dict:
    """Run the attack battery and the enforcement ablation; emit the JSON."""
    attack_rows = run_attack_battery()
    overhead = measure_enforcement_overhead()
    report = {
        "benchmark": "policy_enforcement",
        "attack_battery": [
            {**row, "denied_pct": round(row["denied_pct"], 1)} for row in attack_rows
        ],
        "enforcement_overhead": overhead,
    }
    emit_table(
        report["attack_battery"],
        title="E5 — Byzantine attack battery vs the paper's access policies",
    )
    emit_table([overhead], title="E5 — enforcement overhead (monitor on vs off)")
    write_bench_json("policy_enforcement", report)
    return report


def test_e5_emits_bench_json():
    from benchmarks._output import bench_json_path

    report = run_policy_bench()
    assert bench_json_path("policy_enforcement").exists()
    assert all(
        row["denied"] == row["attacks"] for row in report["attack_battery"]
    ), "a canonical policy let an attack through"
    overhead = report["enforcement_overhead"]
    assert overhead["overhead_factor"] > 0
    emit(
        f"enforcement overhead: {overhead['overhead_factor']}x "
        f"({overhead['enforced_us_per_round']} vs {overhead['raw_us_per_round']} us/round)"
    )


if __name__ == "__main__":
    run_policy_bench()
