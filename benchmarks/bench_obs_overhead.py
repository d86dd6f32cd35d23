"""Observability overhead — what the event log costs when on.

Two arms run the *same seeded scenario* (so the consensus work is
identical — the trace digests are asserted byte-equal):

* **bare** — ``obs=None``; the event log and the monitor are the null
  objects, the counters run on the deployment's private registry (the
  registry is the only counter store, so there is no arm without it).
* **full** — ``Observability()``; the event log (phase index and rings)
  + one health evaluation at the end (what ``Space.stats()`` would run).

Reported factors are same-machine ratios, so they are gateable even
though their inputs are wall-clock.  ``--check BASELINE.json`` (CI's
``obs-passivity`` job, against the committed ``BENCH_obs_overhead.json``)
re-measures and holds ``full_vs_bare_factor`` to 10% over the baseline —
the event log must stay in the noise of a replicated deployment's
end-to-end cost — and the replay's ``trace_digest`` to equality.
"""

import argparse
import json
import pathlib
import sys
import time

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks._output import emit, emit_table
from repro.obs import Observability
from repro.sim import Scenario, run_scenario
from repro.sim.workloads import consensus_storm

#: One seeded storm: every arm replays exactly this run.
SEED = 31
CLIENTS = 8
#: Timed repetitions per arm; the best (minimum) wall-clock is kept, the
#: standard trick for squeezing scheduler noise out of short runs.
REPEATS = 5
#: The committed trajectory — the one ``BENCH_*.json`` outside the ladder —
#: at the repository root, regenerated by running this script.
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"

ARMS = (
    ("bare", lambda: None),
    ("full", lambda: Observability()),
)


def _storm(obs):
    return Scenario(
        name="obs-overhead", clients=consensus_storm(CLIENTS), seed=SEED, obs=obs
    )


def _run_arm(make_obs):
    """One timed replay; returns (seconds, trace_digest, events_recorded)."""
    obs = make_obs()
    started = time.perf_counter()
    result = run_scenario(_storm(obs))
    if obs is not None and obs.health.enabled:
        obs.health.check(result.service)  # the cost Space.stats() would add
    elapsed = time.perf_counter() - started
    assert result.completed
    recorded = 0 if obs is None else obs.events.statistics()["flight"]["recorded"]
    return elapsed, result.metrics.trace_digest(), recorded


def measure_obs_overhead(repeats: int = REPEATS) -> dict:
    """Best-of-``repeats`` wall clock for each arm, plus the ratios."""
    best: dict[str, float] = {}
    digests: dict[str, str] = {}
    events: dict[str, int] = {}
    for name, make_obs in ARMS:
        _run_arm(make_obs)  # warm-up (imports, allocator, caches)
        samples = []
        for _ in range(repeats):
            elapsed, digest, recorded = _run_arm(make_obs)
            samples.append(elapsed)
            digests[name] = digest
            events[name] = recorded
        best[name] = min(samples)
    assert len(set(digests.values())) == 1, (
        "instrumentation perturbed the replay: trace digests diverged "
        f"{sorted(digests.items())}"
    )
    return {
        "repeats": repeats,
        "arms": {
            name: {"best_seconds": round(best[name], 4), "flight_events": events[name]}
            for name, _ in ARMS
        },
        "full_vs_bare_factor": round(best["full"] / best["bare"], 3),
        "trace_digest": digests["bare"],
    }


def run_obs_bench() -> dict:
    overhead = measure_obs_overhead()
    report = {"benchmark": "obs_overhead", "overhead": overhead}
    emit_table(
        [
            {
                "arm": name,
                "best_seconds": overhead["arms"][name]["best_seconds"],
                "flight_events": overhead["arms"][name]["flight_events"],
            }
            for name, _ in ARMS
        ],
        title="Observability overhead — same seeded storm, two arms",
    )
    emit(f"full vs bare: x{overhead['full_vs_bare_factor']}")
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")
    emit(f"wrote {BENCH_JSON.name}")
    return report


def check(baseline: dict, fresh: dict, threshold: float = 0.10) -> list[str]:
    """What ``fresh`` breaks of the passivity contract ``baseline`` set.

    Empty when the instrumented replay is still the same replay (equal
    ``trace_digest``) and ``full_vs_bare_factor`` has not risen more than
    ``threshold`` over the baseline's.
    """
    was, now = baseline["overhead"], fresh["overhead"]
    problems = []
    if now["trace_digest"] != was["trace_digest"]:
        problems.append(
            f"trace_digest moved: {was['trace_digest'][:12]} -> {now['trace_digest'][:12]}"
        )
    ceiling = was["full_vs_bare_factor"] * (1.0 + threshold)
    if now["full_vs_bare_factor"] > ceiling:
        problems.append(
            f"full_vs_bare_factor {now['full_vs_bare_factor']} exceeds "
            f"{was['full_vs_bare_factor']} by more than {threshold:.0%} (ceiling {ceiling:.3f})"
        )
    return problems


def test_obs_overhead_emits_bench_json():
    report = run_obs_bench()
    assert BENCH_JSON.exists()
    overhead = report["overhead"]
    # The digest assertion inside measure_obs_overhead is the real check;
    # here only a loose sanity bound (CI gates the committed factor at 10%).
    assert 0 < overhead["full_vs_bare_factor"] < 3.0
    assert overhead["arms"]["full"]["flight_events"] > 0
    assert overhead["arms"]["bare"]["flight_events"] == 0


def test_full_instrumentation_replay(benchmark):
    """pytest-benchmark row for the fully instrumented replay."""
    benchmark.pedantic(
        lambda: run_scenario(_storm(Observability())), rounds=1, iterations=1
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        metavar="BASELINE.json",
        help="after regenerating, exit 1 if the run breaks this baseline's contract",
    )
    args = parser.parse_args()
    # Read first: the baseline may be the very file the run overwrites.
    baseline = None if args.check is None else json.loads(args.check.read_text())
    report = run_obs_bench()
    problems = [] if baseline is None else check(baseline, report)
    for problem in problems:
        emit(f"obs-passivity: {problem}")
    sys.exit(1 if problems else 0)
