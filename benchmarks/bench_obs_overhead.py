"""Observability overhead — what the flight recorder costs when on.

Three arms run the *same seeded scenario* (so the consensus work is
identical — the trace digests are asserted byte-equal):

* **bare** — ``obs=None``; tracer, recorder and monitor are the null
  objects, the counters run on the deployment's private registry (the
  registry is the only counter store, so there is no arm without it).
* **tracer** — ``Observability(flight=NULL_FLIGHT, health=NULL_HEALTH)``;
  the PR 6 tracer/metrics arm, the pre-PR 10 cost.
* **full** — ``Observability()``; tracer + flight recorder + one health
  evaluation at the end (what ``Space.stats()`` would run).

Reported factors are same-machine ratios (like the policy-enforcement
``overhead_factor``), so they are gateable even though their inputs are
wall-clock.  CI holds ``full_vs_bare_factor`` to a dedicated 10%
regression threshold — the flight recorder must stay in the noise of a
replicated deployment's end-to-end cost.
"""

import pathlib
import sys
import time

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks._output import emit, emit_table, write_bench_json
from repro.obs import NULL_FLIGHT, NULL_HEALTH, Observability
from repro.sim import Scenario, run_scenario
from repro.sim.workloads import consensus_storm

#: One seeded storm: every arm replays exactly this run.
SEED = 31
CLIENTS = 8
#: Timed repetitions per arm; the best (minimum) wall-clock is kept, the
#: standard trick for squeezing scheduler noise out of short runs.
REPEATS = 5

ARMS = (
    ("bare", lambda: None),
    ("tracer", lambda: Observability(flight=NULL_FLIGHT, health=NULL_HEALTH)),
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
    recorded = 0 if obs is None else obs.flight.statistics()["recorded"]
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
        "tracer_vs_bare_factor": round(best["tracer"] / best["bare"], 3),
        "full_vs_tracer_factor": round(best["full"] / best["tracer"], 3),
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
        title="Observability overhead — same seeded storm, three arms",
    )
    emit(
        f"full vs bare: x{overhead['full_vs_bare_factor']} "
        f"(tracer x{overhead['tracer_vs_bare_factor']}, "
        f"flight on top x{overhead['full_vs_tracer_factor']})"
    )
    write_bench_json("obs_overhead", report)
    return report


def test_obs_overhead_emits_bench_json():
    from benchmarks._output import bench_json_path

    report = run_obs_bench()
    assert bench_json_path("obs_overhead").exists()
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
    run_obs_bench()
