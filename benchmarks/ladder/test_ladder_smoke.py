"""Smoke test of the benchmark ladder (collected by tier-1, a few seconds).

Runs every workload at toy size in this process — bare and traced — and
the micro loops at 1 % length, then checks the promises ``BENCHMARK.json``
makes: every name is really measured, with a unit, by the workloads it
applies to, and a wrong answer from the system trips the correctness
check instead of being timed.
"""

from __future__ import annotations

import io
import json
import pathlib
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from repro.api import connect  # noqa: E402
from repro.sim import open_sim_policy  # noqa: E402
from repro.tuples import ANY, entry, template  # noqa: E402

from benchmarks.ladder.bench import Report, measure  # noqa: E402
from benchmarks.ladder.catalogue import (  # noqa: E402
    BENCHMARK_PATH,
    WORKLOAD_METRICS,
    load_catalogue,
)
from benchmarks.ladder.compare import compare_runs, print_comparison  # noqa: E402
from benchmarks.ladder.workloads import Op, ReplyOracle, closed_loop  # noqa: E402

CATALOGUE = load_catalogue()


@pytest.fixture(scope="module")
def traced_reports() -> dict[str, Report]:
    return {
        workload: measure(workload, seed=7, seconds=0.0, trace=True, toy=True)
        for workload in CATALOGUE.workloads
    }


def test_benchmark_json_names_and_units_are_well_formed():
    with open(BENCHMARK_PATH, encoding="utf-8") as source:
        spec = json.load(source)
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", row["unit"]), row
        assert row["better"] in ("lower", "higher"), row
    assert [row["name"] for row in spec["end_to_end"]].count("setup_s") == 1


def test_every_workload_passes_its_checks_at_toy_size(traced_reports):
    for workload, report in traced_reports.items():
        assert report.correct, (workload, report.problems)
        assert report.failed == 0 and report.attempted > 0, workload


def test_every_catalogued_metric_is_measured_where_it_applies(traced_reports):
    for workload, report in traced_reports.items():
        # catalogue.metric() raises on a name BENCHMARK.json does not list.
        units = {name: CATALOGUE.metric(name).unit for name in report.metrics}
        assert all(units.values())
        measured = {name for name, sample in report.metrics.items() if sample.n}
        for name in CATALOGUE.end_to_end:
            assert name in measured, (workload, name)
            assert report.metrics[name].value > 0, (workload, name)
        # Everything else in per_layer is a micro loop, which every traced
        # run repeats, or a count or share that legitimately reads 0 where
        # the layer is not entered.
        for name, (_, applies_to) in WORKLOAD_METRICS.items():
            assert name in CATALOGUE.per_layer, name
            assert (name in measured) == (workload in applies_to), (workload, name)
        contract = json.loads(report.contract_line(CATALOGUE))
        assert set(contract) == {"correct", "attempted", "failed", "metrics"}
        assert set(contract["metrics"]) == set(CATALOGUE.per_layer)
    # Each per-layer metric is really measured by at least one workload.
    anywhere = set().union(
        *({n for n, s in report.metrics.items() if s.n} for report in traced_reports.values())
    )
    assert set(CATALOGUE.per_layer) <= anywhere, set(CATALOGUE.per_layer) - anywhere


def test_untraced_run_reports_exactly_the_end_to_end_metrics():
    report = measure("universal_local", seed=7, seconds=0.0, trace=False, toy=True)
    contract = json.loads(report.contract_line(CATALOGUE))
    assert set(contract["metrics"]) == set(CATALOGUE.end_to_end)
    assert all(cell["value"] > 0 and cell["unit"] for cell in contract["metrics"].values())


def test_the_layers_the_workloads_were_chosen_for_show_in_the_trace(traced_reports):
    local = traced_reports["universal_local"].metrics
    assert local["tspace.busy_share"].value > local["crypto.busy_share"].value == 0.0
    assert local["tuples.match_calls_per_op"].value > 10
    loopback = traced_reports["write_loopback"].metrics
    assert loopback["crypto.mac_calls_per_op"].value > 10
    assert loopback["codec.calls_per_op"].value == 0.0
    assert traced_reports["read_tcp"].metrics["codec.calls_per_op"].value > 10
    assert traced_reports["primary_crash_sim"].metrics["pbft.view_changes"].value >= 1
    assert traced_reports["escrow_sharded_sim"].metrics["txn.msgs_per_transfer"].value > 33


def test_a_corrupted_read_trips_the_correctness_check():
    oracle = ReplyOracle()
    stored = entry("KV", 3, "value-3")
    with connect("replicated", policy=open_sim_policy(), transport="asyncio") as space:
        space.out(stored, process="c0")
        probe = (template("KV", 3, ANY),)
        honest = closed_loop(space, {"c0": [Op("rdp", probe, stored)]}, oracle)
        assert (honest.completed, honest.failed, oracle.problems) == (1, 0, [])
        corrupted = closed_loop(
            space, {"c0": [Op("rdp", probe, entry("KV", 3, "value-30"))]}, oracle
        )
    assert (corrupted.completed, corrupted.failed) == (0, 1)
    assert oracle.mismatches == 1 and "value-30" in oracle.problems[0]


def test_compare_flags_regressions_and_leaves_wide_spreads_unresolved():
    def run(ops_per_s: float, iqr: float, msgs: float, median: float | None = None) -> dict:
        metrics = {
            "ops_per_s": {
                "value": ops_per_s,
                "unit": "1/s",
                "n": 9,
                "iqr": iqr,
                "median": ops_per_s if median is None else median,
            },
            "msgs_per_op": {"value": msgs, "unit": "count", "n": 9, "iqr": 0.0},
        }
        return {"workloads": {"write_loopback": {"metrics": metrics}}}

    def verdicts(a: dict, b: dict) -> dict[str, str]:
        return {row.metric.name: row.verdict for row in compare_runs(a, b, CATALOGUE)}

    base = run(600.0, 12.0, 33.5)
    assert verdicts(base, run(590.0, 12.0, 33.5)) == {"ops_per_s": "ok", "msgs_per_op": "ok"}
    assert verdicts(base, run(300.0, 12.0, 36.0)) == {
        "ops_per_s": "regression",
        "msgs_per_op": "regression",
    }
    assert verdicts(base, run(300.0, 290.0, 8.0)) == {
        "ops_per_s": "unresolved",
        "msgs_per_op": "ok",
    }
    # The better quartile held while half the segments slowed: the median shows it.
    assert verdicts(base, run(600.0, 12.0, 33.5, median=400.0))["ops_per_s"] == "regression"


def test_compare_refuses_a_missing_workload_and_unequal_inputs():
    def out_file(seed: int, workloads: tuple[str, ...]) -> dict:
        run = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        return {
            "seed": seed,
            "seconds": 12.0,
            "trace": False,
            "workloads": dict.fromkeys(workloads, run),
        }

    both = out_file(1, ("write_loopback", "read_tcp"))
    assert print_comparison(both, both, CATALOGUE, io.StringIO()) == 0
    crashed = io.StringIO()
    assert print_comparison(both, out_file(1, ("write_loopback",)), CATALOGUE, crashed) == 1
    assert "read_tcp is in A and missing from B" in crashed.getvalue()
    reseeded = io.StringIO()
    other_seed = out_file(2, ("write_loopback", "read_tcp"))
    assert print_comparison(both, other_seed, CATALOGUE, reseeded) == 1
    assert "seed differs" in reseeded.getvalue()
