#!/usr/bin/env python3
"""One workload, one process: the entry point ``BENCHMARK.json`` names.

``python3 benchmarks/ladder/bench.py --workload W --seed N --seconds S
--trace 0|1`` builds workload ``W`` from the sources beside it, measures
for about ``S`` seconds, checks the outputs and prints every metric by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (measured with all tracing off); with
``--trace 1`` the workload is run again at a quarter of its length — once
bare and once inside the wrappers of :mod:`benchmarks.ladder.tracing` —
the micro loops run, and the metrics are the per-layer ones.

Run where there is no ``src/repro`` beside it, the script exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import resource
import sys
from typing import Any, Optional

if __name__ == "__main__":
    # Run as a script: make this checkout's own sources importable, ahead
    # of any installed copy of the package.
    _ROOT = pathlib.Path(__file__).resolve().parents[2]
    if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"{_ROOT}/src/repro is missing: there is no program to measure\n")
        raise SystemExit(2)
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.ladder.layers import framing, micro_metrics  # noqa: E402
from benchmarks.ladder.catalogue import Catalogue, load_catalogue  # noqa: E402
from benchmarks.ladder.metrics import traced_layer_metrics  # noqa: E402
from benchmarks.ladder.tracing import LayerTracer  # noqa: E402
from benchmarks.ladder.workloads import (  # noqa: E402
    SIM_NETWORK,
    WORKLOADS,
    Sample,
    escrow_transfers_only,
    run_workload,
)

__all__ = ["Report", "measure", "main"]


@dataclasses.dataclass
class Report:
    """Everything one ``bench.py`` invocation measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    correct: bool
    attempted: int
    failed: int
    problems: list[str]
    #: Every metric measured, by name.  ``n == 0`` marks a metric that
    #: does not apply to this workload: ``n/a`` in the printed table,
    #: absent from :meth:`as_json` (so from ``--out`` files and ``ladder
    #: compare``), and 0 only on the contract line, where the driver wants
    #: every name of ``BENCHMARK.json`` with a number.
    metrics: dict[str, Sample]
    params: dict[str, Any]

    def contract_line(self, catalogue: Catalogue) -> str:
        """The JSON object the benchmark contract wants on the last line."""
        wanted = catalogue.per_layer if self.trace else catalogue.end_to_end
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.metrics[name].value, "unit": metric.unit}
                    for name, metric in wanted.items()
                },
            }
        )

    def as_json(self, catalogue: Catalogue) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "params": self.params,
            "metrics": {
                name: {
                    "value": sample.value,
                    "unit": catalogue.metric(name).unit,
                    "n": sample.n,
                    "iqr": sample.iqr,
                    # Only where the value is not the samples' median.
                    **({} if sample.median is None else {"median": sample.median}),
                }
                for name, sample in self.metrics.items()
                if sample.n
            },
        }


def _peak_rss_mb() -> Sample:
    # Linux reports ru_maxrss in KiB.
    return Sample(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    toy: bool = False,
    spans_path: Optional[str] = None,
) -> Report:
    """Run one workload in this process and gather its metrics."""
    catalogue = load_catalogue()
    params: dict[str, Any] = {
        "clients": 4,
        "f": 1,
        "framing": framing(),
        "sim_network": dict(SIM_NETWORK),
        "python": sys.version.split()[0],
    }
    if not trace:
        outcome = run_workload(workload, seed, seconds, toy=toy)
        metrics = dict(outcome.metrics)
        outcomes = [outcome]
        wanted = catalogue.end_to_end
    else:
        quarter = seconds / 4.0
        untraced = run_workload(workload, seed, quarter, toy=toy)
        tracer = LayerTracer()
        with tracer.installed():
            traced = run_workload(workload, seed, quarter, toy=toy, tracer=tracer)
        txn_only = (
            escrow_transfers_only(seed, toy=toy) if workload == "escrow_sharded_sim" else None
        )
        metrics = dict(traced.metrics)
        metrics.update(traced_layer_metrics(traced, tracer, untraced, txn_only))
        metrics.update(micro_metrics(0.01 if toy else 1.0))
        params["spans"] = tracer.span_count()
        if spans_path is not None:
            tracer.write_spans(spans_path)
        outcomes = [untraced, traced]
        wanted = catalogue.per_layer
    metrics["peak_rss_mb"] = _peak_rss_mb()
    for name in wanted:
        metrics.setdefault(name, Sample(0.0, 0))
    return Report(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        correct=all(outcome.correct for outcome in outcomes),
        attempted=sum(outcome.attempted for outcome in outcomes),
        failed=sum(outcome.failed for outcome in outcomes),
        problems=[problem for outcome in outcomes for problem in outcome.problems],
        metrics=metrics,
        params=params,
    )


def print_report(report: Report, catalogue: Catalogue) -> None:
    """Every applicable metric by name, with unit, sample count and spread."""
    print(
        f"# {report.workload} seed={report.seed} seconds={report.seconds:g} "
        f"trace={int(report.trace)} framing={report.params['framing']}"
    )
    for name in sorted(report.metrics):
        sample = report.metrics[name]
        if not sample.n:
            print(f"{name:32s} {'n/a':>14s}")
            continue
        metric = catalogue.metric(name)
        median = "" if sample.median is None else f" median={sample.median:.4f}"
        print(
            f"{name:32s} {sample.value:14.4f} {metric.unit:6s} "
            f"n={sample.n:<7d} iqr={sample.iqr:.4g}{median}"
        )
    for problem in report.problems:
        print(f"INCORRECT: {problem}")
    print(
        f"# correct={report.correct} attempted={report.attempted} failed={report.failed} "
        f"failed_share={report.failed / max(report.attempted, 1):.6f}"
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full report, as JSON, to this file")
    parser.add_argument("--spans", help="with --trace 1: write every span, one JSON line each")
    args = parser.parse_args(argv)
    catalogue = load_catalogue()
    report = measure(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), spans_path=args.spans
    )
    print_report(report, catalogue)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump(report.as_json(catalogue), out, indent=1)
    print(report.contract_line(catalogue), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
