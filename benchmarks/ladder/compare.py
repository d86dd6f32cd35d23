"""``ladder compare A.json B.json`` — hold run B to run A's numbers.

Both files come from ``ladder run --out`` (or ``ladder trace --out``).
One row per (workload, bounded metric): A's and B's value, the median of
the segments behind each (a wall-clock value is the segments' better
quartile, see ``workloads.best_quartile``; an exact or single-reading
value is its own median), the segments' inter-quartile distance as a
share of that median, how much B is worse — by its value or by its
median, whichever is worse — and a verdict:

* ``ok``          neither B's value nor its median is worse than A's by
  more than the metric's bound;
* ``regression``  one of them is;
* ``unresolved``  a spread is wider than the bound, so the pair decides
  nothing either way.

Exit status 1 on any regression, on more failed operations in B, on a run
that failed its correctness checks, on a workload of A that B lacks (its
``bench.py`` crashed), and on files measured with another seed or run
length (the simulated workloads' exact numbers hold for equal inputs
only); ``unresolved`` rows do not fail.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterator, TextIO

from benchmarks.ladder.catalogue import Catalogue, Metric

__all__ = ["Row", "compare_runs", "print_comparison"]


@dataclasses.dataclass(frozen=True)
class Row:
    workload: str
    metric: Metric
    a: float
    b: float
    a_median: float
    b_median: float
    a_spread: float
    b_spread: float
    #: Share of A by which B is worse (negative: B is better), by value or
    #: by median, whichever is worse.
    worse_by: float
    verdict: str


def _median(cell: dict[str, Any]) -> float:
    return cell.get("median", cell["value"])


def _spread(cell: dict[str, Any]) -> float:
    median = _median(cell)
    return abs(cell.get("iqr", 0.0) / median) if median else 0.0


def _worse_by(metric: Metric, a: float, b: float) -> float:
    if a == 0:
        # Nothing to take a share of: any move away from 0 in the wrong
        # direction is as bad as it gets, none is none.
        wrong_way = b > 0 if metric.better == "lower" else b < 0
        return float("inf") if wrong_way else 0.0
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def _incomparable(a: dict[str, Any], b: dict[str, Any], catalogue: Catalogue) -> list[str]:
    """Why B cannot be held to A at all; empty when it can."""
    reasons = [
        f"{key} differs: A has {a.get(key)!r}, B has {b.get(key)!r}"
        for key in ("seed", "seconds", "trace")
        if a.get(key) != b.get(key)
    ]
    reasons += [
        f"{workload} is in A and missing from B"
        for workload in catalogue.workloads
        if workload in a["workloads"] and workload not in b["workloads"]
    ]
    return reasons


def _failed_share(run: dict[str, Any]) -> float:
    # A run that attempted nothing completed nothing: all of it failed.
    return run["failed"] / run["attempted"] if run["attempted"] else 1.0


def compare_runs(a: dict[str, Any], b: dict[str, Any], catalogue: Catalogue) -> Iterator[Row]:
    """Rows for every bounded metric both runs report, in catalogue order."""
    for workload in catalogue.workloads:
        run_a = a["workloads"].get(workload)
        run_b = b["workloads"].get(workload)
        if run_a is None or run_b is None:
            continue
        for metric in (*catalogue.end_to_end.values(), *catalogue.per_layer.values()):
            cell_a = run_a["metrics"].get(metric.name)
            cell_b = run_b["metrics"].get(metric.name)
            if metric.bound is None or cell_a is None or cell_b is None:
                continue
            medians = _median(cell_a), _median(cell_b)
            worse_by = max(
                _worse_by(metric, cell_a["value"], cell_b["value"]),
                _worse_by(metric, *medians),
            )
            spreads = _spread(cell_a), _spread(cell_b)
            if max(spreads) > metric.bound:
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "regression"
            else:
                verdict = "ok"
            yield Row(
                workload,
                metric,
                cell_a["value"],
                cell_b["value"],
                *medians,
                *spreads,
                worse_by,
                verdict,
            )


def print_comparison(
    a: dict[str, Any], b: dict[str, Any], catalogue: Catalogue, out: TextIO
) -> int:
    """Print the table; returns the exit status."""
    reasons = _incomparable(a, b, catalogue)
    for reason in reasons:
        out.write(f"INCOMPARABLE: {reason}\n")
    status = 1 if reasons else 0
    out.write(
        f"{'workload':20s} {'metric':18s} {'A':>12s} {'median A':>12s} {'±A':>6s} "
        f"{'B':>12s} {'median B':>12s} {'±B':>6s} {'worse by':>9s} {'bound':>6s}  verdict\n"
    )
    for row in compare_runs(a, b, catalogue):
        out.write(
            f"{row.workload:20s} {row.metric.name:18s} "
            f"{row.a:12.4f} {row.a_median:12.4f} {row.a_spread:6.1%} "
            f"{row.b:12.4f} {row.b_median:12.4f} {row.b_spread:6.1%} "
            f"{row.worse_by:+9.1%} {row.metric.bound:6.0%}  {row.verdict}\n"
        )
        if row.verdict == "regression":
            status = 1
    for workload in catalogue.workloads:
        run_a = a["workloads"].get(workload)
        run_b = b["workloads"].get(workload)
        if run_a is None or run_b is None:
            continue
        share_a, share_b = _failed_share(run_a), _failed_share(run_b)
        verdict = "ok"
        if share_b > share_a or not run_b["correct"]:
            verdict, status = "regression", 1
        out.write(
            f"{workload:20s} {'failed_share':18s} {share_a:12.6f} {'':19s} {share_b:12.6f} "
            f"{'':19s} {'':9s} {'any':>6s}  {verdict}\n"
        )
    return status


def load_run(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as source:
        return json.load(source)
