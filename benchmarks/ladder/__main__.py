"""``python -m benchmarks.ladder run|trace|compare`` — the ladder's one command.

``run``     every workload (or ``--workload W``), each in its own
            subprocess so peak memory, GC state and reactor threads are
            per workload; checks the outputs; prints every end-to-end
            metric by name with its unit, sample count and spread.
``trace``   the same workloads at a quarter of the length, bare and inside
            the tracing wrappers, plus the micro loops: every per-layer
            metric.
``compare`` two ``--out`` files against the benchmark's bounds.

``run`` and ``trace`` exit 1 when a workload fails a correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
from typing import Any, Optional

from benchmarks.ladder.catalogue import load_catalogue
from benchmarks.ladder.compare import load_run, print_comparison

_BENCH = pathlib.Path(__file__).resolve().with_name("bench.py")


def _machine() -> dict[str, Any]:
    return {
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def _run(args: argparse.Namespace, *, trace: bool) -> int:
    catalogue = load_catalogue()
    workloads = [args.workload] if args.workload else list(catalogue.workloads)
    # Run length is the benchmark's, the same on every commit: the number
    # of simulated sub-seeds, and so every "exact" metric, depends on it.
    seconds = float(catalogue.run_seconds)
    result: dict[str, Any] = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": trace,
        "machine": _machine(),
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(prefix="ladder-") as scratch:
        for workload in workloads:
            report_path = os.path.join(scratch, f"{workload}.json")
            command = [
                sys.executable, str(_BENCH),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
                "--report", report_path,
            ]  # fmt: skip
            if trace and args.spans_dir:
                os.makedirs(args.spans_dir, exist_ok=True)
                command += ["--spans", os.path.join(args.spans_dir, f"{workload}.spans.jsonl")]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            # Everything but the contract's JSON line, which is for drivers.
            sys.stdout.write("\n".join(child.stdout.splitlines()[:-1]) + "\n\n")
            sys.stdout.flush()
            if child.returncode != 0 or not os.path.exists(report_path):
                print(f"{workload}: bench.py exited {child.returncode} without a report")
                status = 1
                continue
            report = load_run(report_path)
            result["workloads"][workload] = report
            if not report["correct"]:
                status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=1)
    return status


def _compare(args: argparse.Namespace) -> int:
    return print_comparison(load_run(args.a), load_run(args.b), load_catalogue(), sys.stdout)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    workloads = load_catalogue().workloads
    for name in ("run", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--workload", choices=workloads)
        sub.add_argument("--out", help="write every workload's report to this JSON file")
        if name == "trace":
            sub.add_argument("--spans-dir", help="write each workload's spans here, as JSON lines")
    sub = commands.add_parser("compare")
    sub.add_argument("a", help="baseline, from run --out")
    sub.add_argument("b", help="candidate, from run --out")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _compare(args)
    return _run(args, trace=args.command == "trace")


if __name__ == "__main__":
    raise SystemExit(main())
