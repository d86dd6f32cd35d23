"""benchmarks/bench_obs_overhead.py::check — the passivity gate can trip."""

from __future__ import annotations

import copy
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.bench_obs_overhead import check  # noqa: E402

BASELINE = {
    "benchmark": "obs_overhead",
    "overhead": {"full_vs_bare_factor": 1.129, "trace_digest": "d" * 64},
}


def regressed(**overhead):
    fresh = copy.deepcopy(BASELINE)
    fresh["overhead"].update(overhead)
    return fresh


def test_check_holds_factor_to_ten_percent_and_digest_to_equality():
    assert check(BASELINE, copy.deepcopy(BASELINE)) == []
    assert check(BASELINE, regressed(full_vs_bare_factor=round(1.129 * 1.05, 3))) == []
    (problem,) = check(BASELINE, regressed(full_vs_bare_factor=round(1.129 * 1.15, 3)))
    assert "full_vs_bare_factor" in problem
    (problem,) = check(BASELINE, regressed(trace_digest="e" * 64))
    assert "trace_digest" in problem
    # A faster recorder is not a regression, whatever the margin.
    assert check(BASELINE, regressed(full_vs_bare_factor=0.9)) == []
