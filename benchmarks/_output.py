"""Helpers shared by the benchmark modules.

Every experiment prints the table/series it regenerates.  pytest captures
normal stdout, so :func:`emit` writes to the original stdout stream — the
rows are visible in a plain ``pytest benchmarks/ --benchmark-only`` run and
end up in ``bench_output.txt`` when the run is tee'd, which is how
EXPERIMENTS.md is kept honest.
"""

from __future__ import annotations

import sys
from typing import Any, Mapping, Sequence

from repro.analysis import format_table

__all__ = ["emit", "emit_table"]


def emit(text: str) -> None:
    stream = sys.__stdout__ if sys.__stdout__ is not None else sys.stdout
    stream.write(text + "\n")
    stream.flush()


def emit_table(rows: Sequence[Mapping[str, Any]], *, title: str, columns: Sequence[str] | None = None) -> None:
    emit("")
    emit(format_table(rows, title=title, columns=columns))
