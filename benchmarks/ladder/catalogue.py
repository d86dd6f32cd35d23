"""The metric catalogue: names, units, directions and bounds.

``BENCHMARK.json`` is the one place a metric's name, unit and direction
are written down; this module loads it (and imports nothing of the
program, so ``ladder compare`` runs anywhere).  The end-to-end metrics
carry their regression bound there.  The workload-specific user-visible
metrics (``msgs_per_op`` … ``outage_vms``) are listed under ``per_layer``
because the benchmark contract wants every end-to-end metric reported by
every workload, and a ``per_layer`` row may carry no key but name, unit
and direction; :data:`WORKLOAD_METRICS` is therefore the one place that
says which workloads have each of them and the bound ``ladder compare``
holds it to.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Mapping

__all__ = [
    "BENCHMARK_PATH",
    "Metric",
    "Catalogue",
    "load_catalogue",
    "WORKLOAD_METRICS",
]

BENCHMARK_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

_NETWORKED = ("write_loopback", "read_tcp", "escrow_sharded_sim", "primary_crash_sim")
_ESCROW = ("escrow_sharded_sim",)
_CRASH = ("primary_crash_sim",)

#: The workload-specific user-visible metrics: name → (allowed worsening
#: as a share of the baseline, the workloads that have it).  Everywhere
#: else the metric does not apply.  The simulated ones repeat exactly for
#: one seed, so the bounds are tight; ``ladder compare`` applies them.
WORKLOAD_METRICS: dict[str, tuple[float, tuple[str, ...]]] = {
    "msgs_per_op": (0.02, _NETWORKED),
    "bytes_per_op": (0.02, ("read_tcp",)),
    "transfer_p50_vms": (0.05, _ESCROW),
    "transfer_p95_vms": (0.05, _ESCROW),
    "wake_p50_vms": (0.05, _ESCROW),
    "commit_share": (0.05, _ESCROW),
    "vlat_p50_vms": (0.02, _CRASH),
    "vlat_p95_vms": (0.02, _CRASH),
    "outage_vms": (0.02, _CRASH),
}


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which it may worsen; ``None`` = not gated.
    bound: float | None = None


@dataclasses.dataclass(frozen=True)
class Catalogue:
    workloads: tuple[str, ...]
    run_seconds: int
    end_to_end: Mapping[str, Metric]
    per_layer: Mapping[str, Metric]

    def metric(self, name: str) -> Metric:
        found = self.end_to_end.get(name) or self.per_layer.get(name)
        if found is None:
            raise KeyError(f"{name!r} is not a metric of BENCHMARK.json")
        return found


def load_catalogue(path: pathlib.Path = BENCHMARK_PATH) -> Catalogue:
    with open(path, encoding="utf-8") as source:
        spec = json.load(source)
    end_to_end = {
        row["name"]: Metric(row["name"], row["unit"], row["better"], row["bound"])
        for row in spec["end_to_end"]
    }
    per_layer = {
        row["name"]: Metric(
            row["name"], row["unit"], row["better"], WORKLOAD_METRICS.get(row["name"], (None,))[0]
        )
        for row in spec["per_layer"]
    }
    return Catalogue(
        workloads=tuple(row["name"] for row in spec["workloads"]),
        run_seconds=int(spec["run_seconds"]),
        end_to_end=end_to_end,
        per_layer=per_layer,
    )
