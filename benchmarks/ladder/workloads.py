"""The five workloads of the ladder, each with its correctness checks.

Every workload builds its deployment through the public API only
(:func:`repro.api.connect`, :func:`repro.sim.run_scenario`,
:mod:`repro.universal`), makes its inputs from the seed, measures
bracketed segments (:mod:`benchmarks.ladder.noise`), checks what the
system answered, and returns an :class:`Outcome`.

Load model of the two real-transport workloads: closed loop, four client
identities with one request outstanding each (the PBFT reply-cache rule in
``replication/client.py``); a client issues its next request from the
completion callback of the previous one, so the clients are continuation
chains on the transport's reactor thread, not threads of their own.

Why each workload exists is recorded in ``BENCHMARK.json`` and, at length,
in ``README.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import statistics
import threading
import time
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.api import connect
from repro.cluster.routing import ExplicitRouting
from repro.policy.library import wait_free_universal_policy
from repro.sim import CrashWindow, Scenario, open_sim_policy, run_scenario
from repro.sim.workloads import escrow_transfers, kv_readwrite, queue_consumers
from repro.tuples import ANY, entry, template
from repro.universal import WaitFreeUniversalConstruction
from repro.universal.emulated import counter_type

from benchmarks.ladder.noise import (
    Bracketed,
    Measured,
    NoiseGate,
    measure_segments,
    median_and_spread,
)

__all__ = [
    "WORKLOADS",
    "CLIENTS",
    "SIM_NETWORK",
    "Sample",
    "Segment",
    "Outcome",
    "best_quartile",
    "Op",
    "ReplyOracle",
    "closed_loop",
    "run_workload",
]

#: The four client identities of every workload.
CLIENTS = ("c0", "c1", "c2", "c3")

#: The delay the simulated workloads inject, stated once: virtual ms.
#: ``processing_time`` is the value ``BENCH_net_calibration.json`` fitted.
SIM_NETWORK = dict(
    mean_latency=1.0, jitter=0.5, processing_time=0.2, view_change_timeout=50.0
)

#: Repetitions of set-up per run; ``setup_s`` is the median of the quiet ones.
SETUP_REPEATS = 5
#: Quiet segments a time-budgeted run wants before it stops (it gives up
#: at twice its budget).
MIN_QUIET_SEGMENTS = 6
#: Wall-clock seconds a closed-loop segment may take before it is given up.
SEGMENT_TIMEOUT_S = 120.0


@dataclasses.dataclass(frozen=True)
class Sample:
    """One reported number: its value, how many samples stand behind it,
    their inter-quartile distance (0 when it is a single reading) and,
    where the value is not the samples' median itself, that median."""

    value: float
    n: int = 1
    iqr: float = 0.0
    median: Optional[float] = None


@dataclasses.dataclass
class Segment:
    """One measured stretch of work."""

    attempted: int
    completed: int
    failed: int
    wall_s: float
    cpu_s: float
    #: Client-observed latency of every completed operation: wall ms on
    #: the real transports, virtual ms on the simulated ones.
    latencies_ms: list[float]
    delivered: int = 0
    frames_sent: int = 0
    bytes_sent: int = 0
    #: What only this workload measures (virtual-time facts of a sim run).
    facts: dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Outcome:
    """What one workload run produced."""

    workload: str
    metrics: dict[str, Sample]
    attempted: int
    failed: int
    #: Violated correctness checks; empty means every check passed.
    problems: list[str]
    #: Completed operations and wall seconds of every attempt, reruns
    #: included — the base of each ratio the traced run derives, whose
    #: wrappers count reruns too.
    completed: int
    wall_s: float
    #: Counters read from the deployment when the run ended.
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _rng(seed: int, *scope: Any) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *scope)))


def _sub_seed(seed: int, *scope: Any) -> int:
    return _rng(seed, *scope).randrange(1, 1 << 30)


def _timed_setups(
    gate: NoiseGate, build: Callable[[], Any], teardown: Callable[[Any], None], *, toy: bool
) -> tuple[Any, list[Bracketed[float]]]:
    """Set up :data:`SETUP_REPEATS` times (once at toy size), each
    bracketed; keep the last handle."""
    handle = None

    def timed(index: int) -> float:
        nonlocal handle
        if handle is not None:
            teardown(handle)
        started = time.perf_counter()
        handle = build()
        return time.perf_counter() - started

    setups = [gate.bracket(repeat, timed) for repeat in range(1 if toy else SETUP_REPEATS)]
    return handle, setups


def _setup_sample(gate: NoiseGate, setups: list[Bracketed[float]]) -> Sample:
    """``setup_s``: the median over the set-ups made while the machine was
    quiet, judged against the best reading of the whole run."""
    durations = [item.value for item in gate.quiet(setups)]
    median, iqr = median_and_spread(durations)
    return Sample(median, len(durations), iqr)


@contextlib.contextmanager
def _recording(tracer: Any) -> Iterator[None]:
    """Let ``tracer`` (if any) record for the measured segments only."""
    if tracer is not None:
        tracer.active = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = False


def best_quartile(values: Sequence[float], *, higher_is_better: bool) -> float:
    """The quartile on the good side of ``values``' median.

    Interference on a shared machine only ever slows a segment down, and
    it comes in bursts shorter than a segment, which the calibration
    brackets cannot see.  The better quartile therefore sits inside the
    cluster of undisturbed segments as long as a quarter of them were
    undisturbed, where the median flips between clusters once half are
    not.  It is not the best value: one lucky segment does not move it.

    Unlike the brackets this is a statistic of the measured values
    themselves, and it has a blind spot: a change that slows fewer than
    three quarters of the segments does not move it.  Every sample that
    reports it therefore carries the segments' median and inter-quartile
    distance too, and ``ladder compare`` holds both to the bound.
    """
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] if higher_is_better else quartiles[0]


def _segment_metrics(measured: Measured[Segment], *, simulated: bool) -> dict[str, Sample]:
    """The end-to-end numbers every workload reports.

    Wall metrics are the better quartile (:func:`best_quartile`) over the
    quiet segments of the per-segment value; their ``median`` is the
    segments' median and their ``iqr`` the distance between the segments'
    quartiles.  On the ``simulated`` workloads message counts are instead
    taken over every operation of every sub-seed, and the workload itself
    adds its virtual-time latency percentiles: virtual time does not care
    how busy the host was.
    """
    quiet = [item.value for item in measured.quiet]

    def over_segments(
        per_segment: Callable[[Segment], float], better: Optional[str] = "lower"
    ) -> Sample:
        """``better`` picks the quartile; ``None`` (a count, which
        interference does not move) takes the median."""
        values = [per_segment(segment) for segment in quiet]
        median, iqr = median_and_spread(values)
        if better is None:
            return Sample(median, len(values), iqr)
        value = best_quartile(values, higher_is_better=better == "higher")
        return Sample(value, len(values), iqr, median)

    metrics = {
        "ops_per_s": over_segments(lambda s: s.completed / s.wall_s, "higher"),
        "cpu_ms_per_op": over_segments(lambda s: s.cpu_s * 1000.0 / s.completed),
    }
    if simulated:
        # Exact per seed: every operation of every sub-seed, pooled.
        runs = [item.value for item in measured.segments]
        completed = sum(segment.completed for segment in runs)
        metrics["msgs_per_op"] = Sample(
            sum(segment.delivered for segment in runs) / completed, completed
        )
    else:
        metrics["p50_ms"] = over_segments(lambda s: percentile(s.latencies_ms, 0.50))
        metrics["p95_ms"] = over_segments(lambda s: percentile(s.latencies_ms, 0.95))
        if any(segment.delivered for segment in quiet):
            metrics["msgs_per_op"] = over_segments(lambda s: s.delivered / s.completed, None)
        if any(segment.bytes_sent for segment in quiet):
            metrics["bytes_per_op"] = over_segments(lambda s: s.bytes_sent / s.completed, None)
    metrics["calib_ms"] = Sample(measured.calib_ms, 2 * len(measured.attempts))
    metrics["noise.rejected_segments"] = Sample(float(measured.rejected), len(measured.attempts))
    return metrics


def _outcome(
    workload: str,
    measured: Measured[Segment],
    metrics: dict[str, Sample],
    problems: list[str],
    counters: Optional[dict[str, float]] = None,
) -> Outcome:
    segments = [item.value for item in measured.segments]
    attempts = [item.value for item in measured.attempts]
    failed = sum(segment.failed for segment in segments)
    counters = dict(counters or {})
    counters["frames_sent"] = float(sum(segment.frames_sent for segment in attempts))
    counters["bytes_sent"] = float(sum(segment.bytes_sent for segment in attempts))
    if failed:
        problems.append(f"{failed} operations failed, were refused in error or timed out")
    return Outcome(
        workload=workload,
        metrics=metrics,
        attempted=sum(segment.attempted for segment in segments),
        failed=failed,
        problems=problems,
        completed=sum(segment.completed for segment in attempts),
        wall_s=sum(segment.wall_s for segment in attempts),
        counters=counters,
    )


# ----------------------------------------------------------------------
# universal_local
# ----------------------------------------------------------------------

_PROCESSES = ("p0", "p1", "p2", "p3")


def _fresh_counter() -> tuple[WaitFreeUniversalConstruction, list]:
    space = connect("local", policy=wait_free_universal_policy(_PROCESSES))
    construction = WaitFreeUniversalConstruction(counter_type(), _PROCESSES, space=space)
    return construction, [construction.handle(process) for process in _PROCESSES]


def run_universal_local(seed: int, seconds: float, *, toy: bool, tracer: Any = None) -> Outcome:
    """Fig. 8's wait-free universal construction on the local backend.

    Each epoch threads ``epoch_ops`` increments of an emulated counter into
    a fresh construction, so the space grows from 0 to ``epoch_ops``
    same-name ``SEQ`` tuples inside every epoch.
    """
    epoch_ops, warmup_ops = (40, 10) if toy else (400, 100)
    problems: list[str] = []

    def build() -> None:
        _, handles = _fresh_counter()
        for index in range(warmup_ops):
            handles[index % len(handles)].invoke("increment")

    gate = NoiseGate()
    _, setups = _timed_setups(gate, build, lambda handle: None, toy=toy)

    def epoch(index: int) -> Segment:
        order = _rng(seed, "universal", index)
        invokers = [order.randrange(len(_PROCESSES)) for _ in range(epoch_ops)]
        construction, handles = _fresh_counter()
        latencies = []
        tickets = []
        cpu = time.process_time()
        started = time.perf_counter()
        for invoker in invokers:
            issued = time.perf_counter()
            tickets.append(handles[invoker].invoke("increment"))
            latencies.append((time.perf_counter() - issued) * 1000.0)
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu
        # Fetch-and-increment hands out every ticket 0..n-1 exactly once.
        lost = epoch_ops - len(set(tickets) & set(range(epoch_ops)))
        if handles[0].refresh() != epoch_ops:
            problems.append(
                f"epoch {index}: counter reads {handles[0].state}, {epoch_ops} increments issued"
            )
        threaded = len(construction.threaded_invocations())
        if threaded != epoch_ops:
            problems.append(f"epoch {index}: {threaded} invocations threaded, not {epoch_ops}")
        return Segment(epoch_ops, epoch_ops - lost, lost, wall_s, cpu_s, latencies)

    with _recording(tracer):
        measured = measure_segments(
            epoch, gate, seconds=seconds, min_segments=1 if toy else MIN_QUIET_SEGMENTS
        )
    metrics = _segment_metrics(measured, simulated=False)
    metrics["setup_s"] = _setup_sample(gate, setups)
    return _outcome("universal_local", measured, metrics, problems)


# ----------------------------------------------------------------------
# write_loopback / read_tcp — closed loop on a real transport
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Op:
    """One generated operation and the value a correct system answers."""

    operation: str
    arguments: tuple
    expected: Any


class ReplyOracle:
    """Checks every reply against the value the generator predicted."""

    def __init__(self) -> None:
        self.mismatches = 0
        self.problems: list[str] = []

    def check(self, client: str, op: Op, payload: Any) -> bool:
        if payload == ("OK", op.expected):
            return True
        self.mismatches += 1
        if len(self.problems) < 5:
            self.problems.append(
                f"{client} {op.operation}{op.arguments!r} answered {payload!r}, "
                f"expected ('OK', {op.expected!r})"
            )
        return False


class _WriteProgram:
    """``out`` then ``inp`` of the client's own tuple: every op changes
    state and the space never holds more than one tuple per client."""

    def __init__(self, seed: int, client: str) -> None:
        self._rng = _rng(seed, "write", client)
        self._client = client
        self._held: Any = None
        self._serial = 0

    def next_ops(self, count: int) -> list[Op]:
        ops = []
        for _ in range(count):
            if self._held is None:
                self._serial += 1
                self._held = entry("W", self._client, self._serial, self._rng.randrange(1 << 30))
                ops.append(Op("out", (self._held,), True))
            else:
                ops.append(Op("inp", (template("W", self._client, ANY, ANY),), self._held))
                self._held = None
        return ops


class _ReadProgram(_WriteProgram):
    """90 % ``rdp`` of a seeded-random prefilled key, 10 % the write pair."""

    def __init__(self, seed: int, client: str, table: dict[int, Any]) -> None:
        super().__init__(seed, client)
        self._table = table

    def next_ops(self, count: int) -> list[Op]:
        ops = []
        for _ in range(count):
            if self._rng.random() < 0.9:
                key = self._rng.randrange(len(self._table))
                ops.append(Op("rdp", (template("KV", key, ANY),), self._table[key]))
            else:
                ops.extend(super().next_ops(1))
        return ops


def closed_loop(space: Any, programs: dict[str, list[Op]], oracle: ReplyOracle) -> Segment:
    """Run every client's operation list to its end, one request
    outstanding per client, each next request issued from the completion
    callback of the previous one (on the transport's reactor thread)."""
    network = space.network
    finished = threading.Event()
    latencies: list[float] = []
    state = {"running": len(programs), "failed": 0}

    def chain(client: str, ops: list[Op]) -> Callable[[], None]:
        view = space.bind(client)
        position = 0
        issued = 0.0

        def issue() -> None:
            nonlocal position, issued
            if position == len(ops):
                state["running"] -= 1
                if state["running"] == 0:
                    finished.set()
                return
            op = ops[position]
            position += 1
            issued = time.perf_counter()
            view.submit(op.operation, op.arguments, on_complete=lambda future: done(op, future))

        def done(op: Op, future: Any) -> None:
            elapsed = (time.perf_counter() - issued) * 1000.0
            if future.exception is None and oracle.check(client, op, future.result()):
                latencies.append(elapsed)
            else:
                state["failed"] += 1
            issue()

        return issue

    attempted = sum(len(ops) for ops in programs.values())
    before = network.statistics
    cpu = time.process_time()
    started = time.perf_counter()
    for client, ops in programs.items():
        network.post(client, chain(client, ops))
    in_time = finished.wait(SEGMENT_TIMEOUT_S)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu
    after = network.statistics
    failed = state["failed"] if in_time else attempted - len(latencies)
    return Segment(
        attempted=attempted,
        completed=len(latencies),
        failed=failed,
        wall_s=wall_s,
        cpu_s=cpu_s,
        latencies_ms=latencies,
        delivered=int(after["delivered"] - before["delivered"]),
        frames_sent=int(after["frames_sent"] - before["frames_sent"]),
        bytes_sent=int(after["bytes_sent"] - before["bytes_sent"]),
    )


def _settled_digests(space: Any, timeout_s: float = 5.0) -> dict[str, str]:
    """Replica state digests once the replicas stop disagreeing.

    A client moves on at ``f + 1`` matching replies, so the slowest replica
    may still be executing the last batch; the digests are read on the
    replicas' own reactor, where nothing else touches their state.
    """
    service = space.service
    deadline = time.monotonic() + timeout_s
    while True:
        box: dict[str, Any] = {}
        read = threading.Event()

        def snapshot() -> None:
            try:
                box["digests"] = service.replica_state_digests()
            finally:
                read.set()

        space.network.post(service.replica_ids[0], snapshot)
        read.wait(timeout_s)
        digests = box.get("digests", {})
        if (digests and len(set(digests.values())) == 1) or time.monotonic() >= deadline:
            return digests
        time.sleep(0.02)


def _replicated_counters(space: Any) -> dict[str, float]:
    """Protocol counters of one replica group when the run ended."""
    service = space.service
    primary = max(
        (node.statistics for node in service.nodes), key=lambda s: s["batches_proposed"]
    )
    clients = service.client_statistics()
    network = space.network.statistics
    return {
        "batches_proposed": primary["batches_proposed"],
        "requests_executed": primary["requests_executed"],
        "view_changes": max(node.statistics["view_changes_started"] for node in service.nodes),
        "client_requests": clients["requests"],
        "client_retransmissions": clients["retransmissions"],
        "net_rejected": network["rejected"],
        "net_handler_errors": network["handler_errors"],
    }


def _run_replicated(
    workload: str,
    transport: str,
    seed: int,
    seconds: float,
    *,
    toy: bool,
    tracer: Any,
    segment_ops: int,
    warmup_ops: int,
    keys: int,
) -> Outcome:
    oracle = ReplyOracle()
    table = {key: entry("KV", key, f"value-{key}") for key in range(keys)}

    def build() -> tuple[Any, dict[str, _WriteProgram]]:
        space = connect("replicated", policy=open_sim_policy(), transport=transport)
        try:
            for key, stored in table.items():
                space.out(stored, process=CLIENTS[key % len(CLIENTS)])
            if keys:
                programs: dict[str, _WriteProgram] = {
                    client: _ReadProgram(seed, client, table) for client in CLIENTS
                }
            else:
                programs = {client: _WriteProgram(seed, client) for client in CLIENTS}
            warmup = closed_loop(
                space,
                {c: p.next_ops(warmup_ops // len(CLIENTS)) for c, p in programs.items()},
                oracle,
            )
            if warmup.failed:
                oracle.problems.append(f"{warmup.failed} warm-up operations failed")
        except BaseException:
            space.close()
            raise
        return space, programs

    gate = NoiseGate()
    (space, programs), setups = _timed_setups(
        gate, build, lambda handle: handle[0].close(), toy=toy
    )
    try:
        per_client = segment_ops // len(CLIENTS)
        with _recording(tracer):
            measured = measure_segments(
                lambda index: closed_loop(
                    space, {c: p.next_ops(per_client) for c, p in programs.items()}, oracle
                ),
                gate,
                seconds=seconds,
                min_segments=1 if toy else MIN_QUIET_SEGMENTS,
            )
        problems = list(oracle.problems)
        if oracle.mismatches > len(oracle.problems):
            problems.append(f"{oracle.mismatches} replies in all did not match")
        counters = _replicated_counters(space)
        if counters["net_rejected"] or counters["net_handler_errors"]:
            problems.append(
                f"transport rejected {counters['net_rejected']:.0f} frames and "
                f"counted {counters['net_handler_errors']:.0f} handler errors"
            )
        digests = _settled_digests(space)
        if len(set(digests.values())) != 1:
            problems.append(f"replica state digests disagree at the end: {digests}")
    finally:
        space.close()
    metrics = _segment_metrics(measured, simulated=False)
    metrics["setup_s"] = _setup_sample(gate, setups)
    return _outcome(workload, measured, metrics, problems, counters)


def run_write_loopback(seed: int, seconds: float, *, toy: bool, tracer: Any = None) -> Outcome:
    """The ordered-write path on the asyncio loopback (no codec, no sockets)."""
    segment_ops, warmup_ops = (40, 8) if toy else (300, 200)
    return _run_replicated(
        "write_loopback", "asyncio", seed, seconds, toy=toy, tracer=tracer,
        segment_ops=segment_ops, warmup_ops=warmup_ops, keys=0,
    )  # fmt: skip


def run_read_tcp(seed: int, seconds: float, *, toy: bool, tracer: Any = None) -> Outcome:
    """A 90 % read mix over localhost TCP: codec, framing and sockets added."""
    segment_ops, warmup_ops, keys = (40, 8, 8) if toy else (200, 100, 64)
    return _run_replicated(
        "read_tcp", "tcp", seed, seconds, toy=toy, tracer=tracer,
        segment_ops=segment_ops, warmup_ops=warmup_ops, keys=keys,
    )  # fmt: skip


# ----------------------------------------------------------------------
# escrow_sharded_sim / primary_crash_sim — virtual time
# ----------------------------------------------------------------------


def _completions(result: Any) -> list[tuple[float, str, float]]:
    """``(completed_at, operation, latency)`` of every completed operation,
    read from the scenario's public trace."""
    rows = []
    for line in result.metrics.trace_lines():
        parts = line.split()
        if len(parts) >= 6 and parts[1] == "complete":
            rows.append((float(parts[0]), parts[3].split("#", 1)[0], float(parts[5])))
    return rows


def _run_timed(scenario: Scenario) -> tuple[Any, float, float]:
    cpu = time.process_time()
    started = time.perf_counter()
    result = run_scenario(scenario)
    return result, time.perf_counter() - started, time.process_time() - cpu


def _sim_segment(result: Any, wall_s: float, cpu_s: float, facts: dict[str, Any]) -> Segment:
    metrics = result.metrics
    attempted = sum(runner.operations_issued for runner in result.engine.runners)
    completions = _completions(result)
    facts["completions"] = completions
    facts["unfinished"] = len(result.engine.unfinished_clients()) + len(
        result.engine.failed_clients()
    )
    return Segment(
        attempted=attempted,
        completed=metrics.operations_completed,
        failed=attempted - metrics.operations_completed + metrics.denied,
        wall_s=wall_s,
        cpu_s=cpu_s,
        latencies_ms=[latency for _, _, latency in completions],
        delivered=int(metrics.summary()["messages"]),
        facts=facts,
    )


def _virtual_latency(latencies: list[float], p50_name: str, p95_name: str) -> dict[str, Sample]:
    """Median and 95th percentile of one population of virtual latencies,
    pooled over every sub-seed, under the workload's own names — and
    under ``p50_ms``/``p95_ms``, which every workload reports: there they
    are this same population on the simulator's clock, not wall time."""
    p50 = Sample(percentile(latencies, 0.50), len(latencies))
    p95 = Sample(percentile(latencies, 0.95), len(latencies))
    return {p50_name: p50, p95_name: p95, "p50_ms": p50, "p95_ms": p95}


_ESCROW_ROUTING = {"TOKEN-0": 0, "TOKEN-1": 1, "TASK": 1}
_ESCROW_TOKENS = 16


def _escrow_scenario(sub_seed: int, transfers: int, items: int) -> Scenario:
    clients = escrow_transfers(
        len(CLIENTS),
        families=2,
        tokens=_ESCROW_TOKENS,
        transfers_per_client=transfers,
        seed=sub_seed,
    )
    if items:
        clients = clients + queue_consumers(2, 4, items_per_producer=items, burst_pause=20.0)
    return Scenario(
        name="escrow_sharded_sim",
        shards=2,
        routing=ExplicitRouting(_ESCROW_ROUTING),
        clients=clients,
        seed=sub_seed,
        **SIM_NETWORK,
    )


def run_escrow_sharded_sim(seed: int, seconds: float, *, toy: bool, tracer: Any = None) -> Outcome:
    """Cross-shard escrow transfers beside blocking queue consumers.

    The number of sub-seeded scenario runs is a function of ``seconds``
    alone, so the virtual-time metrics of one seed repeat exactly; several
    short sub-seeds (not one long run) damp the schedule chaos of lock
    conflicts in ``commit_share`` and the transfer tail.
    """
    transfers, items = (2, 1) if toy else (12, 5)
    runs = 1 if toy else max(2, round(seconds))
    problems: list[str] = []

    def build() -> None:
        run_scenario(_escrow_scenario(_sub_seed(seed, "escrow", "setup"), 0, 0))

    gate = NoiseGate()
    _, setups = _timed_setups(gate, build, lambda handle: None, toy=toy)

    def sub_run(index: int) -> Segment:
        sub_seed = _sub_seed(seed, "escrow", index)
        result, wall_s, cpu_s = _run_timed(_escrow_scenario(sub_seed, transfers, items))
        tokens = sum(
            1 for stored in result.service.snapshot() if str(stored.fields[0]).startswith("TOKEN-")
        )
        if tokens != _ESCROW_TOKENS:
            problems.append(f"sub-run {index}: {tokens} tokens at the end, not {_ESCROW_TOKENS}")
        outcomes = result.client_results()
        produced = sum(v[1] for v in outcomes.values() if v and v[0] == "produced")
        consumed = sum(v[1] for v in outcomes.values() if v and v[0] == "consumed")
        if produced != consumed or produced != 2 * items:
            problems.append(f"sub-run {index}: produced {produced}, consumed {consumed}")
        if not result.completed:
            problems.append(f"sub-run {index}: a client program did not finish")
        txn = result.engine.space.stats()["txn"]
        return _sim_segment(
            result,
            wall_s,
            cpu_s,
            {
                "committed": txn["committed"],
                "aborted": dict(txn["aborted"]),
                "trace_digest": result.metrics.trace_digest(),
                "sub_seed": sub_seed,
            },
        )

    with _recording(tracer):
        measured = measure_segments(sub_run, gate, count=runs)
    segments = [item.value for item in measured.segments]

    # Same sub-seed, fresh deployment: the trace must repeat byte for byte.
    first = segments[0].facts
    replay = run_scenario(_escrow_scenario(first["sub_seed"], transfers, items))
    if replay.metrics.trace_digest() != first["trace_digest"]:
        problems.append("replaying sub-seed 0 gave a different trace digest")

    metrics = _segment_metrics(measured, simulated=True)
    metrics["setup_s"] = _setup_sample(gate, setups)
    rows = [row for segment in segments for row in segment.facts["completions"]]
    transfer = [latency for _, operation, latency in rows if operation == "transfer"]
    wakes = [latency for _, operation, latency in rows if operation == "in"]
    # The transfers are what this workload is for; the seeding and queue
    # ``out``s and the consumers' waits beside them are not mixed in (over
    # every operation the 95th percentile sits on the edge between the
    # transfers' retry tail and the waits, and jumps with the seed).
    metrics.update(_virtual_latency(transfer, "transfer_p50_vms", "transfer_p95_vms"))
    if wakes:
        metrics["wake_p50_vms"] = Sample(percentile(wakes, 0.50), len(wakes))
    committed = sum(segment.facts["committed"] for segment in segments)
    attempted_transfers = transfers * len(CLIENTS) * len(segments)
    metrics["commit_share"] = Sample(committed / attempted_transfers, attempted_transfers)
    # The traced run's wrappers count reruns of a noisy sub-run too, so
    # the counters its ratios divide by cover every attempt.
    attempts = [item.value for item in measured.attempts]
    counters = {
        "transfers": float(transfers * len(CLIENTS) * len(attempts)),
        "aborted_locked": float(sum(a.facts["aborted"].get("locked", 0) for a in attempts)),
        "aborted_no_match": float(sum(a.facts["aborted"].get("no-match", 0) for a in attempts)),
        "waits": float(
            sum(1 for a in attempts for row in a.facts["completions"] if row[1] == "in")
        ),
    }
    return _outcome("escrow_sharded_sim", measured, metrics, problems, counters)


def escrow_transfers_only(seed: int, *, toy: bool) -> tuple[int, int]:
    """``(messages delivered, transfers attempted)`` of one transfers-only
    scenario on the escrow deployment — what one transfer costs on the
    wire without the queue traffic beside it (the 16 seeding ``out``\\ s
    ride along)."""
    transfers = 2 if toy else 8
    result = run_scenario(
        _escrow_scenario(_sub_seed(seed, "escrow", "transfers-only"), transfers, 0)
    )
    return int(result.metrics.summary()["messages"]), transfers * len(CLIENTS)


def run_primary_crash_sim(seed: int, seconds: float, *, toy: bool, tracer: Any = None) -> Outcome:
    """A kv read/write mix whose primary crashes mid-run and stays down."""
    ops_per_client = 30 if toy else 200
    runs = 1 if toy else max(1, int(seconds // 2))
    # The crash lands three eighths into the run (750 vms at full size).
    crash_at = 3.75 * ops_per_client
    problems: list[str] = []

    def scenario(sub_seed: int, ops: int, faults: tuple) -> Scenario:
        return Scenario(
            name="primary_crash_sim",
            clients=kv_readwrite(len(CLIENTS), ops_per_client=ops, seed=sub_seed),
            faults=faults,
            seed=sub_seed,
            **SIM_NETWORK,
        )

    def build() -> None:
        run_scenario(scenario(_sub_seed(seed, "crash", "setup"), 2, ()))

    gate = NoiseGate()
    _, setups = _timed_setups(gate, build, lambda handle: None, toy=toy)

    def sub_run(index: int) -> Segment:
        sub_seed = _sub_seed(seed, "crash", index)
        result, wall_s, cpu_s = _run_timed(
            scenario(sub_seed, ops_per_client, (CrashWindow(replica=0, start=crash_at),))
        )
        if not result.completed:
            problems.append(f"sub-run {index}: a client program did not finish")
        # kv_readwrite only ever inserts, so every acknowledged out must
        # still be there.
        acknowledged = sum(v[2] for v in result.client_results().values() if v)
        stored = len(result.service.snapshot())
        if stored != acknowledged:
            problems.append(
                f"sub-run {index}: {acknowledged} outs acknowledged, {stored} tuples stored"
            )
        correct = result.service.correct_nodes()
        newest = max(node.last_executed for node in correct)
        digests = {
            node.application.state_digest() for node in correct if node.last_executed == newest
        }
        if len(digests) != 1:
            problems.append(f"sub-run {index}: correct replicas disagree on the final state")
        view = max(node.view for node in correct)
        if view < 1:
            problems.append(f"sub-run {index}: no view change happened (view {view})")
        segment = _sim_segment(result, wall_s, cpu_s, {"view": view})
        # Time without service: from the crash to the first completion of
        # an operation that was submitted after it (operations in flight
        # at the crash can still commit in the old view).
        served = [
            done for done, _, latency in segment.facts["completions"] if done - latency >= crash_at
        ]
        if served:
            segment.facts["outage_vms"] = min(served) - crash_at
        else:
            problems.append(f"sub-run {index}: nothing was served after the crash")
        return segment

    with _recording(tracer):
        measured = measure_segments(sub_run, gate, count=runs)
    segments = [item.value for item in measured.segments]
    metrics = _segment_metrics(measured, simulated=True)
    metrics["setup_s"] = _setup_sample(gate, setups)
    every_op = [latency for segment in segments for latency in segment.latencies_ms]
    metrics.update(_virtual_latency(every_op, "vlat_p50_vms", "vlat_p95_vms"))
    outages = [s.facts["outage_vms"] for s in segments if "outage_vms" in s.facts]
    if outages:
        metrics["outage_vms"] = Sample(statistics.median(outages), len(outages))
    counters = {"view_changes": float(max(segment.facts["view"] for segment in segments))}
    return _outcome("primary_crash_sim", measured, metrics, problems, counters)


#: name → runner, in ladder order (single node first, faults last).
WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "universal_local": run_universal_local,
    "write_loopback": run_write_loopback,
    "read_tcp": run_read_tcp,
    "escrow_sharded_sim": run_escrow_sharded_sim,
    "primary_crash_sim": run_primary_crash_sim,
}


def run_workload(
    name: str, seed: int, seconds: float, *, toy: bool = False, tracer: Any = None
) -> Outcome:
    """Run one workload by name; ``toy`` shrinks it to smoke-test size."""
    return WORKLOADS[name](seed, seconds, toy=toy, tracer=tracer)
