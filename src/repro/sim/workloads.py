"""Reusable workload generators for scenario runs.

Each builder returns ``[(process, program_factory), ...]`` ready to drop
into :attr:`repro.sim.engine.Scenario.clients`.  Program factories are
zero-argument callables producing fresh generators, so the same workload
object can be replayed (the determinism checks rely on this).

All randomness inside a workload comes from per-client
``random.Random`` instances seeded from the workload's own ``seed``
argument — never from global state — so the *workload* is deterministic
and the only interleaving nondeterminism left is the network's seeded
latency jitter.

Workloads included (the contention patterns BFT tuple-space papers
evaluate):

* :func:`consensus_storm` — every client races one ``cas`` on the same
  ``DECISION`` tuple, then reads the winner back (Algorithm 1's conflict
  pattern at full contention);
* :func:`lock_contention` — clients loop acquiring/releasing one mutex
  token with ``inp``/``out`` and bounded backoff;
* :func:`barrier_rendezvous` — each client announces arrival and polls
  until it has seen every other client's announcement;
* :func:`kv_readwrite` — a keyspace read/write mix (the YCSB-style load);
* :func:`queue_producer_consumer` — producers ``out`` jobs, consumers
  ``inp`` them until a quota is met;
* :func:`queue_consumers` — *blocking* consumers (``in`` steps) fed by
  bursty producers, the wake-latency regime the ``repro.notify`` push
  channel targets;
* :func:`multi_shard_kv` — a kv mix whose tuple names are spread over a
  sharded cluster, with a tunable home-shard locality;
* :func:`wildcard_probe_mix` — a read mix with a *match-locality* knob:
  reads that do not know their tuple's name become wildcard-name probes,
  which a sharded cluster scatter-gathers across every replica group;
* :func:`escrow_transfers` — clients shuffle a fixed pool of token tuples
  between name families with atomic ``transfer`` steps; every committed
  transfer consumes exactly one token and inserts exactly one, so the
  pool size is conserved — the invariant the transaction fault tests
  assert under crashes and lying participants.

Sharded clusters route operations by the tuple *name* (first field), so
the single-name workloads above would land entirely on one shard.  The
``spread`` parameter (on the storm, burst and kv builders) derives a
family of names — ``DECISION-0`` … ``DECISION-{spread-1}`` — from the base
name, spreading the load across shards while keeping every name concrete
(routable).  ``spread=1`` (the default) preserves the original
single-name workloads byte-for-byte.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable

from repro.sim.clients import (
    ClientProgram,
    Pause,
    ok_value,
    op_cas,
    op_in,
    op_inp,
    op_out,
    op_rdp,
    op_transfer,
)
from repro.tuples import ANY, Formal, entry, template

__all__ = [
    "consensus_storm",
    "lock_contention",
    "barrier_rendezvous",
    "kv_readwrite",
    "queue_producer_consumer",
    "queue_consumers",
    "write_burst",
    "multi_shard_kv",
    "wildcard_probe_mix",
    "escrow_transfers",
]

Workload = list[tuple[Hashable, Callable[[], ClientProgram]]]


def _spread_name(base: str, index: int, spread: int) -> str:
    """The ``index``-th name of a ``spread``-wide family (``spread=1`` =
    the base name itself, preserving pre-sharding workloads exactly)."""
    return base if spread <= 1 else f"{base}-{index % spread}"


def consensus_storm(
    n_clients: int, *, decision_name: str = "DECISION", spread: int = 1
) -> Workload:
    """All clients race to decide one value; every client returns the winner.

    With ``spread > 1`` the clients split into ``spread`` independent races
    (one per decision name), so the workload exercises every shard of a
    cluster routing those names to distinct groups.
    """

    def factory(index: int) -> Callable[[], ClientProgram]:
        name = _spread_name(decision_name, index, spread)

        def program() -> ClientProgram:
            yield op_cas(template(name, Formal("d")), entry(name, f"v{index}"))
            payload = yield op_rdp(template(name, Formal("d")))
            decided = ok_value(payload)
            return decided.fields[1] if decided is not None else None

        return program

    return [(f"storm-{index:02d}", factory(index)) for index in range(n_clients)]


def lock_contention(
    n_clients: int,
    *,
    rounds: int = 2,
    poll_interval: float = 7.0,
    max_polls: int = 400,
) -> Workload:
    """One mutex token, ``n_clients`` workers each taking it ``rounds`` times.

    The token is a ``("LOCK", "free")`` tuple seeded by an extra ``lock-init``
    client; acquisition is an atomic ``inp`` (only one contender gets the
    tuple), release puts it back.  Each successful critical section leaves a
    ``("HELD", worker, round)`` marker, so a run is checkable: exactly
    ``n_clients * rounds`` markers and one free token at the end.
    """

    def init_factory() -> ClientProgram:
        yield op_out(entry("LOCK", "free"))
        return "seeded"

    def worker_factory(index: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            acquired = 0
            polls = 0
            while acquired < rounds:
                payload = yield op_inp(template("LOCK", "free"))
                if ok_value(payload) is None:
                    polls += 1
                    if polls > max_polls:
                        return ("starved", acquired)
                    # Deterministic per-worker backoff de-synchronises retries.
                    yield Pause(poll_interval + (index % 5))
                    continue
                yield op_out(entry("HELD", f"worker-{index:02d}", acquired))
                acquired += 1
                yield op_out(entry("LOCK", "free"))
            return ("done", acquired)

        return program

    workload: Workload = [("lock-init", init_factory)]
    workload.extend(
        (f"worker-{index:02d}", worker_factory(index)) for index in range(n_clients)
    )
    return workload


def barrier_rendezvous(
    n_clients: int,
    *,
    poll_interval: float = 9.0,
    max_polls: int = 400,
) -> Workload:
    """Each client announces arrival, then waits to see every other arrival."""

    names = [f"peer-{index:02d}" for index in range(n_clients)]

    def factory(index: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            yield op_out(entry("ARRIVE", names[index]))
            seen = 0
            polls = 0
            for other in names:
                while True:
                    payload = yield op_rdp(template("ARRIVE", other))
                    if ok_value(payload) is not None:
                        seen += 1
                        break
                    polls += 1
                    if polls > max_polls:
                        return ("gave-up", seen)
                    yield Pause(poll_interval + (index % 3))
            return ("through", seen)

        return program

    return [(names[index], factory(index)) for index in range(n_clients)]


def write_burst(n_clients: int, *, ops_per_client: int = 8, spread: int = 1) -> Workload:
    """Pure write pressure: every client ``out``s a stream of fresh tuples.

    The simplest way to push a known number of requests through the
    ordering layer — used to exercise batching, checkpoint cadence and
    log-truncation bounds (every operation is a distinct consensus input,
    no polling retries).  ``spread`` fans the tuple names over a family so
    a sharded cluster spreads the burst across its groups.
    """

    def factory(index: int) -> Callable[[], ClientProgram]:
        name = _spread_name("BURST", index, spread)

        def program() -> ClientProgram:
            for step in range(ops_per_client):
                yield op_out(entry(name, f"wb-{index:02d}", step))
            return ("wrote", ops_per_client)

        return program

    return [(f"wb-{index:02d}", factory(index)) for index in range(n_clients)]


def kv_readwrite(
    n_clients: int,
    *,
    keys: int = 8,
    ops_per_client: int = 8,
    write_ratio: float = 0.5,
    seed: int = 0,
    spread: int = 1,
) -> Workload:
    """A read/write mix over a small keyspace of ``("KV", key, ...)`` tuples.

    Writers ``out`` fresh versions; readers ``rdp`` any version of a key.
    The operation mix is drawn from a per-client RNG seeded from ``seed``,
    so the workload itself is fully deterministic.  With ``spread > 1``
    the tuple name is derived from the key (``KV-{key % spread}``), giving
    each key a stable home shard on a sharded cluster.
    """

    def factory(index: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            rng = random.Random((seed << 16) ^ index)
            reads = writes = 0
            for step in range(ops_per_client):
                key = rng.randrange(keys)
                name = _spread_name("KV", key, spread)
                if rng.random() < write_ratio:
                    yield op_out(entry(name, key, f"kv-{index:02d}", step))
                    writes += 1
                else:
                    yield op_rdp(template(name, key, ANY, ANY))
                    reads += 1
            return ("mixed", reads, writes)

        return program

    return [(f"kv-{index:02d}", factory(index)) for index in range(n_clients)]


def queue_producer_consumer(
    producers: int,
    consumers: int,
    *,
    items_per_producer: int = 4,
    poll_interval: float = 5.0,
    max_polls: int = 800,
) -> Workload:
    """Producers ``out`` jobs; consumers ``inp`` them until their quota is met.

    Quotas partition the total job count exactly, so in a fault-free (or
    ``f``-bounded) run the consumed total equals the produced total — the
    conservation law the workload tests assert.
    """

    total = producers * items_per_producer
    base, remainder = divmod(total, consumers)
    quotas = [base + (1 if index < remainder else 0) for index in range(consumers)]

    def producer_factory(index: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            for item in range(items_per_producer):
                yield op_out(entry("JOB", f"prod-{index:02d}", item))
            return ("produced", items_per_producer)

        return program

    def consumer_factory(index: int, quota: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            got = 0
            polls = 0
            while got < quota:
                payload = yield op_inp(template("JOB", ANY, ANY))
                if ok_value(payload) is None:
                    polls += 1
                    if polls > max_polls:
                        return ("consumed", got)
                    yield Pause(poll_interval + (index % 4))
                    continue
                got += 1
            return ("consumed", got)

        return program

    workload: Workload = [
        (f"prod-{index:02d}", producer_factory(index)) for index in range(producers)
    ]
    workload.extend(
        (f"cons-{index:02d}", consumer_factory(index, quotas[index]))
        for index in range(consumers)
    )
    return workload


def queue_consumers(
    producers: int,
    consumers: int,
    *,
    items_per_producer: int = 4,
    burst_pause: float = 60.0,
    timeout: float = 4_000.0,
    poll_interval: float = 10.0,
) -> Workload:
    """*Blocking* consumers fed by bursty producers — the wake-latency load.

    Unlike :func:`queue_producer_consumer` (whose consumers spin on
    non-blocking ``inp`` with explicit pauses), consumers here issue
    blocking ``in`` steps and genuinely sleep between jobs; producers
    separate their ``out``s by ``burst_pause`` virtual ms, so the space is
    empty most of the time and every job's consumption starts with a
    *wake-up*.  This is exactly the regime the ``repro.notify`` push
    channel targets: with notifications enabled a blocked consumer wakes
    one round trip after the insert, while the pure polling fallback
    (``Scenario.notify = False``) waits out the rest of its current
    backed-off poll interval.  The benchmark of record runs this workload
    in push mode inside ``escrow_sharded_sim`` (``wake_p50_vms``).

    Quotas partition the total job count exactly, so a fault-free run
    conserves jobs: consumed total == produced total.
    """
    total = producers * items_per_producer
    base, remainder = divmod(total, consumers)
    quotas = [base + (1 if index < remainder else 0) for index in range(consumers)]

    def producer_factory(index: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            for item in range(items_per_producer):
                # Stagger before each item (not after the last) so every
                # insert lands while consumers are already blocked.
                yield Pause(burst_pause + (index % 3))
                yield op_out(entry("TASK", f"qp-{index:02d}", item))
            return ("produced", items_per_producer)

        return program

    def consumer_factory(index: int, quota: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            got = 0
            while got < quota:
                payload = yield op_in(
                    template("TASK", ANY, ANY),
                    timeout=timeout,
                    poll_interval=poll_interval,
                )
                if ok_value(payload) is None:
                    return ("starved", got)
                got += 1
            return ("consumed", got)

        return program

    workload: Workload = [
        (f"qp-{index:02d}", producer_factory(index)) for index in range(producers)
    ]
    workload.extend(
        (f"qc-{index:02d}", consumer_factory(index, quotas[index]))
        for index in range(consumers)
    )
    return workload


def multi_shard_kv(
    n_clients: int,
    *,
    shards: int = 2,
    keys: int = 8,
    ops_per_client: int = 8,
    write_ratio: float = 0.5,
    locality: float = 1.0,
    seed: int = 0,
) -> Workload:
    """A kv mix over ``shards`` name families, with tunable locality.

    Each client has a *home* name family ``KV-{index % shards}``;
    ``locality`` is the probability an operation stays home (1.0 = fully
    partitioned traffic, the best case for a sharded cluster; lower values
    send a fraction of each client's operations to other shards' names,
    modelling a workload whose partitioning is imperfect — the operations
    still route, they just land on remote groups).

    Names are concrete throughout, so the workload runs unchanged on a
    single-group deployment (where the names all share one space).
    """
    if shards < 1:
        raise ValueError("multi_shard_kv needs at least one shard name family")

    def factory(index: int) -> Callable[[], ClientProgram]:
        home = index % shards

        def program() -> ClientProgram:
            rng = random.Random((seed << 20) ^ (index * 7919))
            reads = writes = 0
            for step in range(ops_per_client):
                if shards == 1 or rng.random() < locality:
                    family = home
                else:
                    family = rng.randrange(shards)
                name = f"KV-{family}"
                key = rng.randrange(keys)
                if rng.random() < write_ratio:
                    yield op_out(entry(name, key, f"ms-{index:02d}", step))
                    writes += 1
                else:
                    yield op_rdp(template(name, key, ANY, ANY))
                    reads += 1
            return ("sharded-mix", reads, writes)

        return program

    return [(f"ms-{index:02d}", factory(index)) for index in range(n_clients)]


def wildcard_probe_mix(
    n_clients: int,
    *,
    spread: int = 4,
    ops_per_client: int = 6,
    locality: float = 1.0,
    seed: int = 0,
) -> Workload:
    """A read mix with a *match-locality* knob for the scatter-gather cost.

    Each client first ``out``s one ``("ITEM-{home}", index, step)`` tuple
    to its home name family, then issues ``ops_per_client`` reads.  With
    probability ``locality`` a read *knows* the tuple name it wants
    (a concrete ``rdp``, routed to one replica group); otherwise it only
    knows the payload shape and issues a **wildcard-name** ``rdp``
    (``template(ANY, ANY, ANY)``), which a sharded cluster must
    scatter-gather across every group.  ``locality=1.0`` is the fully
    partitioned best case; lowering it converts reads into cross-shard
    probes one for one, so the sweep in ``bench_sim_scenarios.py`` shows
    the read cost of imperfect partitioning directly.

    Names stay concrete on the write path, so the workload also runs on a
    single replica group (where wildcard probes are ordinary reads).
    """
    if spread < 1:
        raise ValueError("wildcard_probe_mix needs at least one name family")

    def factory(index: int) -> Callable[[], ClientProgram]:
        home = index % spread

        def program() -> ClientProgram:
            rng = random.Random((seed << 24) ^ (index * 104729))
            yield op_out(entry(f"ITEM-{home}", index, 0))
            local = wild = 0
            for _ in range(ops_per_client):
                if rng.random() < locality:
                    family = rng.randrange(spread)
                    yield op_rdp(template(f"ITEM-{family}", ANY, ANY))
                    local += 1
                else:
                    yield op_rdp(template(ANY, ANY, ANY))
                    wild += 1
            return ("probed", local, wild)

        return program

    return [(f"wp-{index:02d}", factory(index)) for index in range(n_clients)]


def escrow_transfers(
    n_clients: int,
    *,
    families: int = 2,
    tokens: int = 8,
    transfers_per_client: int = 4,
    seed: int = 0,
) -> Workload:
    """Clients shuffle a fixed token pool between ``families`` name families.

    An ``escrow-init`` client seeds ``tokens`` tuples spread round-robin
    over the families ``TOKEN-0`` … ``TOKEN-{families-1}``.  Each client
    then issues ``transfers_per_client`` atomic ``transfer`` steps, every
    one consuming a token from a randomly chosen source family and
    inserting a fresh token into a randomly chosen destination family —
    a cross-shard atomic commit whenever the two families route to
    different replica groups.  A transfer whose source family happens to
    be empty aborts cleanly (``no-match``) and changes nothing.

    The invariant: committed or aborted, crashed coordinators or lying
    participants, the total number of ``TOKEN-*`` tuples in the merged
    snapshot always equals ``tokens``.  Programs return
    ``("transferred", committed, aborted)`` so a run is also checkable
    from the client side.
    """
    if families < 1:
        raise ValueError("escrow_transfers needs at least one name family")

    def init_factory() -> ClientProgram:
        for token in range(tokens):
            yield op_out(entry(f"TOKEN-{token % families}", "init", token))
        return ("seeded", tokens)

    def factory(index: int) -> Callable[[], ClientProgram]:
        def program() -> ClientProgram:
            rng = random.Random((seed << 28) ^ (index * 15485863))
            committed = aborted = 0
            for step in range(transfers_per_client):
                source = rng.randrange(families)
                destination = rng.randrange(families)
                payload = yield op_transfer(
                    template(f"TOKEN-{source}", ANY, ANY),
                    entry(f"TOKEN-{destination}", f"et-{index:02d}", step),
                )
                outcome = ok_value(payload)
                if isinstance(outcome, tuple) and outcome and outcome[0] == "committed":
                    committed += 1
                else:
                    aborted += 1
            return ("transferred", committed, aborted)

        return program

    workload: Workload = [("escrow-init", init_factory)]
    workload.extend((f"et-{index:02d}", factory(index)) for index in range(n_clients))
    return workload
