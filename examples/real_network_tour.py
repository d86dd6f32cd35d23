#!/usr/bin/env python3
"""Real-network tour: the simulated deployment, now on actual sockets.

Everything so far ran on the deterministic virtual-time simulation.
``repro.net`` keeps the exact same protocol stack — PBFT ordering,
policy-enforcing replicas, voting clients, the sharded cluster, the
unified ``connect()`` API — and swaps the substrate:

1. the **asyncio loopback** transport: real event-loop reactors on real
   threads, wall-clock timers, in-memory delivery;
2. the **TCP** transport: every node a listening socket on localhost,
   length-prefixed binary envelopes whose payloads are positional JSON
   trees, authenticated by a MAC over the payload bytes;
3. a **sharded cluster over TCP** with one reactor per replica group —
   the parallelism the sharding layer promises, made real;
4. the **asyncio bridge**: awaiting a tuple-space operation from a
   coroutine.

The lock program below is byte-for-byte the one from
``examples/unified_api_tour.py`` — that is the point.

Run it with::

    python examples/real_network_tour.py [--transport asyncio|tcp|all]
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import connect  # noqa: E402
from repro.errors import OperationTimeoutError  # noqa: E402
from repro.policy import AccessPolicy, Rule  # noqa: E402
from repro.tuples import ANY, entry, template  # noqa: E402


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="tour-open"
    )


def lock_program(space, timeout_ms: float = 1_000.0) -> str:
    """One mutex token, two workers — written once, run on any substrate."""
    alice, bob = space.bind("alice"), space.bind("bob")
    alice.out(entry("LOCK", "free"))
    assert alice.inp(template("LOCK", "free")) is not None   # alice acquires
    assert bob.inp(template("LOCK", "free")) is None         # bob must wait
    alice.out(entry("LOCK", "free"))                         # alice releases
    token = bob.in_(template("LOCK", ANY), timeout=timeout_ms)
    try:
        bob.rd(template("NEVER", ANY), timeout=250.0)
    except OperationTimeoutError:
        timeout_ok = True
    else:
        timeout_ok = False
    return f"handover={token.fields[1]!r}, uniform-timeout={timeout_ok}"


def demo_lock_on(transport: str, backend: str, **kwargs) -> None:
    started = time.monotonic()
    with connect(backend, policy=open_policy(), transport=transport, **kwargs) as space:
        outcome = lock_program(space)
        stats = space.network.statistics
    print(
        f"  {backend:10} on {transport:8} -> {outcome}  "
        f"[{stats['delivered']:.0f} msgs, "
        f"{(time.monotonic() - started) * 1000:.0f} ms wall]"
    )


def demo_per_group_reactors(transport: str) -> None:
    with connect(
        "sharded", policy=open_policy(), shards=2, transport=transport
    ) as space:
        net = space.network
        groups = {
            shard: net.reactor_of(f"shard-{shard}:replica-0").name
            for shard in range(2)
        }
        view = space.bind("p1")
        view.out(entry("A", 1))
        view.out(entry("B", 2))
        found = view.rdp(template(ANY, ANY))
        print(f"  reactor per group: {groups}")
        print(f"  cross-shard wildcard rdp over {transport}: {found!r}")


def demo_asyncio_bridge() -> None:
    with connect("replicated", policy=open_policy(), transport="asyncio") as space:

        async def producer_consumer() -> tuple:
            view = space.bind("aio")
            out_done = await view.submit_out(entry("EVENT", 42)).as_asyncio()
            taken = await view.submit_inp(template("EVENT", ANY)).as_asyncio()
            return out_done, taken

        out_done, taken = asyncio.run(producer_consumer())
        print(f"  awaited out -> {out_done!r}")
        print(f"  awaited inp -> {taken!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--transport", choices=("asyncio", "tcp", "all"), default="all"
    )
    args = parser.parse_args()
    transports = ("asyncio", "tcp") if args.transport == "all" else (args.transport,)

    print("== 1. The unified-API lock program on real substrates ==")
    for transport in transports:
        demo_lock_on(transport, "replicated", f=1)
        demo_lock_on(transport, "sharded", shards=2)
    print()

    print("== 2. Sharded cluster: one reactor per replica group ==")
    demo_per_group_reactors(transports[-1])
    print()

    print("== 3. Awaiting tuple-space futures from asyncio ==")
    demo_asyncio_bridge()
    print()
    print("Done. Transport docs: src/repro/net/, README 'Architecture & transports'.")


if __name__ == "__main__":
    main()
