"""Micro timing loops: one layer's public function over fixed inputs.

Each loop calls the function a fixed number of times, several rounds
over, and reports the median round in microseconds per call — no
deployment, no network, no seed.  These are the numbers a single-layer
optimisation moves first; which end-to-end metric should follow, and on
which workload, is tabulated in ``README.md``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

from repro.cluster.routing import ExplicitRouting, ShardMap
from repro.net import codec
from repro.notify.waiters import WaiterTable
from repro.peo.peats import PEATS
from repro.policy.invocation import Invocation
from repro.policy.library import (
    ANN,
    DECISION,
    PROPOSE,
    SEQ,
    strong_consensus_policy,
    wait_free_universal_policy,
)
from repro.policy.monitor import ReferenceMonitor
from repro.replication.crypto import (
    KeyStore,
    MessageAuthenticator,
    canonical_bytes,
    digest,
)
from repro.replication.messages import (
    Batch,
    ClientReply,
    ClientRequest,
    PrePrepare,
    Prepare,
    authenticate_request,
)
from repro.sim import open_sim_policy
from repro.tspace.augmented import AugmentedTupleSpace
from repro.tuples import ANY, Formal, entry, matches, template

from benchmarks.ladder.workloads import Sample

__all__ = ["micro_metrics", "framing"]

#: Timed rounds per loop; the reported value is their median.
ROUNDS = 5

_REPLICAS = tuple(f"replica-{index}" for index in range(4))


def framing() -> str:
    """The wire framing this interpreter uses: msgpack when installed."""
    return "msgpack" if codec.encode_payload(0)[:1] == b"M" else "json"


def _time_us(call: Callable[[], Any], calls: int) -> Sample:
    """Median over :data:`ROUNDS` of the mean microseconds per ``call``."""
    rounds = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        rounds.append((time.perf_counter() - started) / calls * 1e6)
    quartiles = statistics.quantiles(rounds, n=4)
    return Sample(statistics.median(rounds), ROUNDS * calls, quartiles[2] - quartiles[0])


def _seq_space(size: int) -> AugmentedTupleSpace:
    return AugmentedTupleSpace(entry(SEQ, position, f"inv-{position}") for position in range(size))


def _protocol_messages() -> dict[str, Any]:
    """A real request, a one-request PRE-PREPARE, a vote and a reply."""
    authenticator = MessageAuthenticator(KeyStore())
    request = authenticate_request(
        ClientRequest(
            client="c0",
            request_id=7,
            operation="rdp",
            arguments=(template("KV", 17, ANY),),
        ),
        authenticator,
        _REPLICAS,
    )
    batch = Batch(requests=(request,))
    batch_digest = digest(batch)
    result = ("OK", entry("KV", 17, "value-17"))
    return {
        "authenticator": authenticator,
        "request": request,
        "preprepare": PrePrepare(
            view=0, sequence=9, batch_digest=batch_digest, batch=batch, primary=_REPLICAS[0]
        ),
        "vote": Prepare(view=0, sequence=9, batch_digest=batch_digest, replica=_REPLICAS[1]),
        "reply": ClientReply(
            replica=_REPLICAS[1],
            view=0,
            request_key=request.key,
            result_digest=digest(result),
            result=result,
        ),
    }


def micro_metrics(scale: float = 1.0) -> dict[str, Sample]:
    """Every micro metric; ``scale`` shortens the loops (the smoke test
    runs them at 1 %)."""

    def calls(full: int) -> int:
        return max(1, int(full * scale))

    metrics: dict[str, Sample] = {}

    # tuples
    stored = entry(SEQ, 7, "inv-7")
    pattern = template(SEQ, 7, Formal("inv"))
    metrics["tuples.match_us"] = _time_us(lambda: matches(stored, pattern), calls(10_000))

    # tspace: 1024 same-name tuples, the shape Fig. 8's log grows into.
    space = _seq_space(1024)
    last = template(SEQ, 1023, Formal("inv"))
    absent = template(SEQ, 5000, Formal("inv"))
    metrics["tspace.rdp_hit_last_us"] = _time_us(lambda: space.rdp(last), calls(15))
    metrics["tspace.rdp_miss_us"] = _time_us(lambda: space.rdp(absent), calls(15))
    oldest = template(SEQ, ANY, ANY)
    fresh = entry("W", "c0", 1)
    sink = AugmentedTupleSpace()
    metrics["tspace.out_us"] = _time_us(lambda: sink.out(fresh), calls(5_000))
    # Takes the oldest tuple and puts it back, so the space stays at 1024;
    # the out is about a hundredth of the inp it rides with.
    metrics["tspace.inp_us"] = _time_us(lambda: space.out(space.inp(oldest)), calls(100))

    # policy: ReferenceMonitor.authorize against a 256-tuple state.
    read = Invocation("p0", "rdp", (template("KV", 17, ANY),))
    open_monitor = ReferenceMonitor(open_sim_policy())
    state = _seq_space(256)
    metrics["policy.authorize_open_us"] = _time_us(
        lambda: open_monitor.authorize(read, state), calls(5_000)
    )
    voters = tuple(f"p{index}" for index in range(256))
    fig4 = ReferenceMonitor(strong_consensus_policy(voters, 1))
    proposals = AugmentedTupleSpace(entry(PROPOSE, voter, 1) for voter in voters)
    decide = Invocation(
        "p0",
        "cas",
        (
            template(DECISION, Formal("v"), ANY),
            entry(DECISION, 1, frozenset(voters[-2:])),
        ),
    )
    metrics["policy.authorize_fig4_us"] = _time_us(
        lambda: fig4.authorize(decide, proposals), calls(40)
    )
    processes = ("p0", "p1", "p2", "p3")
    fig8 = ReferenceMonitor(wait_free_universal_policy(processes))
    log = AugmentedTupleSpace(
        [entry(SEQ, position, f"inv-{position}") for position in range(1, 256)]
        + [entry(ANN, 0, "inv-announced")]
    )
    thread = Invocation(
        "p1",
        "cas",
        (template(SEQ, 256, Formal("einv")), entry(SEQ, 256, "inv-announced")),
    )
    metrics["policy.authorize_fig8_us"] = _time_us(lambda: fig8.authorize(thread, log), calls(40))

    # peo: the enforced operation against the raw space it guards.
    peats = PEATS(open_sim_policy(), initial=_seq_space(256).snapshot())
    raw = _seq_space(256)
    probe = template(SEQ, 0, Formal("inv"))
    enforced = _time_us(
        lambda: peats.execute_operation("rdp", (probe,), process="p0"), calls(5_000)
    )
    bare = _time_us(lambda: raw.rdp(probe), calls(5_000))
    metrics["peo.execute_us"] = enforced
    metrics["peo.enforce_factor"] = Sample(enforced.value / bare.value, enforced.n)

    # crypto
    messages = _protocol_messages()
    authenticator = messages["authenticator"]
    request, preprepare = messages["request"], messages["preprepare"]
    keystore = KeyStore()
    tag = authenticator.mac(_REPLICAS[0], _REPLICAS[1], preprepare)
    metrics["crypto.canonical_us"] = _time_us(lambda: canonical_bytes(preprepare), calls(1_000))
    metrics["crypto.digest_us"] = _time_us(lambda: digest(request), calls(1_000))
    metrics["crypto.mac_us"] = _time_us(
        lambda: authenticator.mac(_REPLICAS[0], _REPLICAS[1], preprepare), calls(1_000)
    )
    metrics["crypto.verify_us"] = _time_us(
        lambda: authenticator.verify(_REPLICAS[0], _REPLICAS[1], preprepare, tag), calls(1_000)
    )
    metrics["crypto.shared_key_us"] = _time_us(
        lambda: keystore.shared_key(_REPLICAS[0], _REPLICAS[1]), calls(5_000)
    )

    # codec: per message class, both directions, and the frame it makes.
    for label in ("request", "preprepare", "vote", "reply"):
        message = messages[label]
        blob = codec.encode_payload(message)
        if label != "reply":
            metrics[f"codec.encode_{label}_us"] = _time_us(
                lambda: codec.encode_payload(message), calls(500)
            )
            metrics[f"codec.decode_{label}_us"] = _time_us(
                lambda: codec.decode_payload(blob), calls(500)
            )
        frame = codec.encode_frame(_REPLICAS[0], _REPLICAS[1], blob, tag)
        metrics[f"codec.frame_bytes_{label}"] = Sample(float(len(frame)))

    # cluster
    shard_map = ShardMap(2, ExplicitRouting({"TOKEN-0": 0, "TOKEN-1": 1, "TASK": 1}))
    take = (template("TOKEN-1", ANY, ANY),)
    metrics["cluster.route_us"] = _time_us(lambda: shard_map.route("inp", take), calls(20_000))

    # notify: one insert against 256 armed waiters.
    table = WaiterTable()
    for index in range(256):
        table.register(f"c{index % 8}", index, template("TASK", index, ANY), "in")
    inserted = entry("TASK", 255, "job")
    metrics["notify.match_us"] = _time_us(lambda: table.matching(inserted), calls(50))

    return metrics
