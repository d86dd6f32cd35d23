"""Malformed arguments never reach the policy or the tuple space.

A replica refuses a request whose arguments do not have the shape of its
operation with ``(PEATS-DENIED, "malformed <op> arguments")`` — before
the reference monitor sees it — so one faulty client cannot wedge a
replica group by making every correct replica raise at the same
sequence number.  Above the wire, :class:`~repro.api.space.Space` runs
the same check before anything is sent, so every backend answers a
malformed call with :class:`~repro.errors.TupleSpaceError` at the
caller.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.errors import TupleSpaceError
from repro.peo.base import DENIED
from repro.policy import AccessPolicy, Rule
from repro.tuples import ANY, Formal, entry, template

T = template("x", ANY)

#: The requests a faulty client can order: (operation, arguments).
MALFORMED = [
    ("out", ()),
    ("inp", (None,)),
    ("cas", (T, ("x",))),
    ("txn_exec", (("garbage",),)),
    ("txn_exec", ((("in", 5),),)),
    ("txn_vote", (("mallory", 0), 0, 0, ("garbage",))),
    ("txn_vote", ((), 0, 0, (("out", entry("x", 1)),))),
    ("txn_prepare", ((), ())),
]


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="malformed-test"
    )


@pytest.mark.parametrize("transport", [None, "asyncio"], ids=["sim", "loopback"])
@pytest.mark.parametrize("operation,arguments", MALFORMED)
def test_a_malformed_request_is_refused_and_the_group_keeps_serving(
    transport, operation, arguments
):
    with connect("replicated", policy=open_policy(), f=1, transport=transport) as space:
        space.out(entry("k", 1), process="honest")
        pending = space.service.client("mallory").submit(operation, arguments)
        space.network.settle(pending, 5_000.0)
        assert pending.result() == (DENIED, f"malformed {operation} arguments")
        assert space.rdp(template("k", Formal("v")), process="honest") == entry("k", 1)


BACKENDS = {
    "local": {},
    "replicated": {"f": 1},
    "sharded": {"f": 1, "shards": 2},
}

#: One malformed call per tuple-space operation; a plain tuple is not a
#: template (nor an entry).
MALFORMED_CALLS = {
    "out": lambda space: space.out(("X", 1), process="p"),
    "rdp": lambda space: space.rdp(("X", 1), process="p"),
    "inp": lambda space: space.inp(("X", 1), process="p"),
    "cas": lambda space: space.cas(("X", 1), entry("X", 1), process="p"),
    "rd": lambda space: space.rd(("X", 1), timeout=1.0, process="p"),
    "in": lambda space: space.in_(("X", 1), timeout=1.0, process="p"),
    "submit_rdp": lambda space: space.submit_rdp(("X", 1), process="p"),
    "submit_in": lambda space: space.submit_in(("X", 1), process="p"),
    "watch": lambda space: space.watch(("X", 1), process="p"),
}


@pytest.mark.parametrize("call", sorted(MALFORMED_CALLS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_backend_raises_tuple_space_error_at_the_caller(backend, call):
    space = connect(backend, policy=open_policy(), **BACKENDS[backend])
    with pytest.raises(TupleSpaceError, match="malformed"):
        MALFORMED_CALLS[call](space)
    space.out(entry("X", 1), process="p")
    assert space.rdp(template("X", ANY), process="p") == entry("X", 1)
