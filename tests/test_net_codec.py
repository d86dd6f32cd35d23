"""The wire codec must round-trip every protocol payload *exactly*.

Exactness here is stronger than ``==``: the ordering protocol digests
payloads with the pickle-based :func:`repro.replication.crypto.digest`,
and the client MAC vector is verified by replicas over the *decoded*
request, so the decoded graph must produce the same digest/MAC as the
original.  These tests pin both properties for every message class and
every tuple-space value kind, plus the frame layer's safety rails
(unknown classes, malformed envelopes, oversized frames), the golden
bytes of the format, and — by property — that no input makes a decoder
raise anything but :class:`~repro.net.codec.CodecError`.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import TcpTransport, codec
from repro.replication.crypto import KeyStore, MessageAuthenticator, digest
from repro.replication.messages import (
    Batch,
    CancelWaiter,
    Checkpoint,
    ClientReply,
    ClientRequest,
    Commit,
    NewView,
    Notify,
    PrePrepare,
    Prepare,
    RegisterWaiter,
    StateRequest,
    StateResponse,
    TxnAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
    ViewChange,
    authenticate_request,
    null_batch,
    request_auth_payload,
)
from repro.tuples import ANY, Entry, Formal, Template, entry, template


def roundtrip(value):
    return codec.decode(codec.encode(value))


#: The envelope header: format byte, then sender, receiver and payload
#: lengths.
ENVELOPE = ">cHHI"


def envelope(sender: bytes, receiver: bytes, payload: bytes, mac: bytes) -> bytes:
    """A frame body assembled field by field, bypassing the encoder."""
    header = struct.pack(ENVELOPE, b"E", len(sender), len(receiver), len(payload))
    return header + sender + receiver + payload + mac


# ----------------------------------------------------------------------
# Plain data and tuple-space values
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        3.5,
        "text",
        b"\x00\xffbytes",
        (1, "two", None),
        [1, [2, (3,)]],
        {"a": 1, "b": (2, 3)},
        {1: "int-key", (2, 3): "tuple-key"},
        (),
        [],
        {},
    ],
)
def test_plain_data_roundtrips_with_types(value):
    decoded = roundtrip(value)
    assert decoded == value
    assert type(decoded) is type(value)


def test_container_types_distinguished():
    assert roundtrip((1, 2)) == (1, 2) and isinstance(roundtrip((1, 2)), tuple)
    assert roundtrip([1, 2]) == [1, 2] and isinstance(roundtrip([1, 2]), list)


def test_dict_insertion_order_preserved():
    ordered = {"z": 1, "a": 2, "m": 3}
    assert list(roundtrip(ordered)) == ["z", "a", "m"]


@pytest.mark.parametrize(
    "value",
    [
        entry("LOCK", "free"),
        entry("N", 1, 2.5, "x"),
        template("LOCK", ANY),
        template(ANY, Formal("v")),
        template("T", Formal("n", int), Formal("s", str)),
    ],
)
def test_tuple_space_values_roundtrip(value):
    decoded = roundtrip(value)
    assert decoded == value
    assert type(decoded) is type(value)
    assert digest(decoded) == digest(value)


def test_wildcard_stays_singleton():
    decoded = roundtrip(template(ANY, ANY))
    assert decoded.fields[0] is ANY


def test_unsupported_formal_type_rejected():
    class Custom:
        pass

    with pytest.raises(codec.CodecError):
        codec.encode(template("T", Formal("x", Custom)))


def test_unsupported_object_rejected():
    with pytest.raises(codec.CodecError):
        codec.encode(object())


# ----------------------------------------------------------------------
# Protocol messages
# ----------------------------------------------------------------------


def sample_request() -> ClientRequest:
    return ClientRequest(
        client="alice",
        request_id=3,
        operation="cas",
        arguments=(template("D", Formal("v")), entry("D", 7)),
        auth=(("replica-0", "aa"), ("replica-1", "bb")),
    )


def sample_messages():
    request = sample_request()
    batch = Batch(requests=(request, null_batch(5).requests[0]))
    return [
        request,
        batch,
        ClientReply(
            replica="replica-0",
            view=1,
            request_key=("alice", 3),
            result_digest="d" * 64,
            result=("OK", entry("D", 7)),
        ),
        PrePrepare(view=0, sequence=4, batch_digest=digest(batch), batch=batch, primary="replica-0"),
        Prepare(view=0, sequence=4, batch_digest="x", replica="replica-1"),
        Commit(view=0, sequence=4, batch_digest="x", replica="replica-2"),
        Checkpoint(sequence=8, state_digest="s", replica="replica-3"),
        StateRequest(sequence=8, replica="replica-1"),
        StateResponse(
            sequence=8,
            state_digest="s",
            state=((entry("D", 7),), (("alice", (3, ("OK", None))),)),
            proof=(Checkpoint(sequence=8, state_digest="s", replica="replica-0"),),
            replica="replica-0",
            prepared=((9, 0, batch, True),),
        ),
        ViewChange(
            new_view=2,
            replica="replica-1",
            last_executed=8,
            prepared={9: (0, batch)},
            highest_sequence=9,
            stable_checkpoint=8,
            checkpoint_proof=(Checkpoint(sequence=8, state_digest="s", replica="replica-0"),),
        ),
        NewView(
            view=2,
            primary="replica-2",
            reproposals={9: batch},
            stable_checkpoint=8,
            checkpoint_proof=(),
        ),
    ]


@pytest.mark.parametrize("message", sample_messages(), ids=lambda m: type(m).__name__)
def test_protocol_messages_roundtrip_and_digest_stable(message):
    decoded = roundtrip(message)
    assert decoded == message
    assert type(decoded) is type(message)
    assert digest(decoded) == digest(message)


def test_client_mac_vector_survives_the_wire():
    """A replica must be able to verify the client's MAC vector over the
    *decoded* request — the property that lets backups authenticate
    requests relayed inside a primary's PRE-PREPARE batch."""
    authenticator = MessageAuthenticator(KeyStore())
    request = ClientRequest(
        client="alice", request_id=1, operation="out", arguments=(entry("JOB", 1),)
    )
    request = authenticate_request(request, authenticator, ("replica-0", "replica-1"))
    decoded = roundtrip(request)
    payload = request_auth_payload(decoded)
    for replica_id, mac in decoded.auth:
        assert authenticator.verify("alice", replica_id, payload, mac)


def test_unknown_message_class_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode({"__dc": "EvilMessage", "f": {}})
    # The positional format's equivalent: a class code past the registry.
    past_the_registry = 16 + len(codec.MESSAGE_CLASSES)
    with pytest.raises(codec.CodecError):
        codec.decode([past_the_registry])
    with pytest.raises(codec.CodecError):
        codec.decode_payload(b"P[%d]" % past_the_registry)


def test_unknown_tag_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode({"__surprise": 1})
    # Unknown type codes (the gap 8-15, negative, non-integer, missing)
    # and a JSON object anywhere in the tree.
    for tree in ([8], [15], [-1], ["0"], [[0]], [], [0, {"__surprise": 1}], (0, 1)):
        with pytest.raises(codec.CodecError):
            codec.decode(tree)
    for blob in (b"P[8]", b"P[15,1]", b"P[]", b'P{"__surprise":1}', b'P[0,{"a":1}]'):
        with pytest.raises(codec.CodecError):
            codec.decode_payload(blob)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def test_frame_roundtrip_and_mac_over_bytes():
    authenticator = MessageAuthenticator(KeyStore())
    payload = sample_request()
    payload_bytes = codec.encode_payload(payload)
    mac = authenticator.mac("alice", "replica-0", payload_bytes)
    frame = codec.encode_frame("alice", "replica-0", payload_bytes, mac)
    (length,) = struct.unpack(codec.FRAME_HEADER, frame[: struct.calcsize(codec.FRAME_HEADER)])
    body = frame[struct.calcsize(codec.FRAME_HEADER) :]
    assert len(body) == length
    sender, receiver, decoded_bytes, decoded_mac = codec.decode_frame(body)
    assert (sender, receiver) == ("alice", "replica-0")
    assert authenticator.verify(sender, receiver, decoded_bytes, decoded_mac)
    assert codec.decode_payload(decoded_bytes) == payload


def test_tampered_payload_fails_mac():
    authenticator = MessageAuthenticator(KeyStore())
    payload_bytes = codec.encode_payload(("OK", 1))
    mac = authenticator.mac("a", "b", payload_bytes)
    tampered = codec.encode_payload(("OK", 2))
    assert not authenticator.verify("a", "b", tampered, mac)


def test_malformed_frame_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode_frame(b"")
    with pytest.raises(codec.CodecError):
        codec.decode_frame(b"Xjunk")
    # "J" is the only format byte defined: a well-formed body under any
    # other tag is rejected like any other malformed frame.
    well_formed = codec.encode_payload(("OK", 1))[1:]
    with pytest.raises(codec.CodecError):
        codec.decode_frame(b"M" + well_formed)
    with pytest.raises(codec.CodecError):
        codec.decode_payload(b"M" + well_formed)
    with pytest.raises(codec.CodecError):
        codec.decode_frame(b'J{"not":"an envelope"}')
    with pytest.raises(codec.CodecError):
        codec.decode_frame(b"J{this is not json")
    # The binary envelope: every declared length is checked before use.
    payload = codec.encode_payload(("OK", 1))
    good = envelope(b"salice", b"sreplica-0", payload, b"00")
    assert codec.decode_frame(good) == ("alice", "replica-0", payload, "00")
    for body in (
        good[: struct.calcsize(ENVELOPE) - 1],  # shorter than the header
        envelope(b"salice", b"sreplica-0", payload, b"")[:-1],  # payload cut short
        struct.pack(ENVELOPE, b"E", 6, 10, 2**32 - 1) + good[struct.calcsize(ENVELOPE) :],
        struct.pack(ENVELOPE, b"E", 2**16 - 1, 0, 0) + b"salice",
        envelope(b"xalice", b"sreplica-0", payload, b"00"),  # unknown endpoint tag
        envelope(b"", b"sreplica-0", payload, b"00"),  # empty endpoint
        envelope(b"j[1,1]", b"sreplica-0", payload, b"00"),  # unhashable sender
        envelope(b"j[0", b"sreplica-0", payload, b"00"),  # bad endpoint JSON
        envelope(b"s\xff", b"sreplica-0", payload, b"00"),  # endpoint not UTF-8
        envelope(b"salice", b"sreplica-0", payload, b"\xff"),  # MAC not UTF-8
    ):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(body)
    for blob in (b"", b"P", b"P[0,1] ", b"P[0,1][0]", b"P\xff", b"p[0]", b"J" + payload[1:]):
        with pytest.raises(codec.CodecError):
            codec.decode_payload(blob)


def test_deeply_nested_tree_rejected_not_crashed():
    """Pre-authentication input must fail with CodecError, never a
    RecursionError that would kill the serving task."""
    deep = {"__t": []}
    for _ in range(codec.MAX_DEPTH + 10):
        deep = {"__t": [deep]}
    with pytest.raises(codec.CodecError):
        codec.decode(deep)
    # The same attack as raw JSON bytes through the frame parser.
    blob = b"J" + b'{"__t": [' * 40_000 + b"1" + b"]}" * 40_000
    with pytest.raises(codec.CodecError):
        codec.decode_payload(blob)
    # The positional format: one level past the bound as a tree, as a
    # payload and as a frame endpoint; then 40 000 levels of raw arrays.
    positional = [0]
    for _ in range(codec.MAX_DEPTH + 1):
        positional = [0, positional]
    with pytest.raises(codec.CodecError):
        codec.decode(positional)
    nested = json.dumps(positional).encode("ascii")
    with pytest.raises(codec.CodecError):
        codec.decode_payload(b"P" + nested)
    with pytest.raises(codec.CodecError):
        codec.decode_frame(envelope(b"j" + nested, b"sreplica-0", b"P0", b"00"))
    with pytest.raises(codec.CodecError):
        codec.decode_payload(b"P" + b"[0," * 40_000 + b"1" + b"]" * 40_000)


def test_realistic_payload_depth_fits_the_bound():
    """The deepest genuine protocol message decodes fine under MAX_DEPTH."""
    batch = Batch(requests=(sample_request(),))
    deep_message = NewView(
        view=2,
        primary="replica-2",
        reproposals={9: batch},
        stable_checkpoint=8,
        checkpoint_proof=(Checkpoint(sequence=8, state_digest="s", replica="replica-0"),),
    )
    assert roundtrip(deep_message) == deep_message


# ----------------------------------------------------------------------
# The format is pinned: golden bytes per message class
# ----------------------------------------------------------------------


def golden_messages() -> dict:
    request = ClientRequest(
        "alice", 3, "rdp", (template("KV", 17, ANY, Formal("v", str)),), (("r0", "ab"),)
    )
    batch = Batch((request,))
    return {
        "ClientRequest": request,
        "ClientReply": ClientReply("r1", 0, ("alice", 3), "d1", ("OK", entry("KV", 17, 2.5))),
        "Batch": batch,
        "PrePrepare": PrePrepare(0, 9, "d2", batch, "r0"),
        "Prepare": Prepare(0, 9, "d2", "r1"),
        "Commit": Commit(0, 9, "d2", "r2"),
        "Checkpoint": Checkpoint(8, "s", "r3"),
        "StateRequest": StateRequest(8, "r1"),
        "StateResponse": StateResponse(
            8, "s", ((entry("D", 7),), [b"\x00\xff"]), (), "r0", ((9, 0, batch, True),)
        ),
        "ViewChange": ViewChange(2, "r1", 8, {9: (0, batch)}, 9, 8, ()),
        "NewView": NewView(2, "r2", {9: batch}, 8, ()),
        "RegisterWaiter": RegisterWaiter("alice", 1, template("JOB", Formal("n", int)), "in"),
        "CancelWaiter": CancelWaiter("alice", 1),
        "Notify": Notify("r0", "alice", 1, ("bob", 4), entry("JOB", 5), "d3"),
        "TxnPrepare": TxnPrepare("r0", "alice", ("alice", 0), (0, 1), 40),
        "TxnVote": TxnVote("r0", "alice", ("alice", 0), 1, "no", ("policy", None), "d4"),
        "TxnDecision": TxnDecision("r0", "alice", ("alice", 0), "abort", None),
        "TxnAck": TxnAck("r0", "alice", ("alice", 0), 1, "commit"),
    }


_REQUEST = b'[16,"alice",3,"rdp",[0,[5,"KV",17,[6],[7,"v","str"]]],[0,[0,"r0","ab"]],false]'
_BATCH = b"[18,[0," + _REQUEST + b"]]"

GOLDEN_BYTES = {
    "ClientRequest": b"P" + _REQUEST,
    "ClientReply": b'P[17,"r1",0,[0,"alice",3],"d1",[0,"OK",[4,"KV",17,2.5]]]',
    "Batch": b"P" + _BATCH,
    "PrePrepare": b'P[19,0,9,"d2",' + _BATCH + b',"r0"]',
    "Prepare": b'P[20,0,9,"d2","r1"]',
    "Commit": b'P[21,0,9,"d2","r2"]',
    "Checkpoint": b'P[22,8,"s","r3"]',
    "StateRequest": b'P[23,8,"r1"]',
    "StateResponse": b'P[24,8,"s",[0,[0,[4,"D",7]],[1,[3,"AP8="]]],[0],"r0",[0,[0,9,0,'
    + _BATCH
    + b",true]]]",
    "ViewChange": b'P[25,2,"r1",8,[2,9,[0,0,' + _BATCH + b"]],9,8,[0]]",
    "NewView": b'P[26,2,"r2",[2,9,' + _BATCH + b"],8,[0]]",
    "RegisterWaiter": b'P[27,"alice",1,[5,"JOB",[7,"n","int"]],"in"]',
    "CancelWaiter": b'P[28,"alice",1]',
    "Notify": b'P[29,"r0","alice",1,[0,"bob",4],[4,"JOB",5],"d3"]',
    "TxnPrepare": b'P[30,"r0","alice",[0,"alice",0],[0,0,1],40]',
    "TxnVote": b'P[31,"r0","alice",[0,"alice",0],1,"no",[0,"policy",null],"d4"]',
    "TxnDecision": b'P[32,"r0","alice",[0,"alice",0],"abort",null]',
    "TxnAck": b'P[33,"r0","alice",[0,"alice",0],1,"commit"]',
}


def test_golden_bytes_cover_every_registered_class():
    assert list(golden_messages()) == list(GOLDEN_BYTES) == list(codec.MESSAGE_CLASSES)


@pytest.mark.parametrize("name", list(GOLDEN_BYTES))
def test_golden_bytes_per_message_class(name):
    """Any change to these bytes is a wire-format change: every process
    of a deployment must then be upgraded together (bump the release)."""
    message = golden_messages()[name]
    assert codec.encode_payload(message) == GOLDEN_BYTES[name]
    assert same(codec.decode_payload(GOLDEN_BYTES[name]), message)


def test_golden_frame_bytes():
    payload = GOLDEN_BYTES["Prepare"]
    frame = codec.encode_frame("r1", ("shard", 0), payload, "0f")
    assert frame == (
        b"\x00\x00\x00\x2f"  # body length 47
        + b"E\x00\x03\x00\x0e\x00\x00\x00\x13"  # format, sender 3, receiver 14, payload 19
        + b"sr1"
        + b'j[0,"shard",0]'
        + payload
        + b"0f"
    )
    assert codec.decode_frame(frame[4:]) == ("r1", ("shard", 0), payload, "0f")


# ----------------------------------------------------------------------
# Round-trip property: type-exact, digest-stable, MAC-verifiable
# ----------------------------------------------------------------------


def same(a, b) -> bool:
    """Equality that also requires every node to have the same type
    (so 1, True and 1.0 differ, as do a tuple and a list)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return same(tuple(a.items()), tuple(b.items()))
    if isinstance(a, (Entry, Template)):
        return same(a.fields, b.fields)
    if isinstance(a, Formal):
        return a.name == b.name and a.type_ is b.type_
    if dataclasses.is_dataclass(a):
        names = [field.name for field in dataclasses.fields(a)]
        return same(tuple(getattr(a, n) for n in names), tuple(getattr(b, n) for n in names))
    if isinstance(a, float):
        return repr(a) == repr(b)  # keeps -0.0 apart from 0.0
    return a == b


FORMAL_TYPES = [None, int, float, str, bool, bytes, tuple, list, type(None)]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 1.0, True, -0.0]),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
HASHABLES = st.recursive(
    st.one_of(SCALARS, st.binary(max_size=6)),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
ENTRIES = st.lists(HASHABLES, min_size=1, max_size=3).map(Entry)


@st.composite
def templates(draw):
    fields = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["value", "any", "formal"]))
        if kind == "value":
            fields.append(draw(HASHABLES))
        elif kind == "any":
            fields.append(ANY)
        else:
            fields.append(Formal(f"x{index}", draw(st.sampled_from(FORMAL_TYPES))))
    return Template(fields)


def messages_of(inner):
    """Any registered message over ``inner`` values; a ``bool`` field
    (``ClientRequest.read_only``) draws a bool, the only thing it decodes."""
    return st.one_of(
        [
            st.tuples(
                *[
                    st.booleans() if field.type == "bool" else inner
                    for field in dataclasses.fields(cls)
                ]
            ).map(lambda args, cls=cls: cls(*args))
            for cls in codec.MESSAGE_CLASSES.values()
        ]
    )


VALUES = st.recursive(
    st.one_of(
        SCALARS,
        st.binary(max_size=6),
        ENTRIES,
        templates(),
        st.just(ANY),
        st.just(Formal("x", int)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.dictionaries(HASHABLES, inner, max_size=3),
        messages_of(inner),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_every_value_roundtrips_type_exact_and_digest_stable(value):
    decoded = codec.decode_payload(codec.encode_payload(value))
    assert same(decoded, value)
    assert digest(decoded) == digest(value)
    assert same(roundtrip(value), value)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(ENTRIES, templates(), VALUES), max_size=3))
def test_client_mac_vector_verifies_over_any_decoded_request(arguments):
    authenticator = MessageAuthenticator(KeyStore())
    replicas = ("replica-0", "replica-1", "replica-2", "replica-3")
    request = authenticate_request(
        ClientRequest(client="alice", request_id=1, operation="out", arguments=tuple(arguments)),
        authenticator,
        replicas,
    )
    decoded = codec.decode_payload(codec.encode_payload(request))
    payload = request_auth_payload(decoded)
    assert [replica for replica, _ in decoded.auth] == list(replicas)
    for replica_id, mac in decoded.auth:
        assert authenticator.verify("alice", replica_id, payload, mac)


# ----------------------------------------------------------------------
# Fuzz property: decoded or CodecError, nothing else
# ----------------------------------------------------------------------


def decoded_or_rejected(decoder, data) -> None:
    try:
        decoder(data)
    except codec.CodecError:
        pass


def real_inputs() -> list[tuple]:
    """(decoder, bytes) pairs from genuine traffic: payloads and frame bodies."""
    inputs = []
    for message in [*sample_messages(), *golden_messages().values()]:
        payload = codec.encode_payload(message)
        frame = codec.encode_frame("replica-0", ("shard", 1), payload, "ab" * 32)
        inputs += [(codec.decode_payload, payload), (codec.decode_frame, frame[4:])]
    return inputs


REAL_INPUTS = real_inputs()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_random_bytes_are_decoded_or_rejected(blob):
    for data in (blob, b"P" + blob, b"E" + blob):
        decoded_or_rejected(codec.decode_payload, data)
        decoded_or_rejected(codec.decode_frame, data)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_truncated_and_mutated_real_traffic_is_decoded_or_rejected(data):
    decoder, blob = data.draw(st.sampled_from(REAL_INPUTS))
    cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
    decoded_or_rejected(decoder, blob[:cut])
    at = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    mutated = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1 :]
    decoded_or_rejected(decoder, mutated)


#: Arbitrary arrays over every type code (and a few past them) with the
#: scalars that can stand at any position: the structurally hostile
#: trees a peer can send.
JUNK_TREES = st.recursive(
    st.one_of(
        st.integers(min_value=-1, max_value=16 + len(codec.MESSAGE_CLASSES)),
        st.sampled_from(["", "x", "int", "AP8=", "a", 1.5, None, True]),
    ),
    lambda inner: st.lists(inner, max_size=6),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JUNK_TREES)
def test_arbitrary_trees_are_decoded_or_rejected(tree):
    text = json.dumps(tree).encode("ascii")
    decoded_or_rejected(codec.decode, tree)
    decoded_or_rejected(codec.decode_payload, b"P" + text)
    decoded_or_rejected(codec.decode_frame, envelope(b"j" + text, b"sr0", b"P0", b"00"))


@settings(max_examples=100, deadline=None)
@given(VALUES.filter(lambda value: type(value) is not bool))
def test_a_request_whose_read_only_is_not_a_bool_is_rejected(flag):
    """A replica branches on ``read_only``, so ``1``, ``None`` or a tuple
    there is a CodecError — as the payload of an authenticated peer and as
    a frame endpoint before any MAC is checked — never a request."""
    payload = codec.encode_payload(dataclasses.replace(sample_request(), read_only=flag))
    with pytest.raises(codec.CodecError, match="read_only must be a bool"):
        codec.decode_payload(payload)
    with pytest.raises(codec.CodecError, match="read_only must be a bool"):
        codec.decode_frame(envelope(b"j" + payload[1:], b"sr0", b"P0", b"00"))


@pytest.mark.parametrize("flag", [1, 0, None, "true", ()], ids=repr)
def test_a_tcp_request_whose_read_only_is_not_a_bool_is_one_rejected_frame(flag):
    """Behind a valid MAC, the frame is counted rejected on the reactor and
    the connection keeps serving: the next frame is delivered."""
    with TcpTransport() as net:
        received = []
        net.register("victim", lambda sender, payload: received.append(payload))
        net.register("peer", lambda sender, payload: None)

        def frame(payload_bytes):
            mac = net.authenticator.mac("peer", "victim", payload_bytes)
            return codec.encode_frame("peer", "victim", payload_bytes, mac)

        request = dataclasses.replace(sample_request(), client="peer")
        hostile = codec.encode_payload(dataclasses.replace(request, read_only=flag))
        with socket.create_connection(net.address_of("victim")) as sock:
            sock.sendall(frame(hostile))
            assert net.run_until(lambda: net.statistics["rejected"] == 1, timeout=20_000.0)
            sock.sendall(frame(codec.encode_payload(request)))
            assert net.run_until(lambda: received, timeout=20_000.0)
        assert received == [request]
        assert net.statistics["handler_errors"] == 0


# ----------------------------------------------------------------------
# The release-0.6 escapes, each as the new format's hostile input
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "tree",
    [
        pytest.param(b"[0,[[0]]]", id="unhashable-code-TypeError"),  # was {"__t": 5}
        pytest.param(b"[2,[1,1],1]", id="unhashable-dict-key"),  # was {"__d": [[{"__l": [1]}, 1]]}
        pytest.param(b'[3,"a"]', id="bad-base64"),  # was {"__b": "a"}
        pytest.param(b'[7,"x",null,3]', id="formal-arity-ValueError"),  # was {"__f": [1, 2, 3]}
        pytest.param(b"[4]", id="empty-entry"),  # was {"__e": []}
        pytest.param(b"[20,5]", id="message-arity"),  # was {"__dc": "Prepare", "f": 5}
        pytest.param(b"[3,5]", id="bytes-of-an-int"),
        pytest.param(b'[7,"",null]', id="formal-empty-name"),
        pytest.param(b'[7,"x","object"]', id="formal-unknown-type"),
        pytest.param(b"[4,[6]]", id="entry-with-ANY"),
        pytest.param(b'[5,[7,"x",null],[7,"x",null]]', id="template-duplicate-formal"),
        pytest.param(b"[5,[1]]", id="template-unhashable-field"),
        pytest.param(b"[2,1]", id="dict-key-without-value"),
        pytest.param(b"[6,1]", id="ANY-with-fields"),
        pytest.param(b'[0,{"__t":5}]', id="json-object"),
    ],
)
def test_hostile_tree_is_a_codec_error_before_and_after_authentication(tree):
    """Before the MAC check (a frame endpoint) and after it (the payload
    of an authenticated Byzantine peer), each is a CodecError — the one
    exception the TCP transport counts as a rejected frame."""
    with pytest.raises(codec.CodecError):
        codec.decode_payload(b"P" + tree)
    with pytest.raises(codec.CodecError):
        codec.decode_frame(envelope(b"j" + tree, b"sr0", b"P0", b"00"))
    with pytest.raises(codec.CodecError):
        codec.decode(json.loads(tree))


def test_an_old_release_frame_is_rejected_not_misparsed():
    """A release-0.6 peer's frame — tagged JSON under the format byte J,
    base64 payload — and its payload bytes are both refused."""
    old_payload = b'J{"__t":["legit",1]}'
    old_body = b"J" + json.dumps(
        {
            "s": "peer",
            "r": "victim",
            "p": {"__b": base64.b64encode(old_payload).decode("ascii")},
            "m": "00" * 32,
        }
    ).encode("ascii")
    with pytest.raises(codec.CodecError, match="format byte"):
        codec.decode_frame(old_body)
    with pytest.raises(codec.CodecError, match="format byte"):
        codec.decode_payload(old_payload)
