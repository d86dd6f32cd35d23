"""The wire codec must round-trip every protocol payload *exactly*.

Exactness here is stronger than ``==``: the ordering protocol digests
payloads with the pickle-based :func:`repro.replication.crypto.digest`,
and the client MAC vector is verified by replicas over the *decoded*
request, so the decoded graph must produce the same digest/MAC as the
original.  These tests pin both properties for every message class and
every tuple-space value kind, plus the frame layer's safety rails
(unknown classes, malformed envelopes, oversized frames).
"""

from __future__ import annotations

import struct

import pytest

from repro.net import codec
from repro.replication.crypto import KeyStore, MessageAuthenticator, digest
from repro.replication.messages import (
    Batch,
    Checkpoint,
    ClientReply,
    ClientRequest,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    StateRequest,
    StateResponse,
    ViewChange,
    authenticate_request,
    null_batch,
    request_auth_payload,
)
from repro.tuples import ANY, Entry, Formal, Template, entry, template


def roundtrip(value):
    return codec.decode(codec.encode(value))


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


def test_unknown_tag_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode({"__surprise": 1})


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
