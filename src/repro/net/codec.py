"""Wire codec for the TCP transport: tagged trees in JSON frames.

The protocol messages are immutable dataclasses over plain Python data
(tuples, dicts, strings, numbers) plus the tuple-space value types
(:class:`~repro.tuples.Entry`, :class:`~repro.tuples.Template`,
``ANY``, :class:`~repro.tuples.Formal`).  The codec maps that object
graph to a JSON-safe *tagged tree* and back, preserving exactly the
properties the protocol depends on:

* **container types survive** — tuples decode as tuples, lists as lists,
  dict insertion order is preserved (digests and MACs are pickle-based,
  so a ``tuple`` silently becoming a ``list`` would break every vote);
* **only registered message classes decode** — an attacker who controls
  the wire cannot make the codec instantiate arbitrary classes (this is
  why the frames are *not* pickle);
* **round-tripping is value-stable**: ``decode(encode(x)) == x`` and the
  pickle-based :func:`~repro.replication.crypto.digest` of the decoded
  graph equals the original's, which keeps client MAC vectors and batch
  digests verifiable across the wire.

Frames are length-prefixed: a 4-byte big-endian body length, then the
body — an envelope carrying sender, receiver, the **serialised payload
bytes** and the MAC.  Payloads are serialised once by the sender (a
format byte — ``J``, JSON, is the only one defined; any other is a
rejected frame — then the tree) and the envelope MAC is computed over
those exact bytes, so transport authentication never depends on the
receiver re-serialising an object graph.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import struct
from typing import Any, Hashable

from repro.errors import ReplicationError
from repro.replication import messages as _messages
from repro.tuples.fields import ANY, Formal, Wildcard
from repro.tuples.tuple import Entry, Template

__all__ = [
    "CodecError",
    "encode",
    "decode",
    "encode_payload",
    "decode_payload",
    "encode_frame",
    "decode_frame",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "MESSAGE_CLASSES",
]


class CodecError(ReplicationError):
    """A payload could not be encoded, or a frame could not be decoded."""


#: The dataclasses allowed on the wire (name → class).  Everything the
#: replication stack sends is built from these plus plain data and the
#: tuple-space value types.
MESSAGE_CLASSES: dict[str, type[Any]] = {
    cls.__name__: cls
    for cls in (
        _messages.ClientRequest,
        _messages.ClientReply,
        _messages.Batch,
        _messages.PrePrepare,
        _messages.Prepare,
        _messages.Commit,
        _messages.Checkpoint,
        _messages.StateRequest,
        _messages.StateResponse,
        _messages.ViewChange,
        _messages.NewView,
        _messages.RegisterWaiter,
        _messages.CancelWaiter,
        _messages.Notify,
        _messages.TxnPrepare,
        _messages.TxnVote,
        _messages.TxnDecision,
        _messages.TxnAck,
    )
}

#: Types a :class:`~repro.tuples.Formal` field may carry over the wire.
_FORMAL_TYPES: dict[str, type[Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
    "bytes": bytes,
    "tuple": tuple,
    "list": list,
    "NoneType": type(None),
}
_FORMAL_TYPE_NAMES = {cls: name for name, cls in _FORMAL_TYPES.items()}

_SCALARS = (str, int, float, bool, type(None))

#: ``struct`` format of the frame length prefix (4-byte big-endian).
FRAME_HEADER = ">I"
_HEADER_SIZE = struct.calcsize(FRAME_HEADER)
#: Hard ceiling on one frame body; a peer announcing more is cut off
#: before the transport allocates anything.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Hard ceiling on wire-tree nesting.  Real protocol payloads nest a
#: handful of levels (NewView → reproposals → batch → request →
#: template → formal); an unauthenticated peer must not be able to
#: crash the decoder with a pathologically deep tree, so decoding
#: rejects — with :class:`CodecError`, counted as one more rejected
#: frame — long before Python's recursion limit.
MAX_DEPTH = 64


def encode(value: Any) -> Any:
    """Encode ``value`` as a JSON-safe tagged tree."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, bytes):
        return {"__b": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"__t": [encode(item) for item in value]}
    if isinstance(value, list):
        return {"__l": [encode(item) for item in value]}
    if isinstance(value, dict):
        return {"__d": [[encode(k), encode(v)] for k, v in value.items()]}
    if isinstance(value, Entry):
        return {"__e": [encode(field) for field in value.fields]}
    if isinstance(value, Template):
        return {"__tp": [encode(field) for field in value.fields]}
    if isinstance(value, Wildcard):
        return {"__any": 1}
    if isinstance(value, Formal):
        if value.type_ is not None and value.type_ not in _FORMAL_TYPE_NAMES:
            raise CodecError(
                f"formal field type {value.type_!r} is not wire-safe; "
                f"supported: {sorted(_FORMAL_TYPES)}"
            )
        type_name = None if value.type_ is None else _FORMAL_TYPE_NAMES[value.type_]
        return {"__f": [value.name, type_name]}
    if dataclasses.is_dataclass(value) and type(value).__name__ in MESSAGE_CLASSES:
        return {
            "__dc": type(value).__name__,
            "f": {
                field.name: encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    raise CodecError(
        f"cannot encode {type(value).__name__!r} for the wire; payloads may "
        "only contain protocol messages, tuple-space values and plain data"
    )


def decode(tree: Any, *, _depth: int = 0) -> Any:
    """Decode a tagged tree produced by :func:`encode`.

    Depth-bounded (:data:`MAX_DEPTH`): the tree arrives from the wire
    *before* MAC verification can vouch for the sender, so structural
    attacks must fail with :class:`CodecError`, never a crash.
    """
    if _depth > MAX_DEPTH:
        raise CodecError(f"wire tree nesting exceeds {MAX_DEPTH} levels")
    if isinstance(tree, _SCALARS):
        return tree
    if not isinstance(tree, dict):
        raise CodecError(f"malformed wire tree node: {tree!r}")
    depth = _depth + 1
    if len(tree) == 1:
        ((tag, body),) = tree.items()
        if tag == "__t":
            return tuple(decode(item, _depth=depth) for item in body)
        if tag == "__l":
            return [decode(item, _depth=depth) for item in body]
        if tag == "__d":
            return {decode(k, _depth=depth): decode(v, _depth=depth) for k, v in body}
        if tag == "__b":
            return base64.b64decode(body)
        if tag == "__e":
            return Entry([decode(field, _depth=depth) for field in body])
        if tag == "__tp":
            return Template([decode(field, _depth=depth) for field in body])
        if tag == "__any":
            return ANY
        if tag == "__f":
            name, type_name = body
            type_ = None if type_name is None else _FORMAL_TYPES.get(type_name)
            if type_name is not None and type_ is None:
                raise CodecError(f"unknown formal field type {type_name!r}")
            return Formal(name, type_)
    if set(tree) == {"__dc", "f"}:
        cls = MESSAGE_CLASSES.get(tree["__dc"])
        if cls is None:
            raise CodecError(f"unknown message class {tree['__dc']!r} on the wire")
        fields = {name: decode(value, _depth=depth) for name, value in tree["f"].items()}
        try:
            return cls(**fields)
        except TypeError as error:
            raise CodecError(f"malformed {tree['__dc']} on the wire: {error}") from None
    raise CodecError(f"unknown wire tag in {sorted(tree)!r}")


def _pack(tree: Any) -> bytes:
    return b"J" + json.dumps(tree, separators=(",", ":")).encode("utf-8")


def _unpack(data: bytes) -> Any:
    """Parse one format-tagged blob back into a tagged tree.

    Every parser failure — unknown format byte, malformed syntax, bad
    UTF-8, nesting deep enough to hit the interpreter's recursion limit —
    surfaces as :class:`CodecError`: these bytes are pre-authentication
    input, so the transport must be able to count one rejected frame and
    move on.
    """
    if not data:
        raise CodecError("empty wire blob")
    fmt, raw = data[:1], data[1:]
    if fmt != b"J":
        raise CodecError(f"unknown frame format byte {fmt!r}")
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as error:
        raise CodecError(f"undecodable wire frame: {type(error).__name__}") from None


def encode_payload(payload: Any) -> bytes:
    """Serialise one payload; the envelope MAC covers exactly these bytes."""
    return _pack(encode(payload))


def decode_payload(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_payload`."""
    return decode(_unpack(data))


def encode_frame(
    sender: Hashable, receiver: Hashable, payload_bytes: bytes, mac: str
) -> bytes:
    """One length-prefixed wire frame carrying an authenticated payload."""
    tree = {
        "s": encode(sender),
        "r": encode(receiver),
        "p": encode(payload_bytes),
        "m": mac,
    }
    body = _pack(tree)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return struct.pack(FRAME_HEADER, len(body)) + body


def decode_frame(body: bytes) -> tuple[Hashable, Hashable, bytes, str]:
    """Decode one frame *body* (without the length prefix).

    Returns ``(sender, receiver, payload_bytes, mac)``; the caller
    verifies ``mac`` over ``payload_bytes`` **before** decoding the
    payload itself — unauthenticated bytes never reach the object layer.
    """
    tree = _unpack(body)
    if not isinstance(tree, dict) or set(tree) != {"s", "r", "p", "m"}:
        raise CodecError("malformed frame envelope")
    payload_bytes = decode(tree["p"])
    if not isinstance(payload_bytes, bytes):
        raise CodecError("frame payload must be a serialised byte blob")
    mac = tree["m"]
    if not isinstance(mac, str):
        raise CodecError("frame MAC must be a string")
    return decode(tree["s"]), decode(tree["r"]), payload_bytes, mac
