"""Wire codec for the TCP transport: positional trees in binary frames.

The protocol messages are immutable dataclasses over plain Python data
(tuples, dicts, strings, numbers) plus the tuple-space value types
(:class:`~repro.tuples.Entry`, :class:`~repro.tuples.Template`,
``ANY``, :class:`~repro.tuples.Formal`).  The codec maps that object
graph to a *positional tree* and back, preserving exactly the
properties the protocol depends on:

* **types survive exactly** — tuples decode as tuples, lists as lists,
  ``1``/``True``/``1.0`` stay distinct, dict insertion order is kept
  (digests and MACs are pickle-based, so a ``tuple`` silently becoming a
  ``list`` would break every vote);
* **only registered message classes decode** — an attacker who controls
  the wire cannot make the codec instantiate arbitrary classes;
* **round-tripping is value-stable**: ``decode(encode(x)) == x`` and the
  pickle-based :func:`~repro.replication.crypto.digest` of the decoded
  graph equals the original's, which keeps client MAC vectors and batch
  digests verifiable across the wire.

The tree
--------
Scalars (``str``, ``int``, ``float``, ``bool``, ``None``) are themselves.
Every other value is an array whose first element is a type code::

    0       tuple      [0, item, ...]
    1       list       [1, item, ...]
    2       dict       [2, key, value, key, value, ...]  (insertion order)
    3       bytes      [3, "<base64>"]
    4       Entry      [4, field, ...]
    5       Template   [5, field, ...]
    6       ANY        [6]
    7       Formal     [7, name, type name or null]      ("int", "str", ...)
    16 + i  message    [16 + i, field, ...]  the i-th class of
                       MESSAGE_CLASSES, fields in dataclasses.fields order

Each class's *plan* — its code, its field order, its ``bool`` fields
and the function that builds it back — is made once, at import.
Encoding dispatches on the exact ``type()`` of each node, so a subclass
of a wire type is refused rather than silently narrowed.  A payload is
the format byte ``P`` followed by the tree as compact ASCII JSON.
Decoding parses it with a JSON object hook that refuses every object,
then walks the arrays against the code table, depth-bounded by
:data:`MAX_DEPTH`.  Every structural fault — an unknown code, a wrong
arity, a ``bool`` field holding anything else, an unhashable dict key,
bad base64, an empty ``Entry`` — is a :class:`CodecError`, never
another exception: these bytes can come from an unauthenticated peer.

The frame
---------
A frame is the body length as 4 big-endian bytes (:data:`FRAME_HEADER`),
then the body::

    >cHHI     format byte "E", then len(sender), len(receiver), len(payload)
    sender    "s" + UTF-8 for a str, "j" + the JSON tree otherwise
    receiver  the same
    payload   the payload bytes, raw
    mac       the rest of the body: the MAC text, UTF-8

Every declared length is checked against the body before it is sliced.
The sender serialises a payload once and the envelope MAC covers exactly
those bytes; the receiver verifies the MAC before the payload is
decoded, so unauthenticated bytes never reach the object layer.

Any other format byte is a rejected frame — in particular ``J``, the
tagged-JSON format of release 0.6: every process of one deployment runs
the same release.  Frames are deliberately not pickle (nor ``marshal``):
a pickle decoder instantiates whatever the bytes name, which is the one
thing a frame from a Byzantine peer must never make a replica do.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import operator
import struct
from typing import Any, Callable, Hashable

import _json

from repro.errors import MalformedTupleError, ReplicationError
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
#: tuple-space value types.  The order is part of the format: class
#: ``i`` has type code ``16 + i``, so a new class goes at the end.
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

_SCALARS = frozenset({str, int, float, bool, type(None)})

#: ``struct`` format of the frame length prefix (4-byte big-endian).
FRAME_HEADER = ">I"
#: The envelope header: format byte, then the sender, receiver and
#: payload lengths.
_ENVELOPE = struct.Struct(">cHHI")
_PREFIXED_ENVELOPE = struct.Struct(FRAME_HEADER + _ENVELOPE.format[1:])
_FRAME_FORMAT = b"E"
_PAYLOAD_FORMAT = b"P"
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

#: What rebuilding a malformed tree can raise: an unhashable code or
#: dict key (TypeError), a wrong arity or a bad field value (ValueError),
#: an unknown code (KeyError), an empty array (IndexError), bad base64
#: (binascii.Error, a ValueError), an invalid Entry or Template
#: (MalformedTupleError), and — on a call stack already near the limit —
#: RecursionError.
_MALFORMED = (TypeError, ValueError, KeyError, IndexError, MalformedTupleError, RecursionError)


# ----------------------------------------------------------------------
# Encoding: value → tree
# ----------------------------------------------------------------------

_Encoder = Callable[[Any], list[Any]]


def _sequence_encoder(code: int, items_of: Callable[[Any], Any]) -> _Encoder:
    """The plan of a node that is its code followed by its items."""

    def encode_node(value: Any) -> list[Any]:
        tree = [v if type(v) in _SCALARS else _ENCODERS[type(v)](v) for v in items_of(value)]
        tree.insert(0, code)
        return tree

    return encode_node


def _dict_items(value: dict[Any, Any]) -> list[Any]:
    return [item for pair in value.items() for item in pair]


def _encode_bytes(value: bytes) -> list[Any]:
    return [3, base64.b64encode(value).decode("ascii")]


def _encode_formal(value: Formal) -> list[Any]:
    if value.type_ is None:
        return [7, value.name, None]
    type_name = _FORMAL_TYPE_NAMES.get(value.type_)
    if type_name is None:
        raise CodecError(
            f"formal field type {value.type_!r} is not wire-safe; "
            f"supported: {sorted(_FORMAL_TYPES)}"
        )
    return [7, value.name, type_name]


def _fields_of(names: tuple[str, ...]) -> Callable[[Any], tuple[Any, ...]]:
    if len(names) == 1:
        (name,) = names
        return lambda value: (getattr(value, name),)
    return operator.attrgetter(*names)


_ENCODERS: dict[type[Any], _Encoder] = {
    tuple: _sequence_encoder(0, iter),
    list: _sequence_encoder(1, iter),
    dict: _sequence_encoder(2, _dict_items),
    bytes: _encode_bytes,
    Entry: _sequence_encoder(4, operator.attrgetter("fields")),
    Template: _sequence_encoder(5, operator.attrgetter("fields")),
    Wildcard: lambda value: [6],
    Formal: _encode_formal,
}


def encode(value: Any) -> Any:
    """Encode ``value`` as a positional tree of lists and scalars."""
    if type(value) in _SCALARS:
        return value
    try:
        return _ENCODERS[type(value)](value)
    except KeyError as error:
        unknown = error.args[0]
        raise CodecError(
            f"cannot encode {getattr(unknown, '__name__', unknown)!r} for the wire; "
            "payloads may only contain protocol messages, tuple-space values "
            "and plain data"
        ) from None


# ----------------------------------------------------------------------
# Decoding: tree → value
# ----------------------------------------------------------------------

_Decoder = Callable[[list[Any]], Any]


def _node(node: Any, depth: int) -> Any:
    """Rebuild one array node found at nesting ``depth``."""
    if type(node) is not list:
        raise CodecError(f"malformed wire tree node: {type(node).__name__}")
    if depth > MAX_DEPTH:
        raise CodecError(f"wire tree nesting exceeds {MAX_DEPTH} levels")
    build = _DECODERS[node[0]]
    depth += 1
    items = node[1:]
    for index, item in enumerate(items):
        if type(item) not in _SCALARS:
            items[index] = _node(item, depth)
    return build(items)


def _build_dict(items: list[Any]) -> dict[Any, Any]:
    if len(items) % 2:
        raise CodecError("a wire dict needs a value for every key")
    flat = iter(items)
    return dict(zip(flat, flat))


def _build_bytes(items: list[Any]) -> bytes:
    (text,) = items
    return base64.b64decode(text, validate=True)


def _build_any(items: list[Any]) -> Wildcard:
    if items:
        raise CodecError("ANY carries no fields")
    return ANY


def _build_formal(items: list[Any]) -> Formal:
    name, type_name = items
    if type_name is None:
        return Formal(name)
    if type(type_name) is not str or type_name not in _FORMAL_TYPES:
        raise CodecError(f"unknown formal field type {type_name!r}")
    return Formal(name, _FORMAL_TYPES[type_name])


def _message_decoder(
    cls: type[Any], names: tuple[str, ...], flags: tuple[int, ...]
) -> _Decoder:
    # Built the way pickle rebuilds an instance — ``__new__``, then the
    # field dict in field order — which is the frozen dataclass
    # ``__init__`` minus one ``object.__setattr__`` per field.  Sound
    # only while no wire class has a ``__post_init__``, hence the check.
    # ``flags`` are the positions of the ``bool`` fields: a replica
    # branches on them, so anything but ``True``/``False`` is refused.
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__ the wire decoder would skip")
    arity = len(names)
    new = object.__new__

    def build(items: list[Any]) -> Any:
        if len(items) != arity:
            raise CodecError(f"{cls.__name__} takes {arity} fields, got {len(items)}")
        for index in flags:
            if type(items[index]) is not bool:
                raise CodecError(f"{cls.__name__}.{names[index]} must be a bool")
        message = new(cls)
        message.__dict__.update(zip(names, items))
        return message

    return build


_DECODERS: dict[int, _Decoder] = {
    0: tuple,
    1: list,
    2: _build_dict,
    3: _build_bytes,
    4: Entry,
    5: Template,
    6: _build_any,
    7: _build_formal,
}

for _code, _cls in enumerate(MESSAGE_CLASSES.values(), start=16):
    _fields = dataclasses.fields(_cls)
    _names = tuple(field.name for field in _fields)
    _flags = tuple(index for index, field in enumerate(_fields) if field.type == "bool")
    _ENCODERS[_cls] = _sequence_encoder(_code, _fields_of(_names))
    _DECODERS[_code] = _message_decoder(_cls, _names, _flags)
del _code, _cls, _fields, _names, _flags


def decode(tree: Any) -> Any:
    """Decode a positional tree produced by :func:`encode`.

    Depth-bounded (:data:`MAX_DEPTH`): the tree may arrive from the wire
    *before* MAC verification can vouch for the sender, so structural
    attacks must fail with :class:`CodecError`, never a crash.
    """
    if type(tree) in _SCALARS:
        return tree
    try:
        return _node(tree, 0)
    except _MALFORMED as error:
        raise CodecError(f"malformed wire tree: {type(error).__name__}: {error}") from None


# ----------------------------------------------------------------------
# Bytes: tree ↔ compact JSON
# ----------------------------------------------------------------------


def _not_a_node(value: Any) -> Any:
    raise CodecError("only arrays and scalars are wire tree nodes, not JSON objects")


# The C encoder and scanner behind the json module, each built once
# where json.dumps and json.loads build theirs per call: ASCII output,
# no circularity markers (a tree is acyclic by construction), and a
# parser whose object hook refuses every JSON object.
_dump = _json.make_encoder(
    None, _not_a_node, _json.encode_basestring_ascii, None, ":", ",", False, False, True
)
_scan = json.JSONDecoder(object_pairs_hook=_not_a_node).scan_once


def _dumps(tree: Any) -> bytes:
    return "".join(_dump(tree, 0)).encode("ascii")


def _loads(blob: bytes) -> Any:
    """Decode the value whose JSON tree fills ``blob`` after its tag byte."""
    try:
        text = blob.decode("utf-8")
        tree, end = _scan(text, 1)
    except (ValueError, RecursionError, StopIteration) as error:
        raise CodecError(f"undecodable wire tree: {type(error).__name__}") from None
    if end != len(text):
        raise CodecError("trailing bytes after the wire tree")
    return decode(tree)


def encode_payload(payload: Any) -> bytes:
    """Serialise one payload; the envelope MAC covers exactly these bytes."""
    return _PAYLOAD_FORMAT + _dumps(encode(payload))


def decode_payload(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_payload`."""
    if data[:1] != _PAYLOAD_FORMAT:
        raise CodecError(f"unknown payload format byte {data[:1]!r}")
    return _loads(data)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def _endpoint_bytes(node: Hashable) -> bytes:
    if type(node) is str:
        return b"s" + node.encode("utf-8")
    return b"j" + _dumps(encode(node))


def _endpoint(blob: bytes) -> Hashable:
    tag = blob[:1]
    if tag == b"s":
        try:
            return blob[1:].decode("utf-8")
        except UnicodeDecodeError:
            raise CodecError("frame endpoint is not UTF-8") from None
    if tag != b"j":
        raise CodecError(f"unknown frame endpoint tag {tag!r}")
    node: Hashable = _loads(blob)
    try:
        hash(node)
    except TypeError:
        raise CodecError("frame endpoint is not hashable") from None
    return node


def encode_frame(
    sender: Hashable, receiver: Hashable, payload_bytes: bytes, mac: str
) -> bytes:
    """One length-prefixed wire frame carrying an authenticated payload."""
    source, target, tag = _endpoint_bytes(sender), _endpoint_bytes(receiver), mac.encode("utf-8")
    size = _ENVELOPE.size + len(source) + len(target) + len(payload_bytes) + len(tag)
    if size > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {size} bytes exceeds {MAX_FRAME_BYTES}")
    header = _PREFIXED_ENVELOPE.pack(
        size, _FRAME_FORMAT, len(source), len(target), len(payload_bytes)
    )
    return b"".join((header, source, target, payload_bytes, tag))


def decode_frame(body: bytes) -> tuple[Hashable, Hashable, bytes, str]:
    """Decode one frame *body* (without the length prefix).

    Returns ``(sender, receiver, payload_bytes, mac)``; the caller
    verifies ``mac`` over ``payload_bytes`` **before** decoding the
    payload itself — unauthenticated bytes never reach the object layer.
    """
    if len(body) < _ENVELOPE.size:
        raise CodecError("frame shorter than its envelope header")
    fmt, source_size, target_size, payload_size = _ENVELOPE.unpack_from(body)
    if fmt != _FRAME_FORMAT:
        raise CodecError(f"unknown frame format byte {fmt!r}")
    target_at = _ENVELOPE.size + source_size
    payload_at = target_at + target_size
    mac_at = payload_at + payload_size
    if mac_at > len(body):
        raise CodecError("frame lengths exceed its body")
    try:
        mac = body[mac_at:].decode("utf-8")
    except UnicodeDecodeError:
        raise CodecError("frame MAC is not UTF-8") from None
    return (
        _endpoint(body[_ENVELOPE.size : target_at]),
        _endpoint(body[target_at:payload_at]),
        body[payload_at:mac_at],
        mac,
    )
