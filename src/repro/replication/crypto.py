"""Authenticated channels for the replicated PEATS.

Section 2.1 assumes a faulty process cannot impersonate a correct one; in
the deployment of Section 4 this is obtained with authenticated channels
("standard technologies like IPSec or SSL").  We model the same guarantee
with pairwise shared keys and HMAC-SHA256 message authentication codes:

* the :class:`KeyStore` is the trusted key-distribution step (performed
  once, before the system starts);
* every message carries a MAC computed over a canonical serialisation of
  its content under the key shared by sender and receiver;
* a receiver drops messages whose MAC does not verify (the transports
  count them: ``statistics["rejected"]``), so a Byzantine node can only
  ever speak under its own identity.

What a message pays for, and what it pays only once
---------------------------------------------------

A MAC costs microseconds once the session key exists (Castro–Liskov's
authenticators rest on exactly that), so :class:`MessageAuthenticator`
keeps two things between calls — neither changes a byte of any tag:

* **The pairwise key.**  A pair's key never changes, so it is derived
  once and kept in a cache keyed by the same text the derivation hashes
  (the two principals' ``repr``): the cache is an exact memo of
  :meth:`KeyStore.shared_key`, and names that merely compare equal
  (``1``, ``True``, ``1.0``) can never be served each other's key.  The
  cache is **bounded**: on TCP the ``sender`` of a frame is text chosen
  by whoever wrote to the socket, so an unbounded cache would be a
  memory leak any outsider can drive.  At :data:`KEY_CACHE_CAP` entries
  it is emptied; honest pairs re-derive on their next message (a few
  microseconds each), which is all a flood of invented names can cost.
* **The canonical bytes of the payload being multicast.**  ``mac``
  remembers the last payload it serialised — by identity, holding a
  strong reference so the ``id`` cannot be recycled — and reuses those
  bytes when the very same object is sealed again.  The n−1 back-to-back
  ``send`` calls of one ``broadcast`` and the n entries of a client MAC
  vector therefore serialise once and differ only in the key.

What a receiver MACs depends on what the transport hands it:

* **In-process transports** (``SimulatedNetwork``, the asyncio
  loopback) deliver the sender's object by reference, so each delivery
  also carries the canonical bytes ``mac`` computed from that very
  object (:meth:`MessageAuthenticator.sealed_bytes`).  The receiver
  MACs those bytes and serialises nothing: one HMAC per delivery.
* **A payload rewritten in flight** (``set_tampering``, which every
  transport offers through its delivery core) travels *without* sealed
  bytes — they describe the object the sender sealed, not the one
  delivered — so its receivers serialise what they were handed and
  reject the rewrite at every receiver, exactly as a real network's
  receivers would.
* **TCP** receivers hold only the frame's payload bytes and MAC the
  canonical bytes of those, as computed by the sender over the same
  bytes.

The memo itself is read by ``mac`` and ``sealed_bytes`` alone;
:meth:`MessageAuthenticator.verify` MACs the sealed bytes its caller
passes, and otherwise the canonical bytes of the delivered object —
never the memo.

Both shortcuts rest on one model: **every message class is a frozen
dataclass and handlers treat payloads as immutable.**  Bytes sealed for
an object stay its canonical bytes for as long as anyone holds it; a
payload mutated between sealing and delivery would be accepted under
its earlier bytes, which is why nothing in the protocol mutates one.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import pickle
import threading
from typing import Any, Hashable

__all__ = ["KEY_CACHE_CAP", "KeyStore", "MessageAuthenticator", "canonical_bytes", "digest"]

#: Pairwise keys one :class:`MessageAuthenticator` keeps before it starts
#: over (32-byte keys: ~100 kB at the cap; a deployment has tens of pairs).
KEY_CACHE_CAP = 1024


def canonical_bytes(payload: Any) -> bytes:
    """Serialise ``payload`` so that equal *content* gives equal bytes.

    ``pickle.dumps`` memoises: when the same object appears twice in a
    graph the second occurrence is emitted as a back-reference, so two
    payloads that compare equal but share objects differently serialise
    to different bytes.  Replicas compare digests of independently built
    values (checkpoint states, replies voted on by clients), where object
    identity is an execution-history accident — a cached result stored
    twice on one replica, rebuilt on another.  Disabling the memo makes
    the encoding a pure function of content.  Payloads are protocol data
    (tuples, entries, scalars) and never cyclic, which ``fast`` requires.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(payload)
    return buffer.getvalue()


def digest(payload: Any) -> str:
    """A deterministic SHA-256 digest of an arbitrary picklable payload.

    Used both for request digests in the ordering protocol and for reply
    voting at the client.
    """
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


class KeyStore:
    """Pairwise symmetric keys between every two principals.

    The key for the unordered pair ``{a, b}`` is derived deterministically
    from a master secret, which keeps the simulation reproducible while
    still giving every pair a distinct key.
    """

    def __init__(self, master_secret: bytes = b"repro-peats-master-secret") -> None:
        self._master_secret = master_secret

    def shared_key(self, a: Hashable, b: Hashable) -> bytes:
        """The symmetric key shared by principals ``a`` and ``b``."""
        first, second = sorted((repr(a), repr(b)))
        material = f"{first}|{second}".encode()
        return hmac.digest(self._master_secret, material, "sha256")


class MessageAuthenticator:
    """Computes and verifies per-pair HMACs for network messages.

    One instance serves a whole transport, from every reactor and caller
    thread at once: the seal memo is one tuple swapped whole, the key
    cache is only ever written under a lock.
    """

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore
        self._keys: dict[tuple[str, str], bytes] = {}
        self._keys_lock = threading.Lock()
        #: ``(payload, canonical bytes)`` of the payload last sealed by
        #: :meth:`mac` — compared by identity, read by ``mac`` alone
        #: (initially a fresh object no payload can be).
        self._sealed: tuple[Any, bytes] = (object(), b"")

    def _key(self, sender: Hashable, receiver: Hashable) -> bytes:
        pair = (repr(sender), repr(receiver))
        key = self._keys.get(pair)
        if key is None:
            key = self._keystore.shared_key(sender, receiver)
            with self._keys_lock:
                if len(self._keys) >= KEY_CACHE_CAP:
                    self._keys.clear()
                self._keys[pair] = key
        return key

    def mac(self, sender: Hashable, receiver: Hashable, payload: Any) -> str:
        """MAC of ``payload`` under the sender/receiver shared key."""
        sealed, body = self._sealed
        if sealed is not payload:
            # Canonical bytes, not a plain pickle: a receiver without the
            # sealed bytes recomputes the MAC over the copy it holds, whose
            # object graph need not share sub-objects the way the sender's did.
            body = canonical_bytes(payload)
            self._sealed = (payload, body)
        return hmac.digest(self._key(sender, receiver), body, "sha256").hex()

    def sealed_bytes(self, payload: Any) -> bytes | None:
        """The canonical bytes :meth:`mac` last computed, if it computed
        them from this very object; ``None`` once another payload (from
        any thread) has been sealed since."""
        sealed, body = self._sealed
        return body if sealed is payload else None

    def verify(
        self,
        sender: Hashable,
        receiver: Hashable,
        payload: Any,
        tag: Any,
        sealed: bytes | None = None,
    ) -> bool:
        """Constant-time verification of a received MAC.

        ``sealed`` is the canonical bytes of ``payload`` as the sender
        sealed them, when an in-process transport delivered the sealed
        object itself; otherwise ``payload`` is serialised here.
        ``tag`` arrives from outside: anything that is not an ASCII ``str``
        (``compare_digest`` raises on the rest) is rejected, never raised.
        """
        if not isinstance(tag, str) or not tag.isascii():
            return False
        body = canonical_bytes(payload) if sealed is None else sealed
        expected = hmac.digest(self._key(sender, receiver), body, "sha256").hex()
        return hmac.compare_digest(expected, tag)
