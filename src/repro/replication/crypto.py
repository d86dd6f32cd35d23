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
"""

from __future__ import annotations

import hashlib
import hmac
import io
import pickle
from typing import Any, Hashable

__all__ = ["KeyStore", "MessageAuthenticator", "canonical_bytes", "digest"]


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
        return hmac.new(self._master_secret, material, hashlib.sha256).digest()


class MessageAuthenticator:
    """Computes and verifies per-pair HMACs for network messages."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore

    def mac(self, sender: Hashable, receiver: Hashable, payload: Any) -> str:
        """MAC of ``payload`` under the sender/receiver shared key."""
        key = self._keystore.shared_key(sender, receiver)
        # Canonical bytes, not a plain pickle: the receiver recomputes the
        # MAC over its own decoded copy of the payload, whose object graph
        # need not share sub-objects the way the sender's did.
        return hmac.new(key, canonical_bytes(payload), hashlib.sha256).hexdigest()

    def verify(self, sender: Hashable, receiver: Hashable, payload: Any, tag: str) -> bool:
        """Constant-time verification of a received MAC."""
        return hmac.compare_digest(self.mac(sender, receiver, payload), tag)
