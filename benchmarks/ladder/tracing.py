"""Timing and counting wrappers installed *around* the layers' public functions.

``src/`` is not edited: :class:`LayerTracer` swaps wrappers in for the
functions and methods listed in :meth:`LayerTracer.install` — including
every by-name import of a wrapped function (``repro.tspace.space.matches``
is the same object as ``repro.tuples.matching.matches``, so both module
attributes are replaced) — and puts the originals back on uninstall.

A span wrapper records ``[name, start, end, parent]`` in memory; a layer's
self time is its spans' durations minus the part their child spans cover,
so nested layers (policy → tspace, pbft → net → crypto) never count a
microsecond twice.  The hottest functions (``matches``,
``canonical_bytes``, ``KeyStore.shared_key``, ``ShardMap.route``) are only
counted: a timing wrapper around a 2 µs call would measure itself.

Install the tracer *before* building a deployment: transports capture the
handlers they are given at registration time.
"""

from __future__ import annotations

import collections
import contextlib
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Iterator

import repro.api  # noqa: F401  (loads every module whose names get patched)
import repro.net.tcp  # noqa: F401
import repro.sim  # noqa: F401
import repro.universal  # noqa: F401
from repro.api.space import Space
from repro.cluster.client import ShardedClient
from repro.cluster.routing import ShardMap
from repro.net import codec
from repro.net.tcp import TcpTransport
from repro.net.transport import RealTransport
from repro.notify.waiters import WaiterTable
from repro.peo.peats import PEATS
from repro.policy.monitor import ReferenceMonitor
from repro.replication import crypto
from repro.replication.client import PEATSClient
from repro.replication.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    PrePrepare,
    Prepare,
)
from repro.replication.network import SimulatedNetwork
from repro.replication.pbft import OrderingNode
from repro.replication.replica import PEATSReplica
from repro.tspace.augmented import AugmentedTupleSpace
from repro.tspace.space import TupleSpace
from repro.tuples import matching

__all__ = ["LayerTracer", "SpanTotals"]

_PBFT_SPAN = {
    ClientRequest: "pbft.request",
    PrePrepare: "pbft.preprepare",
    Prepare: "pbft.prepare",
    Commit: "pbft.commit",
    Checkpoint: "pbft.checkpoint",
}


class SpanTotals:
    """Calls, summed duration and summed self time of one span name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _ThreadSpans:
    """One thread's span list and open-span stack (threads never share)."""

    __slots__ = ("name", "spans", "stack")

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: list[list] = []
        self.stack: list[int] = []


class LayerTracer:
    """Spans and counts at every layer boundary of one traced run."""

    def __init__(self) -> None:
        #: Wrappers pass calls straight through unless this is set, so
        #: set-up and warm-up leave no spans.
        self.active = False
        self.counts: collections.Counter[str] = collections.Counter()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
        return state

    def _span(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        return self._named_span(lambda args: name, function)

    def _named_span(
        self, name_of: Callable[[tuple], str], function: Callable[..., Any]
    ) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return function(*args, **kwargs)
            state = self._state()
            stack = state.stack
            record = [name_of(args), perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(state.spans))
            state.spans.append(record)
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def _count(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.active:
                counts[name] += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _patch_function(self, function: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Replace ``function`` under every ``repro`` module attribute that
        holds it — its defining module and each by-name import."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, wrapper)
                    self._undo.append(
                        lambda m=module, a=attribute: setattr(m, a, function)
                    )

    def _patch_method(self, cls: type, attribute: str, make: Callable[[Any], Any]) -> None:
        original = vars(cls)[attribute]
        setattr(cls, attribute, make(original))
        self._undo.append(lambda: setattr(cls, attribute, original))

    def install(self) -> None:
        """Swap the wrappers in (idempotence is the caller's business)."""
        span, count = self._span, self._count
        # tuples — counted only.
        self._patch_function(matching.matches, count("tuples.match", matching.matches))
        # tspace
        for name in ("rdp", "inp", "out"):
            self._patch_method(TupleSpace, name, lambda f, n=name: span(f"tspace.{n}", f))
        self._patch_method(AugmentedTupleSpace, "cas", lambda f: span("tspace.cas", f))
        # policy / peo
        self._patch_method(ReferenceMonitor, "authorize", lambda f: span("policy.authorize", f))
        self._patch_method(PEATS, "execute_operation", lambda f: span("peo.execute", f))
        # crypto
        self._patch_function(
            crypto.canonical_bytes, count("crypto.canonical", crypto.canonical_bytes)
        )
        self._patch_function(crypto.digest, span("crypto.digest", crypto.digest))
        self._patch_method(crypto.MessageAuthenticator, "mac", lambda f: span("crypto.mac", f))
        self._patch_method(
            crypto.MessageAuthenticator, "verify", lambda f: span("crypto.verify", f)
        )
        self._patch_method(crypto.KeyStore, "shared_key", lambda f: count("crypto.shared_key", f))
        # codec
        for name in ("encode_payload", "decode_payload", "encode_frame", "decode_frame"):
            function = getattr(codec, name)
            self._patch_function(function, span(f"codec.{name}", function))
        # pbft / replica
        self._patch_method(
            OrderingNode,
            "on_message",
            lambda f: self._named_span(
                lambda args: _PBFT_SPAN.get(type(args[2]), "pbft.other"), f
            ),
        )
        self._patch_method(PEATSReplica, "execute", lambda f: span("replica.execute", f))
        # client: submit, plus the reply handler as the transport sees it.
        self._patch_method(PEATSClient, "submit", self._client_submit)
        self._patch_method(ShardedClient, "submit", self._sharded_submit)
        for transport in (SimulatedNetwork, RealTransport):
            self._patch_method(transport, "register", self._register)
        # net
        for transport in (SimulatedNetwork, RealTransport, TcpTransport):
            self._patch_method(transport, "send", self._send)
        # cluster / notify / api
        self._patch_method(ShardMap, "route", lambda f: count("cluster.route", f))
        self._patch_method(WaiterTable, "matching", lambda f: span("notify.match", f))
        self._patch_method(Space, "submit", lambda f: span("api.submit", f))
        for name in ("out", "rdp", "inp", "cas"):
            self._patch_method(Space, name, lambda f: span("api.submit", f))

    def _client_submit(self, original: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._span("client.submit", original)
        counts = self.counts

        def submit(client: Any, operation: str, arguments: tuple, **options: Any) -> Any:
            if self.active:
                counts[f"client.submit.{operation}"] += 1
            return timed(client, operation, arguments, **options)

        return submit

    def _sharded_submit(self, original: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def submit(client: Any, operation: str, arguments: tuple, **options: Any) -> Any:
            # A wildcard-name rdp/inp is scatter-gathered: one explicitly
            # addressed probe per replica group, bypassing name routing.
            if (
                self.active
                and options.get("replica_ids") is not None
                and operation in ("rdp", "inp")
            ):
                counts["cluster.scatter_probe"] += 1
            return original(client, operation, arguments, **options)

        return submit

    def _register(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def register(network: Any, node: Any, handler: Callable[..., Any]) -> None:
            if isinstance(getattr(handler, "__self__", None), PEATSClient):
                handler = self._span("client.on_reply", handler)
            original(network, node, handler)

        return register

    def _send(self, original: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._span("net.send", original)
        counts = self.counts

        def send(network: Any, sender: Any, receiver: Any, payload: Any) -> None:
            if self.active:
                counts[f"net.send.{type(payload).__name__}"] += 1
            timed(network, sender, receiver, payload)

        return send

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def totals(self) -> dict[str, SpanTotals]:
        """Per span name: calls, summed duration, summed self time."""
        totals: dict[str, SpanTotals] = collections.defaultdict(SpanTotals)
        for state in self._threads:
            spans = state.spans
            covered = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0 and end:
                    covered[parent] += end - start
            for (name, start, end, parent), children in zip(spans, covered):
                if not end:  # still open when the run was cut off
                    continue
                entry = totals[name]
                entry.calls += 1
                entry.total_s += end - start
                entry.self_s += end - start - children
        return dict(totals)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer (the span name's prefix before the dot)."""
        layers: dict[str, float] = collections.defaultdict(float)
        for name, entry in self.totals().items():
            layers[name.split(".", 1)[0]] += entry.self_s
        return dict(layers)

    def write_spans(self, path: str) -> int:
        """Write every span as one JSON line; returns how many."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in self._threads:
                for index, (name, start, end, parent) in enumerate(state.spans):
                    out.write(
                        json.dumps(
                            {
                                "thread": state.name,
                                "id": index,
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._threads)
