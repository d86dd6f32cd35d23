"""Per-file rules: RL001 determinism purity, RL002 guarded event log,
RL005 handler containment, RL006 bounded collections.

Each rule encodes one invariant this codebase's guarantees rest on; see
the class docstrings for the invariant, the failure it prevents and the
escape hatch when a finding is intentional.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, Optional

from repro.lint.engine import (
    ModuleInfo,
    Rule,
    Violation,
    canonical_call_name,
    import_aliases,
    register,
)

__all__ = [
    "DeterminismPurity",
    "GuardedEventLog",
    "HandlerContainment",
    "BoundedCollections",
]

#: The deterministic core: every module whose behaviour must be a pure
#: function of the scenario seed so same-seed replays stay byte-identical.
DETERMINISTIC_CORE = (
    "repro.sim",
    "repro.replication",
    "repro.consensus",
    "repro.cluster",
    "repro.notify",
    "repro.obs",
    "repro.tspace",
    "repro.peo",
    "repro.policy",
    "repro.tuples",
    "repro.model",
)

#: Call targets that read ambient wall-clock time or entropy.  The
#: deterministic core must take time from its ``Transport``'s clock and
#: randomness from a seeded ``random.Random`` instance instead.
_BANNED_CALLS: dict[str, str] = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "time.monotonic": "reads the wall clock",
    "time.monotonic_ns": "reads the wall clock",
    "time.perf_counter": "reads the wall clock",
    "time.perf_counter_ns": "reads the wall clock",
    "time.process_time": "reads the wall clock",
    "time.sleep": "blocks on the wall clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.datetime.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "os.urandom": "reads ambient entropy",
    "uuid.uuid1": "reads ambient entropy (and the clock)",
    "uuid.uuid4": "reads ambient entropy",
    "random.SystemRandom": "reads ambient entropy",
    "threading.Thread": "spawns ambient concurrency",
    "threading.Timer": "schedules on the wall clock",
    "concurrent.futures.ThreadPoolExecutor": "spawns ambient concurrency",
    "multiprocessing.Process": "spawns ambient concurrency",
}

_BANNED_PREFIXES: dict[str, str] = {
    "secrets.": "reads ambient entropy",
}

#: Module-level functions of :mod:`random` — all of them drive the hidden
#: process-global (unseeded, shared) generator.
_AMBIENT_RANDOM = {
    "betavariate", "choice", "choices", "expovariate", "gauss", "getrandbits",
    "lognormvariate", "normalvariate", "paretovariate", "randbytes", "randint",
    "random", "randrange", "sample", "seed", "shuffle", "triangular",
    "uniform", "vonmisesvariate", "weibullvariate",
}


@register
class DeterminismPurity(Rule):
    """RL001 — no ambient clock, entropy or concurrency in the replay core.

    The byte-identical same-seed replay guarantee (PR 1) and the
    obs-passivity invariant (PR 6: instrumentation never reads a clock or
    RNG) hold only while every module of the deterministic core takes
    time from its transport's clock and randomness from an explicitly
    seeded ``random.Random``.  One stray ``time.time()`` silently turns a
    reproducible trace into a flaky one.  ``repro.net`` is wall-clock by
    design and out of scope; intentional real-concurrency harnesses mark
    their call sites with ``# repro-lint: disable=RL001``.
    """

    id = "RL001"
    name = "determinism-purity"
    summary = "no wall clock / ambient RNG / ambient threads in the deterministic core"
    scope = DETERMINISTIC_CORE
    exclude = ("repro.net",)

    def check_module(self, module: ModuleInfo) -> Iterable[Violation]:
        aliases = import_aliases(module.tree)
        call_funcs: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                yield from self._check_target(module, node.func, aliases, call=node)
        # References outside call position (``callback=time.time``) leak
        # the same ambience — catch them too.
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in call_funcs:
                if isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Load
                ):
                    continue
                yield from self._check_target(module, node, aliases, call=None)

    def _check_target(
        self,
        module: ModuleInfo,
        target: ast.AST,
        aliases: dict[str, str],
        *,
        call: Optional[ast.Call],
    ) -> Iterator[Violation]:
        name = canonical_call_name(target, aliases)
        if name is None:
            return
        reason = _BANNED_CALLS.get(name)
        if reason is None:
            for prefix, prefix_reason in _BANNED_PREFIXES.items():
                if name.startswith(prefix):
                    reason = prefix_reason
                    break
        if reason is None and name.startswith("random."):
            tail = name[len("random."):]
            if tail in _AMBIENT_RANDOM:
                reason = "drives the process-global (unseeded) RNG"
        if reason is None and name == "random.Random":
            if call is not None and not call.args and not call.keywords:
                reason = "constructs an unseeded Random (seed it explicitly)"
        if reason is not None:
            node = call if call is not None else target
            yield module.violation(
                self.id,
                node,
                f"{name} {reason}; the deterministic core must stay a pure "
                "function of the scenario seed (use the transport clock / a "
                "seeded random.Random)",
            )


_HELPER_RE = re.compile(r"_event\w*\Z")


@register
class GuardedEventLog(Rule):
    """RL002 — every event-log hot-path call sits behind ``.enabled``.

    ``events.record(...)`` (on any receiver naming the log:
    ``self._events``, ``events``, ``obs.events``) and the
    ``self._event*`` helpers are only reached under
    ``if <log>.enabled:`` so the disabled-observability hot path costs
    one attribute read, and the null log is never asked to assemble
    per-event state.  An unguarded call site re-introduces per-message
    overhead for every deployment that runs with observability off.
    """

    id = "RL002"
    name = "guarded-event-log"
    summary = "events.record() and self._event* helpers must be behind an .enabled guard"
    scope = ("repro",)

    def check_module(self, module: ModuleInfo) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            is_record = func.attr == "record" and _mentions_events(func.value)
            is_helper_call = (
                _HELPER_RE.fullmatch(func.attr) is not None
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            )
            if not (is_record or is_helper_call):
                continue
            if self._exempt_or_guarded(module, node):
                continue
            what = "events.record()" if is_record else f"self.{func.attr}()"
            yield module.violation(
                self.id,
                node,
                f"{what} call site is not behind an `.enabled` guard "
                "(wrap it in `if <log>.enabled:` so disabled "
                "observability stays one attribute read)",
            )

    @staticmethod
    def _exempt_or_guarded(module: ModuleInfo, node: ast.Call) -> bool:
        child: ast.AST = node
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Inside an ``_event*`` helper the guard lives at the
                # helper's call sites (checked instead).
                if _HELPER_RE.fullmatch(ancestor.name):
                    return True
            if isinstance(ancestor, ast.If) and child in ancestor.body:
                for sub in ast.walk(ancestor.test):
                    if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                        return True
            child = ancestor
        return False


def _mentions_events(receiver: ast.AST) -> bool:
    """True when the receiver expression names the event log
    (``self._events``, ``events``, ``obs.events`` ...)."""
    for node in ast.walk(receiver):
        if isinstance(node, ast.Name) and "events" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "events" in node.attr.lower():
            return True
    return False


#: Local names that conventionally hold a registered node handler or a
#: deferred callback inside the transport layer.
_CALLBACK_NAMES = {"handler", "callback", "cb", "fn"}


@register
class HandlerContainment(Rule):
    """RL005 — transport handler callbacks never let exceptions escape.

    On the real transports a node's handler runs on a reactor's event
    loop; an uncaught exception there kills the reactor thread and with
    it every node pinned to that loop — one malformed message away from
    a full-group outage.  Every raw handler/callback invocation in
    ``repro.net`` must therefore go through ``_guarded(...)`` (which
    counts the error and keeps the loop alive) or sit in a ``try`` block
    that catches ``Exception``.
    """

    id = "RL005"
    name = "handler-containment"
    summary = "repro.net handler/callback invocations must be _guarded or try/except-contained"
    scope = ("repro.net",)

    def check_module(self, module: ModuleInfo) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Name) and func.id in _CALLBACK_NAMES):
                continue
            if self._contained(module, node):
                continue
            yield module.violation(
                self.id,
                node,
                f"raw `{func.id}(...)` invocation can raise into the reactor "
                "loop; route it through `self._guarded(...)` or wrap it in "
                "try/except Exception",
            )

    @staticmethod
    def _contained(module: ModuleInfo, node: ast.Call) -> bool:
        child: ast.AST = node
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.Try) and child in ancestor.body:
                if any(_catches_exception(handler) for handler in ancestor.handlers):
                    return True
            if isinstance(ancestor, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                parent = module.parents.get(ancestor)
                if isinstance(parent, ast.Call):
                    guarded_name = parent.func
                    if (
                        isinstance(guarded_name, ast.Attribute)
                        and guarded_name.attr.endswith("_guarded")
                    ) or (
                        isinstance(guarded_name, ast.Name)
                        and guarded_name.id.endswith("_guarded")
                    ):
                        return True
            child = ancestor
        return False


def _catches_exception(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except
        return True
    names = []
    for node in ast.walk(handler.type):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return "Exception" in names or "BaseException" in names


_GROW_METHODS = {"append", "appendleft", "add", "extend", "insert", "setdefault"}
_SHRINK_METHODS = {"pop", "popitem", "popleft", "clear", "remove", "discard"}
_EMPTY_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}


@register
class BoundedCollections(Rule):
    """RL006 — per-request/per-client bookkeeping must have a pruning site.

    The PR 2 hardening class: every ``dict``/``list`` a replica or client
    keys by request, client or sequence number is a memory leak under
    sustained traffic unless *something* in the same module shrinks it
    (``pop``/``del``/``clear``/truncating reassignment/``heappop``).
    The rule flags attributes initialised empty in ``__init__`` that grow
    somewhere in the class but are never pruned anywhere in the module.
    Collections genuinely bounded by the deployment shape (keyed by
    replica id, shard id or metric name) document that with a
    ``# repro-lint: disable=RL006`` pragma at the growth site.
    """

    id = "RL006"
    name = "bounded-collections"
    summary = "collection attributes that grow per-request need a pruning site"
    scope = ("repro.replication", "repro.cluster", "repro.api", "repro.obs.registry")

    def check_module(self, module: ModuleInfo) -> Iterable[Violation]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleInfo, cls: ast.ClassDef) -> Iterator[Violation]:
        initialized: dict[str, int] = {}
        grows: dict[str, ast.AST] = {}
        shrinks: set[str] = set()

        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_init = func.name == "__init__"
            for node in ast.walk(func):
                # self.X = {} / [] / set() / defaultdict(...) / deque()
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in _flatten_targets(targets):
                        attr = _self_attr(target)
                        if attr is None:
                            continue
                        if in_init and _is_empty_collection(
                            node.value if node.value is not None else None
                        ):
                            initialized.setdefault(attr, node.lineno)
                        elif not in_init:
                            # Reassignment outside __init__ (truncating
                            # comprehension, fresh dict, swap-and-replay)
                            # counts as pruning.
                            shrinks.add(attr)
                # Growth inside __init__ is bounded by the constructor's
                # inputs (building the replica list, seeding maps) — only
                # post-construction growth can track request traffic.
                if isinstance(node, ast.Assign) and not in_init:
                    # self.X[k] = v (also nested: self.X[k1][k2] = v)
                    for target in _flatten_targets(node.targets):
                        attr = _subscript_base_attr(target)
                        if attr is not None:
                            grows.setdefault(attr, target)
                if isinstance(node, ast.AugAssign) and not in_init:
                    attr = _self_attr(node.target) or _subscript_base_attr(node.target)
                    if attr is not None:
                        grows.setdefault(attr, node)
                # del self.X[k]
                if isinstance(node, ast.Delete):
                    for target in node.targets:
                        attr = _subscript_base_attr(target) or _self_attr(target)
                        if attr is not None:
                            shrinks.add(attr)
                # method calls: grow/shrink verbs, heappush/heappop
                if isinstance(node, ast.Call):
                    func_node = node.func
                    if isinstance(func_node, ast.Attribute):
                        attr = _subscript_base_attr(func_node.value) or _self_attr(
                            func_node.value
                        )
                        if attr is not None:
                            if func_node.attr in _GROW_METHODS and not in_init:
                                grows.setdefault(attr, node)
                            elif func_node.attr in _SHRINK_METHODS:
                                shrinks.add(attr)
                    name = func_node.attr if isinstance(func_node, ast.Attribute) else (
                        func_node.id if isinstance(func_node, ast.Name) else ""
                    )
                    for arg in node.args:
                        attr = _self_attr(arg)
                        if attr is None:
                            continue
                        if name.endswith("heappop"):
                            shrinks.add(attr)
                        elif name.endswith("heappush") and not in_init:
                            grows.setdefault(attr, node)

        for attr, grow_node in sorted(grows.items(), key=lambda item: item[1].lineno):
            if attr in initialized and attr not in shrinks:
                yield module.violation(
                    self.id,
                    grow_node,
                    f"`self.{attr}` (initialised empty at line "
                    f"{initialized[attr]}) grows here but is never pruned in "
                    "this module — bound it, or justify with a disable pragma "
                    "if it is keyed by a deployment-bounded id",
                )


def _flatten_targets(targets: list[ast.expr]) -> Iterator[ast.expr]:
    """Yield leaf assignment targets, unpacking tuple/list destructuring.

    ``replay, self._buf = self._buf, {}`` reassigns ``self._buf`` just as
    surely as a plain assignment does — swap-and-drain is the idiomatic
    pruning move — so tuple elements must be visible to the shrink scan.
    """
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(list(target.elts))
        elif isinstance(target, ast.Starred):
            yield target.value
        else:
            yield target


def _self_attr(node: Optional[ast.AST]) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _subscript_base_attr(node: Optional[ast.AST]) -> Optional[str]:
    subscripted = False
    while isinstance(node, ast.Subscript):
        subscripted = True
        node = node.value
    return _self_attr(node) if subscripted else None


def _is_empty_collection(value: Optional[ast.AST]) -> bool:
    if isinstance(value, ast.Dict) and not value.keys:
        return True
    if isinstance(value, (ast.List, ast.Set, ast.Tuple)) and not value.elts:
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name in _EMPTY_FACTORIES:
            # deque(maxlen=...) and Counter(iterable) are bounded/seeded;
            # only the bare empty constructors count.
            has_maxlen = any(kw.arg == "maxlen" for kw in value.keywords)
            return not has_maxlen
    return False
