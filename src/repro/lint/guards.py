"""RL007 — the architecture guards: one table, one rule.

Each design decision the paper's claims rest on, and that no single test
exercises, is one row family in :data:`GUARDS`: what is forbidden, where,
which PR made the decision, and why.  One rule class,
:class:`ArchitectureGuards`, reads the table; there is no subclass per
guard.  Matching works on names and tokens, never on substrings, so a
test helper named ``_client_views`` does not trip the retired
``client_view`` name.

Kinds of entry (``Guard.kind``):

* ``import`` — an ``import``/``from`` statement naming a pattern as a
  module path component or as an imported name;
* ``name`` — an identifier or dotted chain in code (uses, attributes,
  definitions, arguments, imported names), matched whole or by a dotted
  tail: ``self._dropped`` matches ``self._dropped`` and ``_dropped``
  matches ``obj._dropped``; ``*`` matches any run of characters.  In a
  text file in scope (``README.md``), an identifier-shaped word;
* ``word`` — an identifier sub-word (``snake_case`` and ``CamelCase``
  parts, case-insensitive) anywhere in the file, comments and docstrings
  included;
* ``call`` — a call whose callee matches a pattern; with ``arg`` set, only
  when an argument is a ``lambda`` (``arg="lambda"``) or the first
  argument is itself a call matching ``arg``;
* ``except`` — an ``except`` clause naming a pattern;
* ``path`` — a path (glob, relative to the project root) that must not
  exist, unless listed in ``allow``;
* ``one-site`` — calls matching a pattern: exactly one site in scope, in
  the module ``allow`` names.

``scope`` holds project-relative prefixes: ``"src/"`` covers a tree,
``"src/repro/tspace/space.py"`` one module, and a non-Python file path
(``README.md``) is read from the project root.  Python files come from
the lint run itself; ``allow`` exempts paths (or prefixes) inside the
scope.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import pathlib
import re
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.engine import ModuleInfo, ProjectRule, Violation, register, resolve_dotted

__all__ = ["Guard", "GUARDS", "ArchitectureGuards"]


@dataclasses.dataclass(frozen=True)
class Guard:
    """One entry of the guard table (a guard may span several entries)."""

    #: The guard's name, shared by its entries and its fixture trees.
    guard: str
    #: The PR whose design decision the entry protects.
    pr: int
    kind: str
    patterns: tuple[str, ...]
    scope: tuple[str, ...]
    #: One line: what went wrong when this came back, and what to do instead.
    why: str
    allow: tuple[str, ...] = ()
    arg: Optional[str] = None


#: Everything the code guards scan: the four code trees, plus the one
#: text file inside them.
_CODE = ("src/", "tests/", "benchmarks/", "examples/", "benchmarks/ladder/README.md")
_CORE = tuple(
    f"src/repro/replication/{module}.py" for module in ("pbft", "checkpointing", "viewchange")
)

GUARDS: tuple[Guard, ...] = (
    Guard(
        "one-client-path", 13, "except", ("TypeError",),
        ("src/repro/consensus/", "src/repro/universal/", "src/repro/model/",
         "src/repro/coordination/"),
        "a speculative process= call guarded by `except TypeError` re-runs "
        "mutating operations; obtain the view through space.bind(process)",
    ),
    Guard(
        "one-client-path", 13, "name",
        ("client_view", "as_shared_space", "ReplicatedClientView",
         "SharedReplicatedSpace", "ShardedClientView", "_KeywordBoundView",
         "bound_view", "execute_tuple_operation", "_poll_until_found"),
        _CODE + ("README.md",),
        "a retired client view is back; use connect(service=...).bind(process)",
    ),
    Guard(
        "one-counter-store", 14, "name",
        ("NullRegistry", "NULL_REGISTRY", "_NullMetric"), _CODE,
        "the null registry is back; resolve_obs(None) hands out a private live registry",
    ),
    Guard(
        "one-counter-store", 14, "name",
        tuple(f"self.{attribute}" for attribute in (
            "_batches_proposed", "_view_changes_started", "_checkpoints_taken",
            "_truncations", "_reply_cache_hits", "_requests_executed",
            "_frames_sent", "_bytes_sent", "_bytes_received", "_handler_errors",
            "_txn_stats")),
        ("src/",),
        "a plain-int mirror of a registry child is back; count on the child "
        "and read it in the statistics view",
    ),
    Guard(
        "one-counter-store", 34, "name",
        ("self._delivered", "self._dropped", "self._rejected", "self._timers_fired"),
        ("src/repro/replication/network.py", "src/repro/net/"),
        "a plain-int transport counter is back; count through the delivery "
        "core's registry children",
    ),
    Guard(
        "ordering-core-purity", 15, "word",
        ("notify", "waiter", "waiters", "txn", "txns"), _CORE,
        "the ordering core names an application concept; put it behind "
        "replication/application.py",
    ),
    Guard(
        "ordering-core-purity", 15, "name",
        ("Notification", "drain_notifications", "drain_txn_pushes",
         "_pending_txn_pushes", "_pending_notifications"), _CODE,
        "the second push queue is back; the replica enqueues wire messages "
        "on its one outbox (drain_pushes)",
    ),
    Guard(
        "one-client-tally", 28, "name",
        ("_voted_result", "txn_push_vote", "_txn_pushes", "TXN_PUSH_RETENTION",
         "max_pending_votes"), _CODE,
        "a second client tally is back; vote through repro.replication.tally.Tally",
    ),
    Guard(
        "one-client-tally", 28, "call", ("digest",),
        ("src/repro/replication/client.py", "src/repro/notify/subscription.py",
         "src/repro/txn/manager.py"),
        "a digest on the client side; only Tally.vote hashes the content it counts",
    ),
    Guard(
        "per-message-tax", 16, "call", ("hmac.new",),
        ("src/repro/replication/", "src/repro/net/"),
        "an HMAC object per message; use hmac.digest(key, body, 'sha256')",
    ),
    Guard(
        "per-message-tax", 16, "call", ("shared_key",), ("src/",),
        "a key derivation outside replication/crypto.py; go through "
        "MessageAuthenticator, which caches the pair's key",
        allow=("src/repro/replication/crypto.py",),
    ),
    Guard(
        "in-process-delivery", 30, "call", ("_guarded", "_contained"),
        ("src/repro/net/",),
        "a closure per callback on the delivery path; pass the callable and "
        "its arguments to RealTransport._contained",
        arg="lambda",
    ),
    Guard(
        "in-process-delivery", 34, "one-site", ("_authenticator.verify",), ("src/",),
        "every transport verifies through DeliveryCore._authentic in "
        "replication/network.py",
        allow=("src/repro/replication/network.py",),
    ),
    Guard(
        "in-process-delivery", 30, "name", ("*loop.call_soon", "call_soon_threadsafe"),
        ("src/repro/net/",),
        "a loop callback queued outside transport.py; go through "
        "Reactor.call_soon (the reactor's mailbox)",
        allow=("src/repro/net/transport.py",),
    ),
    Guard(
        "in-process-delivery", 30, "call", ("canonical_bytes",), ("src/",),
        "a serialisation outside replication/crypto.py; MAC and digest "
        "through MessageAuthenticator and digest()",
        allow=("src/repro/replication/crypto.py",),
    ),
    Guard(
        "one-perf-gate", 22, "path", ("benchmarks/compare.py",), (),
        "the one compare tool is python -m benchmarks.ladder compare",
    ),
    Guard(
        "one-perf-gate", 22, "path", ("BENCH_*.json",), (),
        "a second BENCH_*.json trajectory; timed numbers belong to a ladder metric",
        allow=("BENCH_obs_overhead.json",),
    ),
    Guard(
        "one-perf-gate", 22, "import", ("msgpack",), _CODE,
        "msgpack framing is gone; frames are the codec's positional trees",
        allow=("benchmarks/ladder/",),
    ),
    Guard(
        "one-perf-gate", 22, "name",
        ("LinearizableTupleSpace", "calibrate_processing_time"), _CODE,
        "a module no deployment imports is back (the lock wrapper PEATS "
        "replaced, the calibration fit)",
        allow=("benchmarks/ladder/",),
    ),
    Guard(
        "tuple-store-index", 25, "call", ("sorted",), ("src/repro/tspace/space.py",),
        "the index buckets are already oldest-first; a probe never sorts",
    ),
    Guard(
        "tuple-store-index", 25, "call", ("len",), ("src/",),
        "len() of a snapshot copies the whole space; use len(space)",
        allow=("src/repro/tspace/interface.py",),
        arg="*.snapshot",
    ),
    Guard(
        "matching-kernel", 27, "name", ("_field_matches",),
        ("src/repro/tuples/matching.py",),
        "a per-field helper frame in tuples/matching.py; keep matches() one loop",
    ),
    Guard(
        "matching-kernel", 27, "call", ("all", "to_template"),
        ("src/repro/tuples/matching.py",),
        "a per-call generator or Template in tuples/matching.py; keep "
        "matches() one loop",
    ),
    Guard(
        "wire-codec", 26, "import", ("pickle", "_pickle", "cPickle", "marshal"),
        ("src/repro/net/",),
        "pickle and marshal rebuild whatever the bytes name; frames stay "
        "positional trees decoded against MESSAGE_CLASSES",
    ),
    Guard(
        "wire-codec", 26, "call",
        ("pickle.*", "_pickle.*", "cPickle.*", "marshal.*", "__import__", "import_module"),
        ("src/repro/net/",),
        "a TCP frame may come from a Byzantine peer; decode registered "
        "classes only, never a name the bytes carry",
    ),
    Guard(
        "one-deployment-shape", 36, "path", ("src/repro/api/replicated.py",), (),
        "the single-group handle module is back; connect('replicated') builds "
        "a one-shard ShardedPEATS behind ShardedSpace",
    ),
    Guard(
        "one-deployment-shape", 36, "name", ("ReplicatedSpace",), _CODE,
        "a second networked Space handle; a one-shard ShardedSpace is the "
        "replicated backend",
    ),
    Guard(
        "one-deployment-shape", 36, "one-site", ("PEATSClient", "ShardedClient"), ("src/",),
        "a client built outside the cluster; ShardedPEATS.client(process) is "
        "the one place a process gets its client",
        allow=("src/repro/cluster/service.py",),
    ),
    Guard(
        "no-polling-waits", 38, "call", ("time.sleep",),
        ("src/repro/net/", "src/repro/replication/", "src/repro/cluster/",
         "src/repro/txn/", "src/repro/api/", "src/repro/notify/"),
        "a sleep-poll where a blocking call waits; Transport.settle waits on "
        "the future, a local read on the space's insert condition and a "
        "watch on its subscription's, and whoever resolves them wakes them",
        allow=("src/repro/net/transport.py",),
    ),
    Guard(
        "one-event-log", 39, "path", ("src/repro/obs/trace.py", "src/repro/obs/flight.py"),
        (),
        "a second recorder module is back; every moment is one record() on "
        "repro.obs.events.EventLog, read through its phase and ring views",
    ),
    Guard(
        "one-event-log", 39, "name", ("Tracer", "FlightRecorder"), ("src/",),
        "a retired recorder class is back; record once on the EventLog",
    ),
    Guard(
        "read-only-lane", 40, "one-site", ("*execute_read_only",), ("src/",),
        "an unordered execution outside the ordering node; its one caller is "
        "OrderingNode._answer_read, behind the commit-frontier hold",
        allow=("src/repro/replication/pbft.py",),
    ),
    Guard(
        "fault-free-ordering-core", 45, "name",
        ("fault_mode", "is_silent", "ReplicaFaultMode"), _CORE,
        "a fault branch in the ordering core; a faulty replica is its row of "
        "the delivery core's fault table (replication/adversary.py)",
    ),
    Guard(
        "one-diagnosis-engine", 50, "name", ("_probe_*", "_analyze_*"), ("src/repro/obs/",),
        "a diagnoser writes its own thresholds again; a finding is one row of "
        "repro.obs.rules.RULES over Facts, which the monitor and the doctor both run",
        allow=("src/repro/obs/rules.py",),
    ),
    Guard(
        "one-vote-store", 55, "name",
        ("_prepares", "_commits", "_checkpoint_votes", "_state_responses",
         "_view_change_votes", "_sent_prepare", "_sent_commit", "self.quorum", "self.f"),
        _CORE,
        "a hand-built vote table or quorum size in the ordering core; cast the "
        "ballot in repro.replication.votes.VoteStore and ask it certified()",
    ),
    Guard(
        "guards-in-lint", 35, "name", ("grep",), (".github/workflows/ci.yml",),
        "an architecture guard belongs in this table, where tier-1 runs it "
        "and names are matched as tokens; a CI grep step runs only in CI",
    ),
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SUBWORD = re.compile(r"[A-Z]?[a-z]+|[A-Z]+(?![a-z])|[0-9]+")


@functools.lru_cache(maxsize=None)
def _pattern(patterns: tuple[str, ...]) -> re.Pattern[str]:
    """One regex for ``patterns``: a text matches when it, or a dotted
    tail of it, equals a pattern (``*`` matches any run of characters)."""
    bodies = (re.escape(pattern).replace(r"\*", ".*") for pattern in patterns)
    return re.compile(r"(?:.*\.)?(?:%s)\Z" % "|".join(bodies))


def _in(relpath: str, prefixes: Iterable[str]) -> bool:
    return any(
        relpath == prefix or (prefix.endswith("/") and relpath.startswith(prefix))
        for prefix in prefixes
    )


def _callee(node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    dotted = resolve_dotted(node.func)
    if dotted is None and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return dotted


class _Sites:
    """Everything one module spells that a guard can match, from a single
    walk of its tree: ``(text, node)`` pairs per kind."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.sites: dict[str, list[tuple[str, ast.AST]]] = {
            "name": [], "import": [], "except": [], "call": []
        }
        names, imports = self.sites["name"], self.sites["import"]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name):
                names.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                names.append((resolve_dotted(node) or node.attr, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append((node.name, node))
            elif isinstance(node, ast.arg):
                names.append((node.arg, node))
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.append((node.arg, node))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                names.extend((name, node) for name in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.append((alias.asname or alias.name, node))
                    imports.extend((part, node) for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                imports.extend((part, node) for part in parts if part)
                for alias in node.names:
                    names.append((alias.asname or alias.name, node))
                    imports.append((alias.name, node))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                self.sites["except"].extend(
                    (dotted, node) for dotted in map(resolve_dotted, caught) if dotted
                )
            elif isinstance(node, ast.Call):
                callee = _callee(node)
                if callee is not None:
                    self.sites["call"].append((callee, node))
        self._words: Optional[list[tuple[str, int]]] = None

    @property
    def words(self) -> list[tuple[str, int]]:
        """Lower-cased identifier sub-words of every line, comments and
        docstrings included."""
        if self._words is None:
            self._words = [
                (word.lower(), lineno)
                for lineno, line in enumerate(self.module.source.splitlines(), start=1)
                for word in _SUBWORD.findall(line)
            ]
        return self._words

    def hits(self, guard: Guard) -> Iterator[tuple[str, int]]:
        """``(found, line)`` for every site of this module ``guard`` forbids."""
        if guard.kind == "word":
            wanted = set(guard.patterns)
            yield from ((word, line) for word, line in self.words if word in wanted)
            return
        pattern = _pattern(guard.patterns)
        for text, node in self.sites["call" if guard.kind == "one-site" else guard.kind]:
            if pattern.match(text) is not None and _argument_matches(node, guard.arg):
                yield text, getattr(node, "lineno", 1)


def _argument_matches(node: ast.AST, arg: Optional[str]) -> bool:
    """A call guard's ``arg`` condition: any ``lambda`` argument, or a
    first argument that is itself a call matching ``arg``."""
    if arg is None:
        return True
    arguments = node.args if isinstance(node, ast.Call) else []
    if arg == "lambda":
        return any(isinstance(argument, ast.Lambda) for argument in arguments)
    first = _callee(arguments[0]) if arguments else None
    return first is not None and _pattern((arg,)).match(first) is not None


@register
class ArchitectureGuards(ProjectRule):
    """RL007 — the architecture guards of :data:`GUARDS`.

    Each guard protects one design decision (one client path, one
    counter store, an ordering core that orders opaque requests, one
    client tally, one key derivation per pair, one verify site, one perf
    gate, an index that never sorts, a one-loop matching kernel, a wire
    codec that never instantiates what the bytes name, blocking calls
    that wait on their future instead of polling, one event log).  The table keeps
    every one of them in the linter that tier-1 and CI both run.
    """

    id = "RL007"
    name = "architecture-guards"
    summary = "the design decisions of GUARDS: forbidden imports, names, calls and paths"

    def check_project(
        self, modules: Sequence[ModuleInfo], root: pathlib.Path
    ) -> Iterable[Violation]:
        base = root.resolve()
        located: list[tuple[str, _Sites]] = []
        for module in modules:
            try:
                relpath = module.path.resolve().relative_to(base).as_posix()
            except ValueError:
                continue
            located.append((relpath, _Sites(module)))
        for guard in GUARDS:
            if guard.kind == "path":
                yield from self._check_paths(guard, root)
            elif guard.kind == "one-site":
                yield from self._check_one_site(guard, located)
            else:
                for relpath, sites in located:
                    if _in(relpath, guard.scope) and not _in(relpath, guard.allow):
                        path = str(sites.module.path)
                        yield from self._first_per_line(guard, path, sites.hits(guard))
                yield from self._check_texts(guard, root)

    def _violation(self, guard: Guard, path: str, line: int, found: str) -> Violation:
        return Violation(
            rule=self.id,
            path=path,
            line=line,
            message=f"{guard.guard} (PR {guard.pr}): `{found}` — {guard.why}",
        )

    def _first_per_line(
        self, guard: Guard, path: str, hits: Iterable[tuple[str, int]]
    ) -> Iterator[Violation]:
        seen: set[int] = set()
        for found, line in hits:
            if line not in seen:
                seen.add(line)
                yield self._violation(guard, path, line, found)

    def _check_texts(self, guard: Guard, root: pathlib.Path) -> Iterator[Violation]:
        """A ``name`` guard's non-Python files: identifier-shaped words."""
        if guard.kind != "name":
            return
        pattern = _pattern(guard.patterns)
        for entry in guard.scope:
            path = root / entry
            if entry.endswith(("/", ".py")) or _in(entry, guard.allow) or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8")
            hits = (
                (word, lineno)
                for lineno, line in enumerate(text.splitlines(), start=1)
                for word in _IDENTIFIER.findall(line)
                if pattern.match(word)
            )
            yield from self._first_per_line(guard, str(path), hits)

    def _check_paths(self, guard: Guard, root: pathlib.Path) -> Iterator[Violation]:
        for pattern in guard.patterns:
            for path in sorted(root.glob(pattern)):
                relpath = path.relative_to(root).as_posix()
                if relpath not in guard.allow:
                    yield self._violation(guard, str(path), 1, relpath)

    def _check_one_site(
        self, guard: Guard, located: Sequence[tuple[str, _Sites]]
    ) -> Iterator[Violation]:
        """Every site outside the home module, and every one after the
        first inside it; no site at all when the home module is linted."""
        (home,) = guard.allow
        home_count: Optional[tuple[str, int]] = None
        for relpath, sites in located:
            if not _in(relpath, guard.scope):
                continue
            path = str(sites.module.path)
            hits = list(sites.hits(guard))
            if relpath == home:
                home_count = (path, len(hits))
                hits = hits[1:]
            for found, line in hits:
                yield self._violation(guard, path, line, found)
        if home_count is not None and home_count[1] == 0:
            yield self._violation(
                guard, home_count[0], 1, f"{guard.patterns[0]} has no site here"
            )
