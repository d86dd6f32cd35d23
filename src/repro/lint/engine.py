"""repro.lint.engine — the rule engine behind ``python -m repro.lint``.

The linter encodes this repository's *unwritten* invariants — the rules
every PR has so far obeyed by convention — as checkable AST analyses:
determinism purity of the replay core, the guarded event-log convention,
wire-codec completeness, metric-family hygiene, handler containment on
the real transports and bounded per-request bookkeeping.  It is
zero-dependency (stdlib ``ast`` only) so it can run first in CI, before
any test dependency is installed.

Architecture
------------

* :class:`ModuleInfo` — one parsed source file: its AST, a lazily built
  parent map, its dotted module name (derived from the ``src/`` layout)
  and the pragma index parsed from comments.
* :class:`Rule` — a per-file analysis scoped to dotted-module prefixes;
  :class:`ProjectRule` — a cross-module analysis that sees every file of
  the run at once, plus the project root (codec completeness,
  metric-name consistency, the architecture guards' table).
* :class:`LintEngine` — collects files, runs every applicable rule and
  filters the raw findings through the pragma index.

Pragmas (comments, never executed)::

    x = risky()  # repro-lint: disable=RL001        suppress on this line
    # repro-lint: disable=RL001,RL006               ... or for the next line
    # repro-lint: disable-file=RL001                whole-file suppression
    # repro-lint: scope=RL005                       force a rule in scope
    # repro-lint: role=messages                     cross-module role marker

``scope=`` and ``role=`` exist for fixture files (and out-of-tree code)
that should be checked by rules whose default scope is a ``repro.*``
module prefix.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
import tokenize
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

__all__ = [
    "Violation",
    "ModuleInfo",
    "Rule",
    "ProjectRule",
    "LintEngine",
    "register",
    "all_rules",
    "dotted_name",
    "PRAGMA_RE",
]

#: ``# repro-lint: <directive>=<RULE[,RULE...]>`` anywhere in a comment.
PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<directive>disable-file|disable|scope|role)\s*=\s*"
    r"(?P<args>[A-Za-z0-9_,\- ]+)"
)

#: Wildcard rule set for ``disable=all``.
ALL_RULES = "all"


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding: rule id, file, line and a human-readable message."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def dotted_name(path: pathlib.Path) -> str:
    """Best-effort dotted module name for ``path``.

    ``src/repro/net/codec.py`` → ``repro.net.codec``; for files outside a
    ``src``/package layout the parts after the last ``src`` (or the bare
    stem) are used, so fixture files never collide with real modules.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src",):
        if anchor in parts:
            parts = parts[len(parts) - parts[::-1].index(anchor):]
            return ".".join(parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts)
    return ".".join(parts[-2:]) if len(parts) >= 2 else ".".join(parts)


class ModuleInfo:
    """One parsed file plus its pragma index and (lazy) AST parent map."""

    def __init__(self, path: pathlib.Path, source: str, *, name: Optional[str] = None):
        self.path = path
        self.source = source
        self.name = name if name is not None else dotted_name(path)
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        #: line → set of rule ids disabled on that line (or ALL_RULES).
        self.line_disables: dict[int, set[str]] = {}
        self.file_disables: set[str] = set()
        self.forced_scope: set[str] = set()
        self.roles: set[str] = set()
        self._parents: Optional[dict[ast.AST, ast.AST]] = None
        self._parse_pragmas()

    # -- pragmas -------------------------------------------------------

    def _parse_pragmas(self) -> None:
        code_lines = {
            node.lineno
            for node in ast.walk(self.tree)
            if hasattr(node, "lineno")
        }
        for lineno, text in enumerate(self.source.splitlines(), start=1):
            match = PRAGMA_RE.search(text)
            if match is None:
                continue
            directive = match.group("directive")
            args = {arg.strip() for arg in match.group("args").split(",") if arg.strip()}
            if directive == "disable-file":
                self.file_disables |= args
            elif directive == "disable":
                stripped = text.strip()
                if stripped.startswith("#") and lineno not in code_lines:
                    # Standalone pragma comment: applies to the next code
                    # line, skipping the rest of the comment block (a
                    # pragma may carry a multi-line justification).
                    following = [line for line in code_lines if line > lineno]
                    target = min(following) if following else lineno + 1
                else:
                    target = lineno
                self.line_disables.setdefault(target, set()).update(args)
            elif directive == "scope":
                self.forced_scope |= args
            elif directive == "role":
                self.roles |= {arg.lower() for arg in args}

    def suppressed(self, violation: Violation) -> bool:
        if ALL_RULES in self.file_disables or violation.rule in self.file_disables:
            return True
        disables = self.line_disables.get(violation.line, ())
        return ALL_RULES in disables or violation.rule in disables

    # -- AST helpers shared by rules -----------------------------------

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child → parent map over the whole tree (built once, on demand)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=rule,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            message=message,
        )


class Rule:
    """A per-file analysis.

    Subclasses set ``id``/``name``/``summary``, the default dotted-module
    ``scope`` (empty = every file) and optional ``exclude`` prefixes, and
    implement :meth:`check_module`.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    scope: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies(self, module: ModuleInfo) -> bool:
        if self.id in module.forced_scope:
            return True
        if any(_prefix_match(module.name, prefix) for prefix in self.exclude):
            return False
        if not self.scope:
            return True
        return any(_prefix_match(module.name, prefix) for prefix in self.scope)

    def check_module(self, module: ModuleInfo) -> Iterable[Violation]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A cross-module analysis: sees every in-scope file of the run and
    the project root the run's relative paths (and non-Python files such
    as ``README.md``) are resolved against."""

    def check_module(self, module: ModuleInfo) -> Iterable[Violation]:
        return ()

    def check_project(
        self, modules: Sequence[ModuleInfo], root: pathlib.Path
    ) -> Iterable[Violation]:
        raise NotImplementedError


def _prefix_match(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


#: Global registry, populated by the ``@register`` decorator in the rule
#: modules; iteration order is registration order.
_REGISTRY: dict[str, Rule] = {}


def register(cls: type) -> type:
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    _REGISTRY[instance.id] = instance
    return cls


def all_rules() -> tuple[Rule, ...]:
    _ensure_rules_loaded()
    return tuple(_REGISTRY.values())


def _ensure_rules_loaded() -> None:
    # Imported lazily to avoid a registration cycle at package import.
    from repro.lint import guards, project_rules, rules  # noqa: F401


class LintEngine:
    """Collects files, runs the rules, applies pragma suppression.

    ``root`` is the project root (default: the working directory) that
    project rules resolve paths against.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        *,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        root: str | pathlib.Path = ".",
    ):
        self.root = pathlib.Path(root)
        chosen = tuple(rules) if rules is not None else all_rules()
        if select is not None:
            wanted = set(select)
            chosen = tuple(rule for rule in chosen if rule.id in wanted)
        if ignore is not None:
            unwanted = set(ignore)
            chosen = tuple(rule for rule in chosen if rule.id not in unwanted)
        self.rules = chosen

    # -- file collection -----------------------------------------------

    @staticmethod
    def collect_files(
        paths: Iterable[str | pathlib.Path],
        exclude: Iterable[str | pathlib.Path] = (),
    ) -> list[pathlib.Path]:
        """Every ``*.py`` file under ``paths``, minus those under ``exclude``."""
        files: list[pathlib.Path] = []
        seen: set[pathlib.Path] = set()
        excluded = [pathlib.Path(raw).resolve() for raw in exclude]
        for raw in paths:
            path = pathlib.Path(raw)
            candidates: Iterable[pathlib.Path]
            if path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            else:
                candidates = [path]
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved in seen or any(
                    skip == resolved or skip in resolved.parents for skip in excluded
                ):
                    continue
                seen.add(resolved)
                files.append(candidate)
        return files

    def load(self, path: pathlib.Path) -> ModuleInfo | Violation:
        """Parse one file; a syntax/encoding failure is itself a finding."""
        try:
            with tokenize.open(path) as handle:
                source = handle.read()
            return ModuleInfo(path, source)
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            return Violation(
                rule="RL000",
                path=str(path),
                line=line,
                message=f"file could not be parsed: {type(error).__name__}: {error}",
            )

    # -- running -------------------------------------------------------

    def lint_paths(
        self,
        paths: Iterable[str | pathlib.Path],
        exclude: Iterable[str | pathlib.Path] = (),
    ) -> list[Violation]:
        modules: list[ModuleInfo] = []
        findings: list[Violation] = []
        for path in self.collect_files(paths, exclude):
            loaded = self.load(path)
            if isinstance(loaded, Violation):
                findings.append(loaded)
            else:
                modules.append(loaded)
        findings.extend(self.lint_modules(modules))
        findings.sort(key=lambda v: (v.path, v.line, v.rule))
        return findings

    def lint_modules(self, modules: Sequence[ModuleInfo]) -> list[Violation]:
        by_path = {str(module.path): module for module in modules}
        raw: list[Violation] = []
        for rule in self.rules:
            in_scope = [module for module in modules if rule.applies(module)]
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(in_scope, self.root))
            else:
                for module in in_scope:
                    raw.extend(rule.check_module(module))
        kept = []
        for violation in raw:
            module = by_path.get(violation.path)
            if module is not None and module.suppressed(violation):
                continue
            kept.append(violation)
        return kept


# ----------------------------------------------------------------------
# Shared AST utilities used by several rules
# ----------------------------------------------------------------------

def resolve_dotted(node: ast.AST) -> Optional[str]:
    """Render an attribute chain as a dotted string (``self._events.record``).

    Returns ``None`` for chains rooted in calls/subscripts — those are
    dynamic and no rule tries to reason about them.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → canonical dotted origin, from import statements.

    ``import time as t`` → ``{"t": "time"}``; ``from time import time`` →
    ``{"time": "time.time"}``; ``from os import urandom as u`` →
    ``{"u": "os.urandom"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def canonical_call_name(node: ast.AST, aliases: dict[str, str]) -> Optional[str]:
    """Resolve a call/attribute target through the import alias table.

    ``t.monotonic`` with ``import time as t`` → ``"time.monotonic"``;
    unresolvable (locals, call results) → ``None``.
    """
    dotted = resolve_dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin
