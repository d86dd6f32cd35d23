"""Cross-module rules: RL003 codec completeness, RL004 metric-name
consistency.

These rules need to see more than one file at once: RL003 diffs the
message dataclasses of ``replication/messages.py`` against the codec's
wire registry, RL004 audits every metric-family creation site in the
run for kind conflicts and near-miss (typo) names.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.engine import (
    ModuleInfo,
    ProjectRule,
    Violation,
    register,
    resolve_dotted,
)

__all__ = ["CodecCompleteness", "MetricNameConsistency"]


def _find_role(
    modules: Sequence[ModuleInfo], role: str, path_suffix: str
) -> Optional[ModuleInfo]:
    """A module explicitly marked ``# repro-lint: role=<role>`` wins;
    otherwise the module whose path ends with ``path_suffix``."""
    for module in modules:
        if role in module.roles:
            return module
    for module in modules:
        if str(module.path).replace("\\", "/").endswith(path_suffix):
            return module
    return None


def _dataclass_names(module: ModuleInfo) -> dict[str, int]:
    """Public top-level ``@dataclass`` class names → definition line."""
    names: dict[str, int] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            dotted = resolve_dotted(target) or ""
            if dotted.split(".")[-1] == "dataclass":
                names[node.name] = node.lineno
                break
    return names


def _registered_names(module: ModuleInfo) -> Optional[tuple[dict[str, int], int]]:
    """Class names referenced inside the ``MESSAGE_CLASSES`` assignment."""
    for node in ast.walk(module.tree):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(
            isinstance(target, ast.Name) and target.id == "MESSAGE_CLASSES"
            for target in targets
        ):
            continue
        value = node.value
        assert value is not None
        names: dict[str, int] = {}
        for sub in ast.walk(value):
            if isinstance(sub, ast.Attribute) and sub.attr[:1].isupper():
                names.setdefault(sub.attr, sub.lineno)
            elif isinstance(sub, ast.Name) and sub.id[:1].isupper():
                names.setdefault(sub.id, sub.lineno)
        return names, node.lineno
    return None


@register
class CodecCompleteness(ProjectRule):
    """RL003 — every wire message round-trips through the wire codec.

    The PR 5 invariant: the TCP transport can only carry message classes
    registered in ``repro/net/codec.py``'s ``MESSAGE_CLASSES``.  A new
    dataclass in ``replication/messages.py`` that is never registered
    works fine on the simulated and loopback transports (which pass
    objects by reference) and then fails at the first real deployment —
    the worst possible place to discover it.  The reverse direction
    catches registrations that outlive a deleted message type.
    """

    id = "RL003"
    name = "codec-completeness"
    summary = "replication/messages.py dataclasses and net/codec.py MESSAGE_CLASSES must match"

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterable[Violation]:
        messages = _find_role(modules, "messages", "replication/messages.py")
        codec = _find_role(modules, "codec", "net/codec.py")
        if messages is None or codec is None:
            # Partial runs (single files, fixtures without both roles)
            # cannot be diffed; the full-tree CI run always has both.
            return
        message_names = _dataclass_names(messages)
        registered = _registered_names(codec)
        if registered is None:
            yield codec.violation(
                self.id,
                codec.tree,
                "codec module has no MESSAGE_CLASSES registry assignment",
            )
            return
        registered_names, registry_line = registered
        for name in sorted(set(message_names) - set(registered_names)):
            yield Violation(
                rule=self.id,
                path=str(codec.path),
                line=registry_line,
                message=(
                    f"message dataclass {name!r} (defined in {messages.path}) "
                    "has no tag in MESSAGE_CLASSES — it cannot cross the TCP "
                    "transport"
                ),
            )
        for name in sorted(set(registered_names) - set(message_names)):
            yield Violation(
                rule=self.id,
                path=str(codec.path),
                line=registered_names[name],
                message=(
                    f"MESSAGE_CLASSES registers {name!r} which is not a "
                    f"message dataclass in {messages.path} — stale or typo'd "
                    "registration"
                ),
            )


_METRIC_KINDS = {"counter", "gauge", "histogram"}
_METRIC_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def _metric_sites(module: ModuleInfo) -> Iterator[tuple[str, Optional[str], ast.Call]]:
    """``(kind, literal_name_or_None, call)`` for each family-creation site.

    A site is a ``.counter(...)``/``.gauge(...)``/``.histogram(...)`` call
    whose receiver expression mentions a registry (``registry.counter``,
    ``self._registry.gauge``, ``obs.registry.histogram``) — which skips
    the registry implementation's own ``self.counter`` plumbing.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _METRIC_KINDS):
            continue
        receiver = resolve_dotted(func.value) or ""
        if "registry" not in receiver.lower():
            continue
        name: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            name = node.args[0].value
        yield func.attr, name, node


def _edit_distance_is_one(a: str, b: str) -> bool:
    """True iff Levenshtein distance between two *distinct* names is 1."""
    if a == b or abs(len(a) - len(b)) > 1:
        return False
    if len(a) == len(b):
        return sum(x != y for x, y in zip(a, b)) == 1
    if len(a) > len(b):
        a, b = b, a
    # b is a plus one inserted character
    i = j = edits = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
        else:
            edits += 1
            if edits > 1:
                return False
            j += 1
    return True


@register
class MetricNameConsistency(ProjectRule):
    """RL004 — metric family names cannot silently split.

    ``MetricsRegistry`` is get-or-create by name: a typo'd family name at
    one instrumentation site does not fail, it silently creates a second
    family and splits the counter across both — invisible until someone
    graphs the data.  The rule requires literal, well-formed names at
    instrumentation sites, one kind per name across the whole tree, and
    flags pairs of distinct names within edit distance 1 (the typo
    signature).
    """

    id = "RL004"
    name = "metric-name-consistency"
    summary = "metric family names: literal, well-formed, one kind, no near-miss pairs"
    scope = ("repro",)
    exclude = ("repro.obs.registry",)

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterable[Violation]:
        # name → (kind, first site module, first site node)
        first_seen: dict[str, tuple[str, ModuleInfo, ast.Call]] = {}
        for module in modules:
            for kind, name, node in _metric_sites(module):
                if name is None:
                    yield module.violation(
                        self.id,
                        node,
                        f"metric family name passed to .{kind}() must be a "
                        "string literal at instrumentation sites (dynamic "
                        "names cannot be audited for typo splits)",
                    )
                    continue
                if _METRIC_NAME_RE.fullmatch(name) is None:
                    yield module.violation(
                        self.id,
                        node,
                        f"metric family name {name!r} is not snake_case "
                        "([a-z][a-z0-9_]*)",
                    )
                    continue
                seen = first_seen.get(name)
                if seen is None:
                    first_seen[name] = (kind, module, node)
                elif seen[0] != kind:
                    yield module.violation(
                        self.id,
                        node,
                        f"metric family {name!r} created as {kind} here but "
                        f"as {seen[0]} at {seen[1].path}:{seen[2].lineno} — "
                        "one family, one kind",
                    )
        names = sorted(first_seen)
        for index, name in enumerate(names):
            for other in names[index + 1:]:
                if _edit_distance_is_one(name, other):
                    kind, module, node = first_seen[other]
                    first = first_seen[name]
                    yield module.violation(
                        self.id,
                        node,
                        f"metric family {other!r} is within one edit of "
                        f"{name!r} (created at {first[1].path}:"
                        f"{first[2].lineno}) — near-miss names silently split "
                        "a family; rename one or add a disable pragma if "
                        "both are intentional",
                    )
