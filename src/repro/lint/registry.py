"""The rule registry.

Each rule is a class with a unique ``TMOxxx`` id, registered at import
time via the :func:`register` decorator. The engine instantiates one
rule object per file; rules receive a :class:`FileContext` and yield
:class:`~repro.lint.violations.Violation` findings.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Set, Type

from repro.lint.astutil import ImportMap
from repro.lint.violations import Violation


class FileContext:
    """Everything a rule needs to know about the file under analysis."""

    def __init__(
        self,
        path: str,
        tree: ast.Module,
        source: str,
        options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.options = options or {}
        self._imports: Optional[ImportMap] = None
        self._nodes: Optional[List[ast.AST]] = None

    @property
    def imports(self) -> ImportMap:
        if self._imports is None:
            self._imports = ImportMap(self.tree)
        return self._imports

    @property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in :func:`ast.walk` order, walked once."""
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    def path_exempt(self) -> bool:
        """Whether this file is on the rule's exempt list."""
        suffixes = self.options.get("exempt_path_suffixes", ())
        normalized = self.path.replace("\\", "/")
        return any(normalized.endswith(suffix) for suffix in suffixes)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class LintRule:
    """Base class for all rules."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    #: True for whole-program rules, whose findings come from the flow
    #: passes' phase B rather than from :meth:`check`.
    flow: bool = False

    def check(self, ctx: FileContext) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            path=ctx.path,
            line=lineno,
            col=col,
            rule_id=self.rule_id,
            message=message,
            snippet=ctx.line_text(lineno),
        )


#: rule id -> rule class, populated by :func:`register`.
RULES: Dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls
    return cls


def all_rule_ids() -> List[str]:
    return sorted(RULES)


def flow_rule_ids() -> Set[str]:
    return {rule_id for rule_id, cls in RULES.items() if cls.flow}
