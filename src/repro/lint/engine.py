"""The one lint run: discover, parse once, run the per-file rules.

Every file is read, parsed and scanned for ``# lint:`` comments once.
The rules its directory's scope enables (or ``select`` names) run over
that tree, and their findings go through the inline suppression
comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
)

from repro.lint import rules as _rules  # noqa: F401  (registers rules)
from repro.lint.config import LintConfig, default_config
from repro.lint.ignores import collect_ignores, is_suppressed
from repro.lint.registry import RULES, FileContext
from repro.lint.violations import Violation

#: Pseudo rule id for files that could not be parsed; always enabled.
PARSE_ERROR_RULE = "TMO000"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


def iter_python_files(
    paths: Sequence[Path], config: LintConfig
) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Directory recursion honours ``config.exclude_dirs``; explicitly
    named files are always included.
    """
    out: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path)
                if any(
                    part in config.exclude_dirs
                    for part in relative.parts[:-1]
                ):
                    continue
                out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint files and directories with every enabled rule.

    Args:
        paths: files and directories to analyse.
        config: rule sets and options; the repo default when None.
        select: run exactly these rule ids everywhere, overriding the
            per-scope configuration (the CLI's ``--select``).
    """
    config = config or default_config()
    selected = None if select is None else set(select)
    for rule_id in sorted(selected or ()):
        if rule_id not in RULES:
            raise ValueError(f"unknown rule id {rule_id!r}")
    result = LintResult()
    for path in iter_python_files(paths, config):
        result.files_checked += 1
        rel = path.as_posix()
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, ValueError) as exc:
            result.violations.append(Violation(
                path=rel,
                line=getattr(exc, "lineno", 1) or 1,
                col=(getattr(exc, "offset", 1) or 1) - 1,
                rule_id=PARSE_ERROR_RULE,
                message=f"file could not be parsed: {exc}",
            ))
            continue
        ignores, skip_file = collect_ignores(source)
        if skip_file:
            continue
        enabled = config.rules_for(rel) if selected is None else selected
        result.violations.extend(
            _check_file(rel, tree, source, ignores, enabled, config)
        )
    result.violations.sort(key=Violation.sort_key)
    return result


def _check_file(
    rel: str,
    tree: ast.Module,
    source: str,
    ignores: Dict[int, Set[str]],
    rule_ids: AbstractSet[str],
    config: LintConfig,
) -> Iterator[Violation]:
    """Run the per-file rules over one parsed file."""
    ctx = FileContext(path=rel, tree=tree, source=source)
    for rule_id in sorted(rule_ids):
        ctx.options = config.options_for(rule_id)
        for violation in RULES[rule_id]().check(ctx):
            if not is_suppressed(ignores, violation.line, rule_id):
                yield violation
