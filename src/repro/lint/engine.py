"""File discovery and per-file rule execution."""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint import rules as _rules  # noqa: F401  (registers rules)
from repro.lint import statecontract as _statecontract  # noqa: F401  (TMO015)
from repro.lint import taint as _taint  # noqa: F401  (registers TMO012)
from repro.lint import unitflow as _unitflow  # noqa: F401  (TMO009-011)
from repro.lint.config import LintConfig, default_config
from repro.lint.ignores import collect_ignores, is_suppressed
from repro.lint.registry import RULES, FileContext
from repro.lint.violations import Violation

#: Pseudo rule id for files that could not be parsed; always enabled.
PARSE_ERROR_RULE = "TMO000"


@dataclass
class LintResult:
    """Outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    #: accumulated wall seconds per rule id across all files
    #: (surfaced by ``tmo-lint --stats`` as ``rule_wall_s``).
    rule_wall_s: Dict[str, float] = field(default_factory=dict)

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


def lint_file(
    path: Path,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
    rule_wall: Optional[Dict[str, float]] = None,
) -> List[Violation]:
    """Lint one file.

    Args:
        path: the file to analyse.
        config: rule sets and options; the repo default when None.
        select: run exactly these rule ids, overriding the per-scope
            configuration (the CLI's ``--select``).
        rule_wall: when given, per-rule wall seconds are accumulated
            into it (``lint_paths`` threads the result's counter
            through here for ``--stats``).
    """
    config = config or default_config()
    rel = path.as_posix()
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError) as exc:
        return [
            Violation(
                path=rel,
                line=getattr(exc, "lineno", 1) or 1,
                col=(getattr(exc, "offset", 1) or 1) - 1,
                rule_id=PARSE_ERROR_RULE,
                message=f"file could not be parsed: {exc}",
            )
        ]

    ignores, skip_file = collect_ignores(source)
    if skip_file:
        return []

    if select is not None:
        enabled = set(select)
    else:
        enabled = set(config.rules_for(rel))

    findings: List[Violation] = []
    for rule_id in sorted(enabled):
        rule_cls = RULES.get(rule_id)
        if rule_cls is None:
            raise ValueError(f"unknown rule id {rule_id!r}")
        ctx = FileContext(
            path=rel,
            tree=tree,
            source=source,
            options=config.options_for(rule_id),
        )
        start = time.perf_counter()  # lint: ignore[TMO002]
        for violation in rule_cls().check(ctx):
            if not is_suppressed(ignores, violation.line, rule_id):
                findings.append(violation)
        if rule_wall is not None:
            elapsed = time.perf_counter() - start  # lint: ignore[TMO002]
            rule_wall[rule_id] = rule_wall.get(rule_id, 0.0) + elapsed
    findings.sort(key=Violation.sort_key)
    return findings


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint files and directories; the programmatic entry point."""
    config = config or default_config()
    result = LintResult()
    for path in iter_python_files(paths, config):
        result.violations.extend(
            lint_file(path, config, select, rule_wall=result.rule_wall_s)
        )
        result.files_checked += 1
    result.violations.sort(key=Violation.sort_key)
    return result
