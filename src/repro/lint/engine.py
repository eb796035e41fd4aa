"""The one lint run: discover, parse once, per-file rules, flow passes.

Every file is read, parsed and scanned for ``# lint:`` comments once.
The per-file rules (TMO001-TMO008, TMO013) run over that tree; files
where some whole-program rule is enabled (by scope or by ``select``)
then hand the same tree to phase A of :mod:`repro.lint.unitflow`,
:mod:`repro.lint.taint` and :mod:`repro.lint.statecontract`. Phase B
evaluates the combined facts, and its findings go through the same
scope configuration and suppression comments as the per-file ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
)

from repro.lint import rules as _rules  # noqa: F401  (registers rules)
from repro.lint import statecontract as _statecontract
from repro.lint import taint as _taint
from repro.lint import unitflow as _unitflow
from repro.lint.callgraph import ProjectIndex, index_module, module_name_for
from repro.lint.config import LintConfig, default_config
from repro.lint.ignores import collect_ignores, is_suppressed
from repro.lint.registry import RULES, FileContext, flow_rule_ids
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


@dataclass
class _FlowFile:
    """A parsed file whose flow facts phase A collects."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    ignores: Dict[int, Set[str]]
    skip_file: bool
    enabled: AbstractSet[str]


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
    flow_ids = flow_rule_ids()
    result = LintResult()
    flow_files: List[_FlowFile] = []
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
        enabled = config.rules_for(rel) if selected is None else selected
        if not skip_file:
            result.violations.extend(_check_file(
                rel, tree, source, ignores, enabled - flow_ids, config
            ))
        if enabled & flow_ids:
            flow_files.append(_FlowFile(
                path, rel, source, tree, ignores, skip_file,
                enabled & flow_ids,
            ))
    result.violations.extend(_check_flow(flow_files, config))
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


def _check_flow(
    files: Sequence[_FlowFile], config: LintConfig
) -> Iterator[Violation]:
    """Phase A over each file's tree, then phase B over all the facts."""
    index = ProjectIndex()
    modules = []
    for file in files:
        module = index_module(module_name_for(file.path), file.rel, file.tree)
        index.add(module)
        modules.append(module)
    sink_options = config.options_for("TMO012")
    facts_by_path = {
        file.rel: {
            "unit": _unitflow.collect_module(module, index, file.source),
            "taint": _taint.collect_module(
                module, index, file.source, sink_options
            ),
            "state": _statecontract.collect_module(module, index, file.source),
        }
        for file, module in zip(files, modules)
    }
    by_path = {file.rel: file for file in files}
    state_options = {"TMO015": config.options_for("TMO015")}
    for violation in (
        *_unitflow.check(facts_by_path),
        *_taint.check(facts_by_path),
        *_statecontract.check(facts_by_path, state_options),
    ):
        file = by_path.get(violation.path)
        if (
            file is None
            or file.skip_file
            or violation.rule_id not in file.enabled
            or is_suppressed(file.ignores, violation.line, violation.rule_id)
        ):
            continue
        yield violation
