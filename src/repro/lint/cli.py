"""The ``tmo-lint`` / ``python -m repro.lint`` command line.

One run checks every rule its directory's scope enables, file by file.
Exit codes: 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.config import default_config
from repro.lint.engine import PARSE_ERROR_RULE, lint_paths
from repro.lint.registry import RULES

DEFAULT_PATHS = ("src", "benchmarks", "examples", "tests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmo-lint",
        description=(
            "Determinism & unit-discipline static analysis for the TMO "
            "reproduction. One run checks the per-file rules "
            "(TMO001-TMO008, TMO013) wherever their directory's scope "
            "enables them; see docs/LINTING.md."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help=f"files or directories (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run, overriding the "
             "per-directory configuration (e.g. TMO001,TMO005)",
    )
    parser.add_argument(
        "--disable", metavar="RULES",
        help="comma-separated rule ids to switch off everywhere",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line (violations still print)",
    )
    return parser


def _parse_rule_list(
    parser: argparse.ArgumentParser, value: Optional[str]
) -> Optional[List[str]]:
    if value is None:
        return None
    rule_ids = [part.strip() for part in value.split(",") if part.strip()]
    unknown = [r for r in rule_ids if r not in RULES]
    if unknown:
        parser.error(
            f"unknown rule id(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return rule_ids


def _list_rules() -> None:
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        print(f"{rule_id}  {rule.name:<26} {rule.summary}")
    print(f"{PARSE_ERROR_RULE}  {'parse-error':<26} "
          "file could not be parsed (always enabled)")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # grep does. Re-point stdout at devnull so the interpreter's
        # exit-time flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    select = _parse_rule_list(parser, args.select)
    disable = _parse_rule_list(parser, args.disable)

    paths = args.paths or [Path(p) for p in DEFAULT_PATHS]
    paths = [p for p in paths if p.exists()]
    if not paths:
        parser.error("none of the given paths exist")

    config = default_config()
    if disable:
        config.scope_rules = {
            scope: rules - set(disable)
            for scope, rules in config.scope_rules.items()
        }
        if select is not None:
            select = [r for r in select if r not in disable]

    result = lint_paths(paths, config, select)
    violations = result.violations

    if args.format == "json":
        print(json.dumps(
            {
                "violations": [v.as_json() for v in violations],
                "files_checked": result.files_checked,
            },
            indent=2,
        ))
    else:
        for violation in violations:
            print(violation.format_text())
        if not args.quiet:
            noun = "violation" if len(violations) == 1 else "violations"
            print(
                f"{len(violations)} {noun} in "
                f"{result.files_checked} files"
            )

    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
