"""The ``tmo-lint`` / ``python -m repro.lint`` command line.

Exit codes: 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

import subprocess

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.config import default_config
from repro.lint.engine import (
    PARSE_ERROR_RULE,
    LintResult,
    iter_python_files,
    lint_paths,
)
from repro.lint.flow import DEFAULT_CACHE, analyze_flow
from repro.lint.registry import RULES
from repro.lint.violations import Violation

DEFAULT_PATHS = ("src", "benchmarks", "examples", "tests")
DEFAULT_BASELINE = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmo-lint",
        description=(
            "Determinism & unit-discipline static analysis for the TMO "
            "reproduction (rules TMO001-TMO021; see docs/LINTING.md)."
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
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="also run the whole-program analyses: unit-flow and "
             "determinism taint (TMO009-TMO012), state contracts "
             "(TMO015) and hot-path performance "
             "(TMO017-TMO021)",
    )
    parser.add_argument(
        "--profile", type=Path, default=None, metavar="FILE",
        help="tick-share profile written by 'python -m repro bench "
             "--profile' (requires --flow): escalates findings in "
             "measured-hot functions and fails on hot-but-unanalyzed "
             "functions above the configured share threshold",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only files changed relative to git HEAD "
             "(staged, unstaged and untracked); with --flow the "
             "analysis still reads the whole project for call "
             "resolution but reports only on changed files",
    )
    parser.add_argument(
        "--cache", type=Path, default=None, metavar="FILE",
        help=f"flow-analysis cache file (default: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="run the flow analysis without reading or writing a cache",
    )
    parser.add_argument(
        "--stats", type=Path, default=None, metavar="FILE",
        help="write a JSON rule-hit/cache-hit summary of the run to "
             "FILE (CI uploads it next to the flow cache)",
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


def _git_changed_files(parser: argparse.ArgumentParser) -> List[Path]:
    """Python files changed vs HEAD (staged, unstaged, untracked)."""
    names = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            parser.error(f"--changed requires a git checkout: {exc}")
        names.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    return [
        path for path in (Path(name) for name in sorted(names))
        if path.suffix == ".py" and path.exists()
    ]


def _list_rules() -> None:
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        print(f"{rule_id}  {rule.name:<26} {rule.summary}")
    print(f"{PARSE_ERROR_RULE}  {'parse-error':<26} "
          "file could not be parsed (always enabled)")


def _write_stats(
    target: Path,
    violations: List[Violation],
    result: LintResult,
    flow_result,
    stale: int,
) -> None:
    """Dump a machine-readable summary of the run (``--stats``)."""
    rule_hits: dict = {}
    for violation in violations:
        rule_hits[violation.rule_id] = rule_hits.get(violation.rule_id, 0) + 1
    payload = {
        "files_checked": result.files_checked,
        "violations_total": len(violations),
        "rule_hits": dict(sorted(rule_hits.items())),
        "rule_wall_s": {
            rule_id: round(seconds, 6)
            for rule_id, seconds in sorted(result.rule_wall_s.items())
        },
        "stale_baseline_entries": stale,
        "flow": (
            {
                "files_checked": flow_result.files_checked,
                "cache_hits": flow_result.cache_hits,
                "cache_misses": flow_result.cache_misses,
                "pass_wall_s": {
                    name: round(seconds, 6)
                    for name, seconds in sorted(
                        flow_result.pass_wall_s.items()
                    )
                },
                "hot_unanalyzed": len(flow_result.hot_unanalyzed),
            }
            if flow_result is not None else None
        ),
    }
    target.write_text(json.dumps(payload, indent=2) + "\n")


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

    profile = None
    if args.profile is not None:
        if not args.flow:
            parser.error("--profile requires --flow")
        from repro.lint.hotpath import ProfileError, load_profile
        try:
            profile = load_profile(args.profile)
        except ProfileError as exc:
            print(f"tmo-lint: error: {exc}", file=sys.stderr)
            return 2

    changed: Optional[set] = None
    if args.changed:
        changed = {p.resolve() for p in _git_changed_files(parser)}

    if changed is not None:
        lint_targets: List[Path] = [
            p for p in iter_python_files(paths, config)
            if p.resolve() in changed
        ]
    else:
        lint_targets = list(paths)

    result = lint_paths(lint_targets, config, select) if lint_targets \
        else LintResult()
    violations = list(result.violations)

    flow_result = None
    if args.flow:
        cache_path = None if args.no_cache else (
            args.cache or Path(DEFAULT_CACHE)
        )
        # The flow analysis always reads the full path set so cross-
        # module calls resolve; --changed only narrows what we report.
        flow_result = analyze_flow(
            paths, config, select, cache_path, profile=profile
        )
        flow_violations = flow_result.violations
        if changed is not None:
            flow_violations = [
                v for v in flow_violations
                if Path(v.path).resolve() in changed
            ]
        violations = list(dict.fromkeys(violations + flow_violations))
        violations.sort(key=Violation.sort_key)

    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE).exists():
        baseline_path = Path(DEFAULT_BASELINE)

    if args.write_baseline:
        target = args.baseline or Path(DEFAULT_BASELINE)
        count = write_baseline(target, violations)
        print(f"wrote {count} baseline entr"
              f"{'y' if count == 1 else 'ies'} to {target}")
        return 0

    stale = 0
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read baseline {baseline_path}: {exc}")
        violations, stale = apply_baseline(violations, baseline)

    if args.stats is not None:
        _write_stats(args.stats, violations, result, flow_result, stale)

    hot_unanalyzed = (
        flow_result.hot_unanalyzed if flow_result is not None else []
    )

    if args.format == "json":
        print(json.dumps(
            {
                "violations": [v.as_json() for v in violations],
                "files_checked": result.files_checked,
                "stale_baseline_entries": stale,
                "hot_unanalyzed": hot_unanalyzed,
            },
            indent=2,
        ))
    else:
        for violation in violations:
            print(violation.format_text())
        for entry in hot_unanalyzed:
            print(
                f"{entry['path']}:{entry['line']}: [hot-unanalyzed] "
                f"{entry['key']} measured {entry['share']:.1%} of tick "
                "time but is not reachable in the static hot region; "
                "extend the TMO017 entrypoints or fix call resolution"
            )
        if not args.quiet:
            noun = "violation" if len(violations) == 1 else "violations"
            print(
                f"{len(violations)} {noun} in "
                f"{result.files_checked} files"
                + (f" ({stale} stale baseline entries)" if stale else "")
                + (
                    f" ({len(hot_unanalyzed)} hot-but-unanalyzed "
                    "functions)" if hot_unanalyzed else ""
                )
            )

    return 1 if violations or hot_unanalyzed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
