"""Whole-program flow analysis driver (``tmo-lint --flow``).

Coordinates the interprocedural passes over every file the engine
would lint:

1. discover files and hash their contents;
2. reuse the per-file analysis facts from the on-disk cache when the
   file (and the project interface it was resolved against) is
   unchanged, otherwise parse and run phase A of
   :mod:`repro.lint.unitflow` and :mod:`repro.lint.taint`;
3. evaluate phase B over the combined facts and filter findings
   through the same scope configuration and ``# lint: ignore``
   machinery as the per-statement rules.

The cache (default ``.tmo-lint-cache.json``) is keyed by file content
hashes plus a digest of every module's *interface* (which functions,
classes and imports exist): editing a function body invalidates only
that file's facts, while renaming a function re-analyses everything
that could have resolved a call to it. Phase B is always recomputed —
it is pure expression evaluation and costs milliseconds.
"""

from __future__ import annotations

import ast
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.lint import hotpath as _hotpath
from repro.lint import statecontract as _statecontract
from repro.lint import taint as _taint
from repro.lint import unitflow as _unitflow
from repro.lint.callgraph import (
    ModuleInfo,
    ProjectIndex,
    index_module,
    module_from_json,
    module_name_for,
    module_to_json,
)
from repro.lint.config import LintConfig, default_config
from repro.lint.engine import PARSE_ERROR_RULE, iter_python_files
from repro.lint.ignores import collect_ignores, is_suppressed
from repro.lint.registry import RULES
from repro.lint.violations import Violation

CACHE_VERSION = 5
DEFAULT_CACHE = ".tmo-lint-cache.json"


def flow_rule_ids() -> Set[str]:
    return {rule_id for rule_id, cls in RULES.items() if cls.flow}


@dataclass
class FlowResult:
    """Outcome of one whole-program analysis run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: wall seconds per flow pass (phase A collection + phase B check),
    #: keyed "unitflow"/"taint"/"state"/"hotpath" — surfaced by --stats.
    pass_wall_s: Dict[str, float] = field(default_factory=dict)
    #: profile cross-check results (``tmo-lint --flow --profile``):
    #: functions measured hot but outside the static hot region, each
    #: ``{"key", "share", "path", "line"}``.
    hot_unanalyzed: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.hot_unanalyzed


@dataclass
class _FileState:
    path: Path
    rel: str
    digest: str
    source: Optional[str] = None
    tree: Optional[ast.Module] = None
    module: Optional[ModuleInfo] = None
    facts: Optional[Dict[str, Any]] = None          # {"unit":…, "taint":…}
    ignores: Dict[int, Set[str]] = field(default_factory=dict)
    skip_file: bool = False
    parse_error: Optional[Violation] = None
    from_cache: bool = False
    cached_interface_digest: str = ""


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_cache(cache_path: Optional[Path]) -> Dict[str, Any]:
    if cache_path is None:
        return {}
    try:
        data = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(
    cache_path: Optional[Path],
    states: Sequence[_FileState],
    interface_digest: str,
) -> None:
    if cache_path is None:
        return
    files: Dict[str, Any] = {}
    for state in states:
        if state.facts is None or state.module is None:
            continue
        files[state.rel] = {
            "hash": state.digest,
            "interface_digest": interface_digest,
            "interface": module_to_json(state.module),
            "facts": state.facts,
            "ignores": {
                str(line): sorted(rules)
                for line, rules in state.ignores.items()
            },
            "skip_file": state.skip_file,
        }
    payload = {"version": CACHE_VERSION, "files": files}
    try:
        cache_path.write_text(json.dumps(payload) + "\n")
    except OSError:
        pass  # a read-only checkout just runs uncached


def _parse_state(state: _FileState) -> None:
    """Read + parse one file into its state; record parse failures."""
    try:
        state.source = state.path.read_text()
        state.tree = ast.parse(state.source, filename=str(state.path))
    except (SyntaxError, ValueError) as exc:
        state.parse_error = Violation(
            path=state.rel,
            line=getattr(exc, "lineno", 1) or 1,
            col=(getattr(exc, "offset", 1) or 1) - 1,
            rule_id=PARSE_ERROR_RULE,
            message=f"file could not be parsed: {exc}",
        )
        state.tree = None


def _options_digest(config: LintConfig) -> str:
    flow_options = {
        rule_id: config.options_for(rule_id)
        for rule_id in sorted(flow_rule_ids())
    }
    return _hash_bytes(
        json.dumps(flow_options, sort_keys=True, default=sorted).encode()
    )


def analyze_flow(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
    cache_path: Optional[Path] = None,
    profile: Optional[Dict[str, Any]] = None,
) -> FlowResult:
    """Run the interprocedural passes over ``paths``.

    ``select`` restricts reported rules (same contract as the engine's
    ``--select``); the analysis itself always runs in full so the
    cache stays coherent regardless of rule selection. ``profile`` is
    a loaded tick-share document (:func:`repro.lint.hotpath.
    load_profile`): findings in measured-hot functions are escalated
    and ``FlowResult.hot_unanalyzed`` is populated.
    """
    config = config or default_config()
    result = FlowResult()
    files = iter_python_files(paths, config)
    result.files_checked = len(files)
    if not files:
        return result

    cached_files = _load_cache(cache_path)
    options_digest = _options_digest(config)

    # -- pass 1: hash, and decide reuse-vs-parse per file -------------
    states: List[_FileState] = []
    for path in files:
        rel = path.as_posix()
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        state = _FileState(path=path, rel=rel, digest=_hash_bytes(raw))
        entry = cached_files.get(rel)
        if entry is not None and entry.get("hash") == state.digest:
            state.module = module_from_json(entry["interface"])
            state.facts = entry.get("facts")
            state.ignores = {
                int(line): set(rules)
                for line, rules in entry.get("ignores", {}).items()
            }
            state.skip_file = bool(entry.get("skip_file"))
            state.from_cache = True
            state.cached_interface_digest = entry.get("interface_digest", "")
        else:
            _parse_state(state)
            if state.tree is not None:
                state.module = index_module(
                    module_name_for(path), rel, state.tree
                )
        states.append(state)

    # -- pass 2: assemble the project index and interface digest ------
    index = ProjectIndex()
    for state in states:
        if state.module is not None:
            index.add(state.module)
    interface_parts = [
        json.dumps(module_to_json(state.module), sort_keys=True)
        for state in states if state.module is not None
    ]
    interface_digest = _hash_bytes(
        ("\n".join(sorted(interface_parts)) + options_digest).encode()
    )

    # -- pass 3: (re-)collect facts where needed ----------------------
    sink_options = config.options_for("TMO012")
    state_options = {"TMO015": config.options_for("TMO015")}
    hot_options = {
        rule_id: config.options_for(rule_id)
        for rule_id in ("TMO017", "TMO018", "TMO019", "TMO020", "TMO021")
    }
    pass_wall = {"unitflow": 0.0, "taint": 0.0, "state": 0.0,
                 "hotpath": 0.0}

    def _timed(pass_name: str, thunk):
        start = time.perf_counter()  # lint: ignore[TMO002]
        value = thunk()
        pass_wall[pass_name] += time.perf_counter() - start  # lint: ignore[TMO002]
        return value

    for state in states:
        if state.module is None:
            continue
        stale = (
            state.from_cache
            and state.cached_interface_digest != interface_digest
        )
        if state.from_cache and not stale and state.facts is not None:
            result.cache_hits += 1
            continue
        result.cache_misses += 1
        if state.tree is None:
            _parse_state(state)
            if state.tree is None:
                state.module = None
                continue
            state.module = index_module(
                module_name_for(state.path), state.rel, state.tree
            )
            index.add(state.module)
        assert state.source is not None
        state.module.tree = state.tree
        module, source = state.module, state.source
        state.facts = {
            "unit": _timed("unitflow", lambda: _unitflow.collect_module(
                module, index, source
            )),
            "taint": _timed("taint", lambda: _taint.collect_module(
                module, index, source, sink_options
            )),
            "state": _timed("state", lambda: _statecontract.collect_module(
                module, index, source
            )),
            "hot": _timed("hotpath", lambda: _hotpath.collect_module(
                module, index, source, hot_options
            )),
        }
        ignores, skip_file = collect_ignores(state.source)
        state.ignores = ignores
        state.skip_file = skip_file
        state.module.tree = None  # keep cache entries AST-free

    # -- pass 4: evaluate and filter ----------------------------------
    facts_by_path = {
        state.rel: state.facts
        for state in states
        if state.facts is not None
    }
    flow_ids = flow_rule_ids()
    if select is not None:
        selected = set(select) & flow_ids
    else:
        selected = None

    ignore_map = {state.rel: state for state in states}
    findings: List[Violation] = []
    for state in states:
        if state.parse_error is not None:
            findings.append(state.parse_error)

    raw = _timed("unitflow", lambda: list(_unitflow.check(facts_by_path)))
    raw.extend(_timed("taint", lambda: list(_taint.check(facts_by_path))))
    raw.extend(_timed("state", lambda: list(
        _statecontract.check(facts_by_path, state_options)
    )))
    raw.extend(_timed("hotpath", lambda: list(
        _hotpath.check(facts_by_path, hot_options, profile=profile)
    )))
    for violation in raw:
        state = ignore_map.get(violation.path)
        if state is None or state.skip_file:
            continue
        if selected is not None:
            if violation.rule_id not in selected:
                continue
        else:
            enabled = config.rules_for(violation.path) & flow_ids
            if violation.rule_id not in enabled:
                continue
        if is_suppressed(state.ignores, violation.line, violation.rule_id):
            continue
        findings.append(violation)

    findings.sort(key=Violation.sort_key)
    result.violations = findings
    if profile is not None:
        result.hot_unanalyzed = _timed("hotpath", lambda: (
            _hotpath.hot_unanalyzed(facts_by_path, hot_options, profile)
        ))
    result.pass_wall_s = dict(pass_wall)

    _save_cache(cache_path, states, interface_digest)
    return result
