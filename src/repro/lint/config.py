"""Per-directory rule sets and per-rule options.

The pass runs over the whole tree but not with one hammer: the
simulator core gets every rule, benchmarks and examples get the
determinism rules, and tests get a relaxed set (tests legitimately
construct raw generators to probe components in isolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Any, Dict, FrozenSet, Tuple

from repro.lint.registry import RULES

#: Scope names used in :attr:`LintConfig.scope_rules`.
SCOPE_SRC = "src"
SCOPE_BENCHMARKS = "benchmarks"
SCOPE_EXAMPLES = "examples"
SCOPE_TESTS = "tests"
SCOPE_OTHER = "other"

_ALL_RULES = frozenset(
    {"TMO001", "TMO002", "TMO003", "TMO004",
     "TMO005", "TMO006", "TMO007", "TMO008",
     "TMO009", "TMO010", "TMO011", "TMO012",
     "TMO013", "TMO015"}
)

#: Rules enforced outside the simulator core: seed discipline and
#: hygiene, but not the public-API unit conventions (TMO004), the
#: sim-time comparison rule (TMO006) or the serialization-format rule
#: (TMO013), which target ``src/repro``.
#: The whole-program flow rules (TMO009-TMO012) apply everywhere:
#: unit bugs in benchmarks corrupt results just as surely as unit
#: bugs in the simulator.
_HARNESS_RULES = frozenset(
    {"TMO001", "TMO002", "TMO003", "TMO005", "TMO007", "TMO008",
     "TMO009", "TMO010", "TMO011", "TMO012"}
)

#: Tests probe components with hand-built RNGs and error paths, so only
#: the unconditional hygiene rules apply.
_TEST_RULES = frozenset({"TMO005", "TMO008"})


@dataclass
class LintConfig:
    """Which rules run where, and with what options."""

    scope_rules: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    rule_options: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Directory basenames skipped during recursive discovery (explicit
    #: file arguments are always linted, which is how the fixture tests
    #: exercise intentionally-bad files).
    exclude_dirs: Tuple[str, ...] = (
        "__pycache__", ".git", ".venv", "build", "dist",
        "lint_fixtures",
    )

    def scope_for(self, path: str) -> str:
        parts = PurePosixPath(path.replace("\\", "/")).parts
        if "tests" in parts:
            return SCOPE_TESTS
        if "benchmarks" in parts:
            return SCOPE_BENCHMARKS
        if "examples" in parts:
            return SCOPE_EXAMPLES
        if "src" in parts or "repro" in parts:
            return SCOPE_SRC
        return SCOPE_OTHER

    def rules_for(self, path: str) -> FrozenSet[str]:
        return self.scope_rules.get(self.scope_for(path), frozenset())

    def options_for(self, rule_id: str) -> Dict[str, Any]:
        return self.rule_options.get(rule_id, {})


def default_config() -> LintConfig:
    """The repo's checked-in configuration (documented in LINTING.md)."""
    unknown = _ALL_RULES - set(RULES)
    if unknown:  # pragma: no cover - registry/config drift guard
        raise RuntimeError(f"config names unregistered rules: {unknown}")
    return LintConfig(
        scope_rules={
            SCOPE_SRC: _ALL_RULES,
            SCOPE_BENCHMARKS: _HARNESS_RULES,
            SCOPE_EXAMPLES: _HARNESS_RULES,
            SCOPE_TESTS: _TEST_RULES,
            SCOPE_OTHER: _TEST_RULES,
        },
        rule_options={
            # The derivation root is the one legitimate default_rng call.
            "TMO001": {"exempt_path_suffixes": ("repro/sim/rng.py",)},
            # The sim clock module is the boundary where "time" is
            # defined; it never reads the wall clock, but the exemption
            # documents where one *would* be allowed to talk about it.
            # The fleet resilience runtime orchestrates *real* worker
            # processes around the simulation (deadline kills, retry
            # backoff), so its wall-clock reads and sleeps are the
            # product, not a determinism leak.
            # The fleetd server is the daemon shell around the pure
            # engine: its tick pacing (sleep) is likewise real-world
            # orchestration, never simulation input.
            "TMO002": {"exempt_path_suffixes": (
                "repro/sim/clock.py",
                "repro/core/fleetres.py",
                "repro/fleetd/server.py",
            )},
            "TMO004": {"allowed_names": frozenset()},
            # Determinism-taint sinks: anything feeding the metrics
            # pipeline or the CSV exports must be reproducible.
            "TMO012": {
                "sink_call_suffixes": (
                    "repro.sim.metrics.MetricsRecorder.record",
                    "repro.sim.metrics.Series.record",
                    "repro.analysis.export.to_csv_long",
                    "repro.analysis.export.to_csv_wide",
                ),
                "sink_method_names": ("record",),
            },
            # State contracts (LINTING.md "State contracts" section).
            "TMO015": {
                # Functions executed inside worker processes.
                "worker_entrypoints": (
                    "repro.core.fleetres.run_host_attempt",
                    "repro.core.fleetres._worker_main",
                ),
            },
        },
    )
