"""repro.lint — determinism & unit-discipline static analysis.

The reproduction's evaluation methodology rests on one invariant
(DESIGN.md, "Deterministic seeding"): identical seeds produce
bit-identical runs, which is what makes the A/B experiments exact
rather than statistical. This package machine-checks the coding
disciplines that protect the invariant:

* all randomness flows through :func:`repro.sim.rng.derive_rng`
  (TMO001, TMO007);
* no wall-clock reads inside the simulator (TMO002);
* no iteration order leaks from hash-randomised sets (TMO003);
* quantities carry unit suffixes and are never mixed (TMO004);
* assorted correctness hygiene (TMO005, TMO006, TMO008);
* simulator state is serialised only through the declared codec
  (TMO013).

Each rule sees one file at a time. Defects that only show across
functions or processes (unit mix-ups between modules, hash-seeded
values, per-process module state) are left to the runtime contracts:
run-twice determinism across interpreters, parallel == serial fleet
digests, crash-equivalence and ``TMO_CHECK_INVARIANTS``.

Run it with ``python -m repro.lint`` or the ``tmo-lint`` console
script; see docs/LINTING.md for the full rule catalogue, the per-
directory scopes and the ``# lint: ignore[RULE]`` comment syntax.
"""

from repro.lint.config import LintConfig, default_config
from repro.lint.engine import LintResult, lint_paths
from repro.lint.registry import RULES, LintRule, all_rule_ids
from repro.lint.violations import Violation

__all__ = [
    "LintConfig",
    "LintResult",
    "LintRule",
    "RULES",
    "Violation",
    "all_rule_ids",
    "default_config",
    "lint_paths",
]
