"""Per-rule tests of repro.lint against the checked-in fixtures.

Each bad fixture's violations are asserted by exact rule id and line
number, so a rule that drifts (fires on a different node, or stops
firing) fails loudly rather than silently changing coverage.
"""

from pathlib import Path

import pytest

from repro.lint import all_rule_ids, default_config, lint_file, lint_paths
from repro.lint.engine import PARSE_ERROR_RULE
from repro.lint.flow import flow_rule_ids

FIXTURES = Path(__file__).parent / "lint_fixtures"

ALL_RULES = sorted(all_rule_ids())

#: rule id -> lines its bad fixture must flag (and nothing else).
EXPECTED_BAD_LINES = {
    "TMO001": [9, 10, 11, 12],
    "TMO002": [8, 9, 10],
    "TMO003": [6, 8, 9, 10],
    "TMO004": [7, 9, 10, 15],
    "TMO005": [6, 11, 15],
    "TMO006": [5, 7, 11],
    "TMO007": [11],
    "TMO008": [7, 14],
    "TMO013": [3, 4, 5, 6],
}


def fixture(name: str) -> Path:
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {name}"
    return path


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD_LINES))
def test_bad_fixture_flags_expected_lines(rule_id):
    path = fixture(f"{rule_id.lower()}_bad.py")
    found = lint_file(path, select=[rule_id])
    assert [v.rule_id for v in found] == [rule_id] * len(found)
    assert [v.line for v in found] == EXPECTED_BAD_LINES[rule_id]


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD_LINES))
def test_good_fixture_is_clean_under_every_rule(rule_id):
    path = fixture(f"{rule_id.lower()}_good.py")
    assert lint_file(path, select=ALL_RULES) == []


def test_registry_covers_exactly_the_documented_rules():
    # Per-file rules each have a bad fixture here; the whole-program
    # flow rules are exercised against the flowpkg fixture package in
    # test_lint_flow.py.
    per_file = sorted(set(ALL_RULES) - flow_rule_ids())
    assert per_file == sorted(EXPECTED_BAD_LINES)
    assert flow_rule_ids() == {
        "TMO009", "TMO010", "TMO011", "TMO012",
        "TMO015",
        "TMO017", "TMO018", "TMO019", "TMO020", "TMO021",
    }


def test_violations_carry_snippets_and_columns():
    found = lint_file(fixture("tmo008_bad.py"), select=["TMO008"])
    assert found[0].snippet.strip() == "except:"
    assert all(v.col >= 0 for v in found)
    assert all(v.path.endswith("tmo008_bad.py") for v in found)


# ----------------------------------------------------------------------
# suppression


def test_inline_ignore_suppresses_named_rule():
    found = lint_file(fixture("ignored.py"), select=["TMO001"])
    # Lines 7 (ignore[TMO001]) and 11 (ignore[*]) are suppressed;
    # only the unsanctioned call on line 15 survives.
    assert [(v.rule_id, v.line) for v in found] == [("TMO001", 15)]


def test_skip_file_comment_suppresses_everything():
    assert lint_file(fixture("skipped.py"), select=ALL_RULES) == []


def test_unparseable_file_reports_tmo000():
    found = lint_file(fixture("unparseable.py"))
    assert [v.rule_id for v in found] == [PARSE_ERROR_RULE]
    assert found[0].line == 4
    assert "parsed" in found[0].message


# ----------------------------------------------------------------------
# scope configuration


def test_scope_rules_differ_by_directory():
    config = default_config()
    src_rules = config.rules_for("src/repro/kernel/mm.py")
    bench_rules = config.rules_for("benchmarks/test_microbench.py")
    test_rules = config.rules_for("tests/test_kernel_mm.py")
    assert src_rules == set(ALL_RULES)
    assert "TMO004" not in bench_rules  # benchmarks relax unit naming
    assert "TMO001" in bench_rules  # ... but not RNG discipline
    assert test_rules == {"TMO005", "TMO008"}


def test_rng_module_exempt_from_tmo001():
    # The one legitimate default_rng call lives in repro/sim/rng.py.
    found = lint_file(
        Path("src/repro/sim/rng.py"), select=["TMO001"]
    )
    assert found == []


def test_lint_paths_skips_fixture_directory():
    result = lint_paths([Path("tests")])
    assert result.clean
    touched = {v.path for v in result.violations}
    assert not any("lint_fixtures" in p for p in touched)


def test_repo_tree_is_clean():
    # The gate CI enforces: default scopes over the real tree.
    result = lint_paths(
        [Path("src"), Path("benchmarks"), Path("examples"), Path("tests")]
    )
    assert result.violations == []
    assert result.files_checked > 100
