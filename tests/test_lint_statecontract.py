"""End-to-end tests of the state-contract analysis (TMO015).

The statepkg fixture package seeds known findings at pinned lines: a
worker-reachable module global, read and written. The repo-tree tests
then assert ``src/repro`` is clean and that the acceptance mutation
(adding a memoized global on the worker path) re-fails lint with the
right rule id.
"""

import json
import shutil
from pathlib import Path

from repro.lint import cli
from repro.lint.config import default_config
from repro.lint.flow import analyze_flow

STATEPKG = Path("tests/lint_fixtures/statepkg")
STATE_RULES = ["TMO015"]


def _config():
    """The default config with TMO015 pointed at statepkg."""
    config = default_config()
    config.rule_options = dict(config.rule_options)
    config.rule_options["TMO015"] = {
        "worker_entrypoints": ("statepkg.workers.run_host",),
    }
    return config


def _findings(paths):
    result = analyze_flow(paths, _config(), select=STATE_RULES)
    return [
        (v.rule_id, v.path.rpartition("/")[2], v.line)
        for v in result.violations
    ]


# ----------------------------------------------------------------------
# the fixture package


def test_fixture_package_findings_exact():
    assert _findings([STATEPKG]) == [
        ("TMO015", "workers.py", 15),  # read of mutated global
        ("TMO015", "workers.py", 26),  # write from worker path
    ]


def test_messages_name_the_contract_and_the_fix():
    result = analyze_flow([STATEPKG], _config(), select=STATE_RULES)
    by_key = {(v.rule_id, v.line): v.message for v in result.violations}
    assert "run_host" in by_key[("TMO015", 26)]
    assert "_RESULTS" in by_key[("TMO015", 26)]


# ----------------------------------------------------------------------
# acceptance mutations against the real tree


def _copy_src(tmp_path):
    target = tmp_path / "src"
    shutil.copytree("src", target)
    return target


def test_worker_path_global_fails_lint_with_tmo015(tmp_path):
    src = _copy_src(tmp_path)
    fleet = src / "repro" / "core" / "fleet.py"
    text = fleet.read_text()
    mutated = text.replace(
        "    profile = APP_CATALOG[plan.app]\n    backend = plan.backend",
        "    profile = _profile_cached(plan.app)\n    backend = plan.backend",
    )
    assert mutated != text
    mutated += (
        "\n\n_PROFILE_CACHE = {}\n\n\n"
        "def _profile_cached(app):\n"
        "    profile = _PROFILE_CACHE.get(app)\n"
        "    if profile is None:\n"
        "        profile = APP_CATALOG[app]\n"
        "        _PROFILE_CACHE[app] = profile\n"
        "    return profile\n"
    )
    fleet.write_text(mutated)

    result = analyze_flow([src], default_config(), select=["TMO015"])
    messages = [v.message for v in result.violations]
    assert any("_PROFILE_CACHE" in m for m in messages)
    assert any("mutates module-level state" in m for m in messages)


# ----------------------------------------------------------------------
# the repo tree itself


def test_repo_tree_is_clean_for_state_contracts():
    paths = [
        Path("src"), Path("benchmarks"), Path("examples"), Path("tests")
    ]
    result = analyze_flow(
        [p for p in paths if p.exists()],
        default_config(),
        select=STATE_RULES,
    )
    assert [v.format_text() for v in result.violations] == []


# ----------------------------------------------------------------------
# --stats


def test_stats_flag_writes_rule_hit_summary(tmp_path):
    stats = tmp_path / "stats.json"
    rc = cli.main([
        "tests/lint_fixtures/tmo001_bad.py",
        "--select", "TMO001", "--no-baseline", "--quiet",
        "--stats", str(stats),
    ])
    assert rc == 1
    payload = json.loads(stats.read_text())
    assert payload["violations_total"] >= 1
    assert payload["rule_hits"]["TMO001"] == payload["violations_total"]
    assert payload["flow"] is None


def test_stats_reports_flow_cache_hits_on_rerun(tmp_path):
    stats = tmp_path / "stats.json"
    cache = tmp_path / "cache.json"
    argv = [
        "tests/lint_fixtures/flowpkg",
        "--flow", "--cache", str(cache), "--no-baseline", "--quiet",
        "--stats", str(stats),
    ]
    cli.main(argv)
    first = json.loads(stats.read_text())
    assert first["flow"]["cache_misses"] == first["flow"]["files_checked"]

    cli.main(argv)
    second = json.loads(stats.read_text())
    assert second["flow"]["cache_hits"] == second["flow"]["files_checked"]
    assert second["rule_hits"] == first["rule_hits"]
