"""End-to-end tests of the state-contract analysis (TMO015).

The statepkg fixture package seeds known findings at pinned lines: a
worker-reachable module global, read and written. The acceptance
mutation (adding a memoized global on the worker path of a copy of
``src``) must then fail lint with the right rule id, while the repo
tree itself stays clean.
"""

import shutil
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.config import default_config

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
    result = lint_paths(paths, _config(), select=STATE_RULES)
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
    result = lint_paths([STATEPKG], _config(), select=STATE_RULES)
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

    result = lint_paths([src], default_config(), select=["TMO015"])
    messages = [v.message for v in result.violations]
    assert any("_PROFILE_CACHE" in m for m in messages)
    assert any("mutates module-level state" in m for m in messages)


# ----------------------------------------------------------------------
# the repo tree itself


def test_repo_tree_is_clean_for_state_contracts():
    paths = [
        Path("src"), Path("benchmarks"), Path("examples"), Path("tests")
    ]
    result = lint_paths(
        [p for p in paths if p.exists()],
        default_config(),
        select=STATE_RULES,
    )
    assert [v.format_text() for v in result.violations] == []
