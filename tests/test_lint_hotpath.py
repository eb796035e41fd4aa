"""End-to-end tests of the hot-path analyses (TMO017-TMO021).

The hotpkg fixture package seeds one finding per rule at pinned lines
in a function reachable from the configured entrypoint, plus a twin
``cold`` function with the same shapes that must stay clean. The
repo-tree tests then assert ``src/repro`` is clean and that the
acceptance mutations (a scalar per-page loop on the ``touch_batch``
path, a fresh list allocation in ``Host.step``'s tick loop) re-fail
lint with the right rule id. Profile mode is exercised with
hand-built tick-share documents.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import cli
from repro.lint.config import default_config
from repro.lint.flow import analyze_flow
from repro.lint.hotpath import (
    PROFILE_SCHEMA_VERSION,
    ProfileError,
    load_profile,
)

HOTPKG = Path("tests/lint_fixtures/hotpkg")
HOT_RULES = ["TMO017", "TMO018", "TMO019", "TMO020", "TMO021"]


def _config(**overrides):
    """The default config with the hot region pointed at hotpkg."""
    config = default_config()
    config.rule_options = dict(config.rule_options)
    config.rule_options["TMO017"] = {
        "entrypoints": ("hotpkg.driver.run",),
        "hot_roots": ("hotpkg.",),
        "profile_share_threshold": 0.05,
        **overrides.get("TMO017", {}),
    }
    return config


def _analyze(paths, config=None, select=HOT_RULES, cache_path=None,
             profile=None):
    return analyze_flow(
        paths, config or _config(), select=select,
        cache_path=cache_path, profile=profile,
    )


def _findings(paths, **kwargs):
    result = _analyze(paths, **kwargs)
    return [
        (v.rule_id, v.path.rpartition("/")[2], v.line)
        for v in result.violations
    ]


def _profile_doc(functions):
    return {"schema_version": PROFILE_SCHEMA_VERSION, "functions": functions}


# ----------------------------------------------------------------------
# the fixture package


def test_fixture_package_findings_exact():
    assert _findings([HOTPKG]) == [
        ("TMO017", "driver.py", 15),  # scalar touch in page loop
        ("TMO018", "driver.py", 16),  # f-string alloc per page
        ("TMO019", "driver.py", 17),  # membership test on a list
        ("TMO020", "driver.py", 22),  # python loop over ndarray
        ("TMO021", "driver.py", 24),  # superseded scalar API
    ]


def test_messages_name_the_api_and_the_fix():
    result = _analyze([HOTPKG])
    by_key = {(v.rule_id, v.line): v.message for v in result.violations}
    assert "hotpkg.engine.Store.touch_batch" in by_key[("TMO017", 15)]
    assert "alloc-ok" in by_key[("TMO018", 16)]
    assert "'needles'" in by_key[("TMO019", 17)]
    assert "set" in by_key[("TMO019", 17)]
    assert "vectorized" in by_key[("TMO020", 22)]
    assert "hotpkg.engine.Store.refresh_all" in by_key[("TMO021", 24)]


def test_alloc_ok_comment_suppresses_the_annotated_line():
    # driver.py:19 allocates a list in the page loop but carries
    # '# tmo-lint: alloc-ok -- ...'; it must not appear.
    lines = [line for rule, _, line in _findings([HOTPKG])
             if rule == "TMO018"]
    assert 19 not in lines


def test_cold_twin_and_batched_owner_stay_clean():
    found = _findings([HOTPKG])
    # cold() (driver.py:28-40) repeats every bad shape outside the hot
    # region; Store.touch_batch's own scalar loop is the exempt owner.
    assert all(line < 28 for _, _, line in found)
    assert all(name == "driver.py" for _, name, _ in found)


def test_unreachable_entrypoint_means_no_findings():
    config = _config(TMO017={"entrypoints": ("hotpkg.driver.absent",)})
    assert _findings([HOTPKG], config=config) == []


# ----------------------------------------------------------------------
# cache invalidation: a registry edit re-triggers TMO021 on files whose
# facts come straight from the cache


def test_registry_edit_retriggers_tmo021_from_cache(tmp_path):
    pkg = tmp_path / "hotpkg"
    shutil.copytree(HOTPKG, pkg)
    cache = tmp_path / "cache.json"

    warm = _analyze([pkg], cache_path=cache)
    assert len(warm.violations) == 5
    assert warm.cache_misses == warm.files_checked

    # Declare Store.touch superseded: only registry.py's hash changes,
    # every other fixture file is served straight from the cache.
    registry = pkg / "registry.py"
    text = registry.read_text()
    mutated = text.replace(
        '    "hotpkg.engine.Store.refresh",\n',
        '    "hotpkg.engine.Store.refresh",\n'
        '    "hotpkg.engine.Store.touch",\n',
    )
    assert mutated != text
    registry.write_text(mutated)

    rerun = _analyze([pkg], cache_path=cache)
    found = [
        (v.rule_id, v.path.rpartition("/")[2], v.line)
        for v in rerun.violations
    ]
    # driver.py:15 escalates from TMO017 to TMO021 (superseded wins)
    # even though driver.py itself was served from the cache.
    assert ("TMO021", "driver.py", 15) in found
    assert ("TMO017", "driver.py", 15) not in found
    assert rerun.cache_hits == rerun.files_checked - 1
    assert rerun.cache_misses == 1


# ----------------------------------------------------------------------
# acceptance mutations against the real tree


def _copy_src(tmp_path):
    target = tmp_path / "src"
    shutil.copytree("src", target)
    return target


def test_scalar_loop_in_touch_batch_path_fails_tmo017(tmp_path):
    src = _copy_src(tmp_path)
    base = src / "repro" / "workloads" / "base.py"
    text = base.read_text()
    anchor = (
        "        events, mem_s, io_s, both_s, work_done, oom = "
        "self.mm.touch_batch(\n"
    )
    mutated = text.replace(
        anchor,
        "        for index in touched:\n"
        "            self.mm.touch(self._pages[index], now)\n" + anchor,
    )
    assert mutated != text
    base.write_text(mutated)

    result = analyze_flow([src], default_config(), select=["TMO017"])
    messages = [v.message for v in result.violations]
    assert any(
        "MemoryManager.touch" in m and "touch_batch" in m
        for m in messages
    )


def test_list_alloc_in_host_step_loop_fails_tmo018(tmp_path):
    src = _copy_src(tmp_path)
    host = src / "repro" / "sim" / "host.py"
    text = host.read_text()
    anchor = (
        "        for name, hosted in self._hosted.items():\n"
        "            results[name] = hosted.workload.tick(now0, dt)\n"
    )
    mutated = text.replace(
        anchor,
        "        for name, hosted in self._hosted.items():\n"
        "            scratch = [name, hosted]\n"
        "            results[name] = scratch and hosted.workload.tick(now0, dt)\n",
    )
    assert mutated != text
    host.write_text(mutated)

    result = analyze_flow([src], default_config(), select=["TMO018"])
    found = [
        (v.path.rpartition("/")[2], v.message) for v in result.violations
    ]
    assert any(name == "host.py" and "step()" in m for name, m in found)


# ----------------------------------------------------------------------
# profile mode


def test_profile_escalates_findings_in_measured_hot_functions():
    profile = _profile_doc([{
        "file": "tests/lint_fixtures/hotpkg/driver.py",
        "line": 11, "name": "run", "tick_share": 0.5,
    }])
    result = _analyze([HOTPKG], profile=profile)
    assert len(result.violations) == 5
    for violation in result.violations:
        assert violation.message.endswith(
            " [measured 50.0% of tick time]"
        )


def test_profile_below_threshold_adds_no_marker():
    profile = _profile_doc([{
        "file": "tests/lint_fixtures/hotpkg/driver.py",
        "line": 11, "name": "run", "tick_share": 0.01,
    }])
    result = _analyze([HOTPKG], profile=profile)
    assert not any(
        "measured" in v.message for v in result.violations
    )
    assert result.hot_unanalyzed == []


def test_profile_reports_hot_but_unanalyzed_functions():
    profile = _profile_doc([
        {"file": "tests/lint_fixtures/hotpkg/driver.py",
         "line": 11, "name": "run", "tick_share": 0.5},
        {"file": "tests/lint_fixtures/hotpkg/driver.py",
         "line": 28, "name": "cold", "tick_share": 0.25},
    ])
    result = _analyze([HOTPKG], profile=profile)
    assert [
        (entry["key"], entry["share"]) for entry in result.hot_unanalyzed
    ] == [("hotpkg.driver.cold", 0.25)]
    assert result.hot_unanalyzed[0]["path"].endswith("driver.py")
    assert not result.clean


def test_load_profile_round_trips_a_valid_document(tmp_path):
    path = tmp_path / "profile.json"
    document = _profile_doc([])
    path.write_text(json.dumps(document))
    assert load_profile(path) == document


def test_load_profile_errors_are_one_line(tmp_path):
    with pytest.raises(ProfileError, match="cannot read profile"):
        load_profile(tmp_path / "missing.json")

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(ProfileError, match="not valid JSON"):
        load_profile(bad_json)

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"schema_version": 999, "functions": []}))
    with pytest.raises(ProfileError, match="regenerate with") as exc_info:
        load_profile(stale)
    assert "\n" not in str(exc_info.value)


# ----------------------------------------------------------------------
# the CLI surface


def test_cli_missing_profile_is_a_clean_error(tmp_path, capsys):
    rc = cli.main([
        "src/repro/perf/batched.py", "--flow", "--no-baseline",
        "--quiet", "--cache", str(tmp_path / "cache.json"),
        "--profile", str(tmp_path / "missing.json"),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("tmo-lint: error: cannot read profile")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_schema_mismatch_is_a_clean_error(tmp_path, capsys):
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"schema_version": 0, "functions": []}))
    rc = cli.main([
        "src/repro/perf/batched.py", "--flow", "--no-baseline",
        "--quiet", "--cache", str(tmp_path / "cache.json"),
        "--profile", str(stale),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "schema_version" in captured.err
    assert "regenerate" in captured.err


def test_cli_profile_requires_flow(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([
            "src/repro/perf/batched.py",
            "--profile", str(tmp_path / "profile.json"),
        ])
    assert exc_info.value.code == 2


def test_cli_hot_unanalyzed_fails_and_names_the_function(tmp_path, capsys):
    # With only invariants.py analysed, the default entrypoints are
    # absent, so a measured-hot function there cannot be in the static
    # region: the CLI must report it and exit 1.
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(_profile_doc([{
        "file": "src/repro/sim/invariants.py",
        "line": 1, "name": "check_page_conservation", "tick_share": 0.5,
    }])))
    rc = cli.main([
        "src/repro/sim/invariants.py", "--flow", "--no-baseline",
        "--cache", str(tmp_path / "cache.json"),
        "--profile", str(profile_path),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "[hot-unanalyzed]" in captured.out
    assert "check_page_conservation" in captured.out
    assert "hot-but-unanalyzed" in captured.out


def test_stats_include_per_rule_and_per_pass_wall_time(tmp_path):
    stats = tmp_path / "stats.json"
    rc = cli.main([
        "tests/lint_fixtures/tmo001_bad.py", "--flow", "--no-baseline",
        "--select", "TMO001," + ",".join(HOT_RULES),
        "--quiet", "--cache", str(tmp_path / "cache.json"),
        "--stats", str(stats),
    ])
    assert rc == 1
    payload = json.loads(stats.read_text())
    assert payload["rule_hits"]["TMO001"] >= 1
    assert set(payload["rule_wall_s"]) >= {"TMO001"}
    assert all(w >= 0.0 for w in payload["rule_wall_s"].values())
    assert "hotpath" in payload["flow"]["pass_wall_s"]
    assert all(
        w >= 0.0 for w in payload["flow"]["pass_wall_s"].values()
    )
    assert payload["flow"]["hot_unanalyzed"] == 0


# ----------------------------------------------------------------------
# the repo tree itself


def test_repo_tree_is_clean_for_hot_paths():
    paths = [
        Path("src"), Path("benchmarks"), Path("examples"), Path("tests")
    ]
    result = analyze_flow(
        [p for p in paths if p.exists()],
        default_config(),
        select=HOT_RULES,
    )
    assert [v.format_text() for v in result.violations] == []
