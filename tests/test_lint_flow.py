"""End-to-end tests of the whole-program flow analysis (TMO009-012).

The flowpkg fixture package seeds one bug per flow rule, each crossing
a function or module boundary so no per-file rule could see it; the
assertions pin exact rule ids and line numbers.
"""

import ast
from pathlib import Path
from textwrap import dedent

from repro.lint import cli, engine, flow_rule_ids, lint_paths, unitflow

FLOWPKG = Path("tests/lint_fixtures/flowpkg")
FLOW_RULES = sorted(flow_rule_ids())


def _findings(paths, select=FLOW_RULES):
    result = lint_paths(paths, select=select)
    return [
        (v.rule_id, v.path.rpartition("/")[2], v.line)
        for v in result.violations
    ]


# ----------------------------------------------------------------------
# the fixture package


def test_fixture_package_findings_exact():
    assert _findings([FLOWPKG]) == [
        ("TMO009", "consume.py", 9),   # pages + seconds across modules
        ("TMO010", "consume.py", 18),  # pages into a bytes parameter
        ("TMO011", "consume.py", 22),  # pages bound to *_bytes name
        ("TMO012", "telemetry.py", 19),  # wall clock at the sink
        ("TMO012", "telemetry.py", 27),  # taint through report()
    ]


def test_fixture_messages_name_the_units_and_sources():
    result = lint_paths([FLOWPKG], select=FLOW_RULES)
    by_rule = {v.rule_id: v.message for v in result.violations}
    assert "'pages'" in by_rule["TMO009"] and "'s'" in by_rule["TMO009"]
    assert "'limit_bytes'" in by_rule["TMO010"]
    assert "'cap_bytes'" in by_rule["TMO011"]
    assert "time.time" in by_rule["TMO012"]


def test_select_narrows_flow_rules():
    only_taint = _findings([FLOWPKG], select=["TMO012"])
    assert [rule for rule, _, _ in only_taint] == ["TMO012", "TMO012"]


# ----------------------------------------------------------------------
# suppression and scope plumbing


def test_inline_ignore_suppresses_flow_finding(tmp_path):
    target = tmp_path / "solo.py"
    target.write_text(dedent("""\
        def dram_bytes():
            total_bytes = 4096
            return total_bytes


        def use():
            cap_pages = dram_bytes()  # lint: ignore[TMO011]
            return cap_pages
    """))
    assert _findings([target]) == []


def test_skip_file_suppresses_flow_findings(tmp_path):
    target = tmp_path / "skipme.py"
    target.write_text(dedent("""\
        # lint: skip-file
        def dram_bytes():
            total_bytes = 4096
            return total_bytes


        def use():
            cap_pages = dram_bytes()
            return cap_pages
    """))
    assert _findings([target]) == []


def test_unparseable_file_reports_tmo000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    result = lint_paths([bad], select=FLOW_RULES)
    assert [v.rule_id for v in result.violations] == ["TMO000"]


# ----------------------------------------------------------------------
# one run: one parse per file, flow facts only where a flow rule runs


def _write_tree(tmp_path):
    """A src module with a cross-module unit bug and a tests module."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "a.py").write_text(dedent("""\
        def dram_bytes():
            total_bytes = 4096
            return total_bytes
    """))
    (src / "pkg" / "b.py").write_text(dedent("""\
        from pkg.a import dram_bytes


        def use():
            cap_pages = dram_bytes()
            return cap_pages
    """))
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text("def test_a():\n    assert True\n")
    return src, tests


def test_each_file_is_parsed_and_scanned_once(tmp_path, monkeypatch):
    src, tests = _write_tree(tmp_path)
    parsed, scanned = [], []
    real_parse, real_scan = ast.parse, engine.collect_ignores

    def parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    def scan(source):
        scanned.append(source)
        return real_scan(source)

    monkeypatch.setattr(engine.ast, "parse", parse)
    monkeypatch.setattr(engine, "collect_ignores", scan)
    result = lint_paths([src, tests])
    assert result.files_checked == 4
    assert len(parsed) == len(set(parsed)) == 4
    assert len(scanned) == 4
    assert [(v.rule_id, v.line) for v in result.violations] == [
        ("TMO011", 5)
    ]


def test_flow_facts_only_where_a_flow_rule_is_enabled(tmp_path, monkeypatch):
    src, tests = _write_tree(tmp_path)
    collected = []
    real_collect = unitflow.collect_module

    def collect(module, index, source):
        collected.append(Path(module.path).name)
        return real_collect(module, index, source)

    monkeypatch.setattr(unitflow, "collect_module", collect)
    # No flow rule is enabled for tests/, so its file gets no facts.
    lint_paths([src, tests])
    assert sorted(collected) == ["__init__.py", "a.py", "b.py"]
    # --select switches flow rules on everywhere it is given.
    collected.clear()
    lint_paths([tests], select=["TMO011"])
    assert collected == ["test_a.py"]
    collected.clear()
    lint_paths([src, tests], select=["TMO001"])
    assert collected == []


# ----------------------------------------------------------------------
# CLI integration


def test_cli_runs_flow_rules_without_a_flag(capsys):
    code = cli.main(["--select", "TMO011", str(FLOWPKG)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"{FLOWPKG.as_posix()}/consume.py:22:" in out
    # Under the tests/ scope no flow rule is enabled.
    assert cli.main(["--quiet", str(FLOWPKG)]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# the repo's own tree must be clean under the flow rules


def test_repo_tree_is_flow_clean():
    result = lint_paths(
        [Path("src"), Path("benchmarks"), Path("examples")],
        select=FLOW_RULES,
    )
    assert [v.format_text() for v in result.violations] == []


def test_cli_flow_on_repo_tree_exits_zero(capsys):
    code = cli.main([
        "--select", ",".join(FLOW_RULES), "--quiet",
        "src", "benchmarks", "examples",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
