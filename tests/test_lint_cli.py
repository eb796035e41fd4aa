"""Tests of the tmo-lint command line: exit codes and formats."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"

BAD = str(FIXTURES / "tmo001_bad.py")
GOOD = str(FIXTURES / "tmo001_good.py")


def test_exit_zero_on_clean_file(capsys):
    assert main(["--select", "TMO001", GOOD]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_exit_one_on_violations(capsys):
    assert main(["--select", "TMO001", BAD]) == 1
    out = capsys.readouterr().out
    assert "TMO001" in out
    assert f"{BAD}:9:" in out  # path:line:col prefix


def test_exit_two_on_unknown_rule():
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "TMO999", BAD])
    assert excinfo.value.code == 2


def test_exit_two_on_missing_paths():
    with pytest.raises(SystemExit) as excinfo:
        main(["no/such/dir"])
    assert excinfo.value.code == 2


def test_json_format(capsys):
    assert main(
        ["--select", "TMO001", "--format", "json", BAD]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    rules = {v["rule"] for v in payload["violations"]}
    assert rules == {"TMO001"}
    assert all(
        set(v) >= {"path", "line", "col", "rule", "message"}
        for v in payload["violations"]
    )


def test_disable_switches_rule_off(capsys):
    assert main(
        ["--select", "TMO001", "--disable", "TMO001", BAD]
    ) == 0
    capsys.readouterr()


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("TMO001", "TMO008", "TMO000"):
        assert rule_id in out
