"""The perfbench throughput gate (``benchmarks/perfbench_pairs.py
--check``), judged on synthetic run files and a synthetic point; no
perfbench run happens here."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_pairs", REPO / "benchmarks" / "perfbench_pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

POINT_RATES = {"host_large": 1000.0, "fleetd_soak": 1100.0,
               "fleetd_serve": 1200.0}
#: Synthetic runs spread 1% per seed around the gate's middle seed, so
#: the gate's median is the nominal rate.
MID_SEED = statistics.median(pairs.CHECK_SEEDS)


def write_point(path: Path, rates=POINT_RATES) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    point = {"seconds": 30, "workloads": {
        workload: {"end_to_end": {"metrics": {"host_ticks_per_s": {
            "unit": "1/s", "change": {"median": rate}}}}}
        for workload, rate in rates.items()
    }}
    path.write_text(json.dumps(point))
    return path


def write_runs(results: Path, rates, correct=True, failed=0,
               seeds=pairs.CHECK_SEEDS) -> None:
    """One run file per (workload, seed), in perfbench's stdout form:
    log lines, then the result line last."""
    results.mkdir(parents=True, exist_ok=True)
    for workload, rate in rates.items():
        for seed in seeds:
            doc = {"correct": correct, "attempted": 5, "failed": failed,
                   "metrics": {"host_ticks_per_s": {
                       "value": rate * (1 + 0.01 * (seed - MID_SEED)),
                       "unit": "1/s"}}}
            (results / f"{workload}-t0-change-{seed}.json").write_text(
                "perfbench: log line\n" + json.dumps(doc) + "\n")


@pytest.fixture
def point(tmp_path):
    return write_point(tmp_path / "benchmarks" / "BENCH_7.json")


def scaled(factor, only=None):
    return {w: rate * (factor if only in (None, w) else 1.0)
            for w, rate in POINT_RATES.items()}


def test_gate_passes_against_its_own_point(tmp_path, point):
    write_runs(tmp_path / "runs", POINT_RATES)
    assert pairs.check(str(tmp_path / "runs"), str(point)) == []


def test_gate_fails_a_drop_of_more_than_20_percent_and_names_it(
        tmp_path, point):
    write_runs(tmp_path / "runs", scaled(0.75, only="fleetd_soak"))
    problems = pairs.check(str(tmp_path / "runs"), str(point))
    assert len(problems) == 1
    assert "fleetd_soak" in problems[0]
    assert "host_ticks_per_s" in problems[0]
    assert "25.0% below" in problems[0]


def test_gate_passes_a_10_percent_drop(tmp_path, point):
    write_runs(tmp_path / "runs", scaled(0.90))
    assert pairs.check(str(tmp_path / "runs"), str(point)) == []


def test_gate_fails_a_missing_workload(tmp_path, point):
    rates = dict(POINT_RATES)
    del rates["fleetd_serve"]
    write_runs(tmp_path / "runs", rates)
    problems = pairs.check(str(tmp_path / "runs"), str(point))
    seeds = ", ".join(str(s) for s in pairs.CHECK_SEEDS)
    assert problems == [f"fleetd_serve: no readable run for seed(s) {seeds}"]

    partial = write_point(tmp_path / "partial.json", rates)
    write_runs(tmp_path / "all", POINT_RATES)
    problems = pairs.check(str(tmp_path / "all"), str(partial))
    assert problems == ["fleetd_serve: partial.json has no host_ticks_per_s"]


def test_gate_fails_a_missing_seed(tmp_path, point):
    write_runs(tmp_path / "runs", POINT_RATES,
               seeds=[s for s in pairs.CHECK_SEEDS if s != 2])
    problems = pairs.check(str(tmp_path / "runs"), str(point))
    assert len(problems) == 3
    assert all(p.endswith("no readable run for seed(s) 2") for p in problems)


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2)])
def test_gate_fails_an_incorrect_or_failed_run(tmp_path, point, correct,
                                               failed):
    write_runs(tmp_path / "runs", POINT_RATES)
    write_runs(tmp_path / "runs", {"host_large": 1000.0}, correct=correct,
               failed=failed, seeds=(2,))
    problems = pairs.check(str(tmp_path / "runs"), str(point))
    assert len(problems) == 1
    assert problems[0].startswith("host_large: ")
    assert f"{int(not correct)} run(s) with correct: false" in problems[0]
    assert f"{failed} failed check(s)" in problems[0]


def test_gate_reads_only_its_own_seeds(tmp_path, point):
    """Runs of other seeds (a pairs run sharing the directory) do not
    move the gate's median."""
    write_runs(tmp_path / "runs", POINT_RATES)
    last = max(pairs.CHECK_SEEDS)
    write_runs(tmp_path / "runs", scaled(0.1),
               seeds=range(last + 1, last + 5))
    assert pairs.check(str(tmp_path / "runs"), str(point)) == []


def test_newest_point_takes_the_largest_number(tmp_path):
    bench = tmp_path / "benchmarks"
    for name in ("BENCH_9.json", "BENCH_17.json", "BENCH_170x.json",
                 "BENCH_old.json"):
        write_point(bench / name)
    assert pairs.newest_point(str(tmp_path)) == str(bench / "BENCH_17.json")
    assert pairs.newest_point(str(tmp_path / "elsewhere")) is None


def test_committed_point_has_every_workload():
    """The newest committed point carries what the gate reads."""
    newest = pairs.newest_point(str(REPO))
    assert newest is not None
    with open(newest) as fh:
        point = json.load(fh)
    assert point["seconds"] >= 1
    for workload in pairs.WORKLOADS:
        table = point["workloads"][workload]["end_to_end"]
        assert table["metrics"]["host_ticks_per_s"]["change"]["median"] > 0


def test_check_cli_judges_run_files(tmp_path, point, capsys):
    write_runs(tmp_path / "runs", POINT_RATES)
    code = pairs.main(["--check", "--assemble-only", "--change",
                       str(tmp_path), "--results", str(tmp_path / "runs")])
    assert code == 0
    out = capsys.readouterr().out
    assert "gate passed against BENCH_7.json" in out
    assert "+20.0 points over the 80% floor" in out

    write_runs(tmp_path / "runs", scaled(0.5, only="host_large"))
    code = pairs.main(["--check", "--assemble-only", "--change",
                       str(tmp_path), "--results", str(tmp_path / "runs")])
    assert code == 1
    assert "REGRESSION: host_large" in capsys.readouterr().err


def test_check_cli_without_a_point_exits_2(tmp_path, capsys):
    (tmp_path / "benchmarks").mkdir()
    code = pairs.main(["--check", "--assemble-only", "--change",
                       str(tmp_path), "--results", str(tmp_path / "runs")])
    assert code == 2
    assert "no benchmarks/BENCH_<n>.json" in capsys.readouterr().err
