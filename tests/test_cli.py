"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_apps(capsys):
    assert main(["list-apps"]) == 0
    out = capsys.readouterr().out
    assert "Feed" in out
    assert "Web" in out
    assert "zswap" in out and "ssd" in out


def test_list_ssds(capsys):
    assert main(["list-ssds"]) == 0
    out = capsys.readouterr().out
    assert "9300" in out  # device A's p99
    assert "470" in out   # device G's p99


def test_cost_table(capsys):
    assert main(["cost-table"]) == 0
    out = capsys.readouterr().out
    assert "33.0" in out


def test_run_host_quick(capsys):
    code = main([
        "run-host", "--app", "Feed", "--duration", "120",
        "--size-scale", "0.02",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "net savings %" in out
    assert "PSI memory" in out


def test_run_host_unknown_app(capsys):
    assert main(["run-host", "--app", "Nope", "--duration", "1"]) == 2
    assert "unknown app" in capsys.readouterr().err


def test_run_host_backend_none(capsys):
    code = main([
        "run-host", "--app", "Feed", "--backend", "none",
        "--duration", "60", "--size-scale", "0.02",
    ])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "offloaded (MB)" in l)
    assert line.split()[-1] == "0.0"


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_host_web(capsys):
    code = main([
        "run-host", "--app", "Web", "--backend", "zswap",
        "--duration", "60", "--size-scale", "0.02",
    ])
    assert code == 0


#: A small checkpointed host for the ``run`` verb.
RUN_ARGS = [
    "run", "--app", "Feed", "--ram-gb", "1", "--ncpu", "4",
    "--size-scale", "0.02", "--seed", "7",
]


def _run_to_checkpoint(path, duration="60"):
    return main([
        *RUN_ARGS, "--duration", duration, "--checkpoint-every", "60",
        "--checkpoint-path", str(path),
    ])


def _done_digest(out):
    line = next(l for l in out.splitlines() if l.startswith("done at"))
    return line.rsplit(" ", 1)[-1]


def test_run_resume_matches_an_uninterrupted_run(tmp_path, capsys):
    assert main([*RUN_ARGS, "--duration", "120"]) == 0
    straight = _done_digest(capsys.readouterr().out)

    ckpt = tmp_path / "ckpt.json"
    assert _run_to_checkpoint(ckpt) == 0
    assert "checkpoint at t=60s" in capsys.readouterr().out
    assert main(["run", "--resume", str(ckpt), "--duration", "120"]) == 0
    out = capsys.readouterr().out
    assert "resumed from" in out and "at t=60s" in out
    assert _done_digest(out) == straight


def test_run_resume_refuses_finished_or_corrupt_snapshots(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    assert _run_to_checkpoint(ckpt) == 0
    capsys.readouterr()
    for duration in ("60", "30"):  # at, then past, the snapshot's time
        assert main(["run", "--resume", str(ckpt),
                     "--duration", duration]) == 2
        assert "nothing to do" in capsys.readouterr().err

    text = ckpt.read_text(encoding="utf-8")
    ckpt.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["run", "--resume", str(ckpt), "--duration", "120"]) == 2
    assert "refusing snapshot" in capsys.readouterr().err


def test_run_ab_quick(capsys):
    code = main([
        "run-ab", "--app", "Feed", "--control", "none",
        "--treatment", "zswap", "--duration", "120",
        "--size-scale", "0.02",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "A/B results" in out
    assert "app/resident_bytes" in out


def test_run_ab_unknown_app(capsys):
    code = main(["run-ab", "--app", "Nope", "--duration", "1"])
    assert code == 2


def test_crash_equivalence_parallel_seed_sweep(capsys):
    """The crash-equivalence proof must keep passing when the seed
    sweep fans out over worker processes. The verb judges the whole
    host verdict, so the storm runs its default 600 s: long enough for
    the breaker to open and re-close."""
    code = main([
        "crash-equivalence", "--seeds", "1", "2", "--workers", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "all 2 crash-equivalence runs passed" in out


def test_fleet_rollout_reports_savings(capsys):
    code = main([
        "fleet", "--apps", "Feed", "Web", "--count", "1",
        "--duration", "60", "--ram-gb", "0.25",
        "--size-scale", "0.003", "--workers", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fleet savings" in out
    assert "all 2 planned hosts completed" in out
    assert "merged digest" in out


def test_fleet_rejects_unknown_app(capsys):
    code = main(["fleet", "--apps", "NotAnApp"])
    assert code == 2
    assert "unknown app" in capsys.readouterr().err


def test_chaos_fleet_writes_verdict_json(tmp_path, capsys):
    # Seed 5 at 60s draws crashes + a slowdown but no hang, so the run
    # never waits out a 30s deadline kill.
    out_path = tmp_path / "verdict.json"
    code = main([
        "chaos", "--fleet", "--seeds", "5", "--duration", "60",
        "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "all 1 fleet-chaos runs passed" in out
    from repro.faults.chaos import load_chaos_verdicts

    doc = load_chaos_verdicts(str(out_path))  # validates the envelope
    assert doc["mode"] == "fleet"
    assert doc["seeds"] == [5]
    assert doc["config"]["duration_s"] == 60.0
    assert len(doc["verdicts"]) == 1
    verdict = doc["verdicts"][0]
    assert verdict["seed"] == 5 and verdict["passed"] is True
    for contract in ("determinism", "query_neutrality",
                     "crash_equivalence"):
        assert verdict["contracts"][contract]["passed"] is True


def test_chaos_fleet_and_fleetd_are_mutually_exclusive(capsys):
    code = main(["chaos", "--fleet", "--fleetd"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_chaos_fleetd_writes_versioned_verdict(tmp_path, capsys):
    from repro.faults.chaos import load_chaos_verdicts

    out_path = tmp_path / "verdict.json"
    code = main([
        "chaos", "--fleetd", "--seeds", "1", "--out", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "all 1 fleetd-chaos runs passed" in out
    doc = load_chaos_verdicts(str(out_path))
    assert doc["mode"] == "fleetd"
    assert doc["seeds"] == [1]
    assert doc["config"]["hosts"] == 4
    verdict = doc["verdicts"][0]
    assert verdict["passed"] is True
    assert verdict["contracts"]["determinism"]["passed"] is True
    assert verdict["contracts"]["query_neutrality"]["passed"] is True
    assert verdict["contracts"]["crash_equivalence"]["applicable"] is False


def test_fleet_resilience_knobs_are_threaded(capsys):
    # The knobs must reach FleetResilienceConfig without derailing a
    # fault-free rollout.
    code = main([
        "fleet", "--apps", "Feed", "--count", "1",
        "--duration", "60", "--ram-gb", "0.25",
        "--size-scale", "0.003", "--workers", "1",
        "--max-attempts", "2", "--deadline-min-s", "5",
        "--checkpoint-every-sim-s", "30",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "all 1 planned hosts completed" in out


def test_fleet_rejects_bad_resilience_knobs(capsys):
    code = main([
        "fleet", "--apps", "Feed", "--count", "1",
        "--duration", "60", "--max-attempts", "0",
    ])
    assert code == 2
    assert "bad resilience knobs" in capsys.readouterr().err


def test_parse_policy_args_decodes_values_as_json():
    from repro.cli import _parse_policy_args

    doc = _parse_policy_args(
        "senpai", ["interval_s=4.0", "psi_threshold=0.01"]
    )
    assert doc == {
        "kind": "senpai",
        "params": {"interval_s": 4.0, "psi_threshold": 0.01},
    }
    assert _parse_policy_args("senpai", None)["params"] == {}
    with pytest.raises(ValueError, match="key=value"):
        _parse_policy_args("senpai", ["no-equals-sign"])


def test_fleetd_cli_round_trip(tmp_path, capsys):
    """Every client verb over a live daemon socket."""
    from repro.fleetd.engine import FleetdConfig, FleetdEngine
    from repro.fleetd.rollout import RolloutConfig
    from repro.fleetd.server import FleetdServer
    from repro.sim.host import HostConfig

    MB = 1 << 20
    engine = FleetdEngine(FleetdConfig(
        seed=11,
        base_config=HostConfig(
            ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4,
        ),
        rollout=RolloutConfig(
            canary_frac=0.34, wave_frac=1.0,
            baseline_s=20.0, soak_s=20.0,
        ),
        checkpoint_every_s=15.0,
        spool_dir=str(tmp_path / "spool"),
    ))
    sock = str(tmp_path / "fleetd.sock")
    server = FleetdServer(engine, sock, tick_interval_s=5.0)
    server.start()
    try:
        for i in range(3):
            assert main([
                "fleetd", "register", f"h{i}", "--socket", sock,
                "--app", "Feed" if i % 2 == 0 else "Web",
            ]) == 0
        assert main(["fleetd", "run", "--ticks", "25",
                     "--socket", sock]) == 0
        result_path = tmp_path / "rollout.json"
        assert main([
            "fleetd", "rollout", "--policy", "autotune",
            "--wait", "--out", str(result_path), "--socket", sock,
        ]) == 0
        assert main(["fleetd", "rollout-status", "--id", "1",
                     "--socket", sock]) == 0
        assert main(["fleetd", "status", "--socket", sock]) == 0
        assert main(["fleetd", "reset-quarantine", "h0",
                     "--socket", sock]) == 0
        assert main(["fleetd", "deregister", "h2",
                     "--socket", sock]) == 0
        assert main(["fleetd", "rollback", "--socket", sock]) == 0
        assert main(["fleetd", "kill-switch", "--socket", sock]) == 0
        # Frozen fleet: a new rollout is refused with exit 1.
        assert main([
            "fleetd", "rollout", "--policy", "senpai", "--socket", sock,
        ]) == 1
        assert main(["fleetd", "stop", "--socket", sock]) == 0
    finally:
        server.stop()
        engine.close()
    out, err = capsys.readouterr()
    assert "registered h0" in out
    assert "rollout 1: succeeded" in out
    assert "was not quarantined" in out
    assert "no active rollout" in out
    assert "kill switch engaged" in out
    assert "kill switch" in err
    import json

    from repro.fleetd.rollout import parse_rollout_result

    envelope = parse_rollout_result(
        json.loads(result_path.read_text())
    )
    assert envelope["status"] == "succeeded"
    assert envelope["policy"]["kind"] == "autotune"


def test_fleetd_cli_reports_unreachable_daemon(tmp_path, capsys):
    sock = str(tmp_path / "nothing.sock")
    assert main(["fleetd", "status", "--socket", sock]) == 1
    assert "cannot reach" in capsys.readouterr().err
