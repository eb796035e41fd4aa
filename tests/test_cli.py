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
        "run", "--app", "Feed", "--duration", "120",
        "--size-scale", "0.02",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "net savings %" in out
    assert "PSI memory" in out
    # The results table comes first, then the digest line.
    assert out.index("net savings %") < out.index("done at t=120s")


def test_run_host_unknown_app(capsys):
    assert main(["run", "--app", "Nope", "--duration", "1"]) == 2
    assert "unknown app" in capsys.readouterr().err


def test_run_host_backend_none(capsys):
    code = main([
        "run", "--app", "Feed", "--backend", "none",
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
        "run", "--app", "Web", "--backend", "zswap",
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

    ckpt.write_bytes(b"\xff\xfe")
    assert main(["run", "--resume", str(ckpt), "--duration", "120"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_run_refuses_a_non_positive_checkpoint_interval(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    for every in ("0", "-5"):
        assert main([
            *RUN_ARGS, "--duration", "60", "--checkpoint-every", every,
            "--checkpoint-path", str(ckpt),
        ]) == 2
        assert "--checkpoint-every must be positive" \
            in capsys.readouterr().err
    assert not ckpt.exists()


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


def _host_storm_facts(tmp_path, *flags):
    from repro.faults.chaos import load_chaos_verdicts

    out_path = tmp_path / "verdict.json"
    code = main([
        "chaos", "--seeds", "1", "--duration", "600",
        "--out", str(out_path), *flags,
    ])
    doc = load_chaos_verdicts(str(out_path))
    assert "supervised" not in doc["config"]
    return code, doc["verdicts"][0]["facts"]


def test_chaos_controller_faults_supervise_the_host(tmp_path, capsys):
    """``--controller-faults N`` runs the host storm with Senpai under
    its Supervisor, so the kill and restore land while controllers
    crash and hang; every variant's digest must still agree."""
    code, facts = _host_storm_facts(tmp_path, "--controller-faults", "2")
    assert code == 0
    assert "all 1 chaos runs passed" in capsys.readouterr().out
    for variant in ("queried", "rerun", "quiet", "restored"):
        seen = facts[variant]
        assert "supervisor_restarts" in seen
        assert any(k.startswith("controller_") for k in seen["fault_counts"])
    assert facts["queried"]["supervisor_crashes"] + facts["queried"][
        "supervisor_hang_kills"] > 0


def test_chaos_default_host_storm_is_unsupervised(tmp_path, capsys):
    _, facts = _host_storm_facts(tmp_path)
    for seen in facts.values():
        assert not any(k.startswith("supervisor_") for k in seen)
        assert not any(
            k.startswith("controller_") for k in seen["fault_counts"]
        )


@pytest.mark.parametrize("argv, flag", [
    (["--worker-faults", "2"], "--worker-faults"),
    (["--workers", "2"], "--workers"),
    (["--fleet", "--controller-faults", "1"], "--controller-faults"),
    (["--fleet", "--ram-gb", "2"], "--ram-gb"),
    (["--fleetd", "--ncpu", "4"], "--ncpu"),
    (["--fleetd", "--extra-events", "1"], "--extra-events"),
    (["--fleetd", "--workers", "2"], "--workers"),
])
def test_chaos_refuses_a_flag_its_topology_does_not_read(
    tmp_path, capsys, argv, flag
):
    out_path = tmp_path / "verdict.json"
    code = main(["chaos", *argv, "--out", str(out_path)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out_path.exists()


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


def test_fleetd_start_serves_until_stopped(tmp_path, capsys):
    import threading
    import time

    from repro.fleetd.client import FleetdClient, FleetdClientError

    sock = str(tmp_path / "fleetd.sock")
    codes = []
    daemon = threading.Thread(target=lambda: codes.append(main([
        "fleetd", "start", "--socket", sock, "--tick-interval", "60",
        "--spool-dir", str(tmp_path / "spool"),
    ])), daemon=True)
    daemon.start()
    deadline = time.monotonic() + 30.0
    while True:
        try:
            FleetdClient(sock).ping()
            break
        except FleetdClientError:
            assert time.monotonic() < deadline, "daemon never came up"
            time.sleep(0.05)
    assert main(["fleetd", "stop", "--socket", sock]) == 0
    daemon.join(timeout=10.0)
    assert not daemon.is_alive()
    assert codes == [0]
    assert "fleetd stopped" in capsys.readouterr().out


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
        rollup_path = tmp_path / "rollup.json"
        assert main(["fleetd", "metrics", "--window", "30", "--out",
                     str(rollup_path), "--socket", sock]) == 0
        assert main(["fleetd", "top", "-n", "2", "--socket", sock]) == 0
        assert main(["fleetd", "ping", "--socket", sock]) == 0
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
    from repro.fleetd.rollup import parse_fleet_rollup

    rollup = parse_fleet_rollup(json.loads(rollup_path.read_text()))
    assert rollup["window_s"] == 30.0 and rollup["fleet"]["hosts"] == 3
    assert f"fleet rollup written to {rollup_path}" in out
    assert '"kind": "fleetd-top"' in out
    assert '"pong": true' in out


def test_fleetd_cli_reports_unreachable_daemon(tmp_path, capsys):
    sock = str(tmp_path / "nothing.sock")
    assert main(["fleetd", "status", "--socket", sock]) == 1
    assert "cannot reach" in capsys.readouterr().err


def _subparsers(parser):
    import argparse

    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _surface(parser):
    """Each argument: action, type, nargs, required, default, choices."""
    import argparse

    return {
        " ".join(a.option_strings) or a.dest: (
            type(a).__name__, getattr(a.type, "__name__", None), a.nargs,
            a.required, a.default, None if a.choices is None
            else list(a.choices),
        )
        for a in parser._actions if not isinstance(a, argparse._HelpAction)
    }


_SOCKET = ("_StoreAction", None, None, False, "tmo-fleetd.sock", None)
_POLICIES = ["senpai", "autotune", "gswap"]

#: The ``repro fleetd`` surface before the verb table, plus ``ping``.
FLEETD_SURFACE = {
    "start": {
        "--socket": _SOCKET,
        "--seed": ("_StoreAction", "int", None, False, 7, None),
        "--ram-gb": ("_StoreAction", "float", None, False, 0.25, None),
        "--ncpu": ("_StoreAction", "int", None, False, 4, None),
        "--page-mb": ("_StoreAction", "int", None, False, 1, None),
        "--tick-interval": ("_StoreAction", "float", None, False, 0.05,
                            None),
        "--checkpoint-every": ("_StoreAction", "float", None, False, 60.0,
                               None),
        "--spool-dir": ("_StoreAction", None, None, False, None, None),
        "--canary-frac": ("_StoreAction", "float", None, False, 0.25,
                          None),
        "--wave-frac": ("_StoreAction", "float", None, False, 0.5, None),
        "--baseline-s": ("_StoreAction", "float", None, False, 60.0, None),
        "--soak-s": ("_StoreAction", "float", None, False, 60.0, None),
    },
    "ping": {"--socket": _SOCKET},
    "status": {"--socket": _SOCKET},
    "register": {
        "--socket": _SOCKET,
        "host_id": ("_StoreAction", None, None, True, None, None),
        "--app": ("_StoreAction", None, None, False, "Feed", None),
        "--policy": ("_StoreAction", None, None, False, None, _POLICIES),
        "--set": ("_AppendAction", None, None, False, None, None),
        "--size-scale": ("_StoreAction", "float", None, False, 0.003, None),
        "--region": ("_StoreAction", None, None, False, "default", None),
    },
    "deregister": {
        "--socket": _SOCKET,
        "host_id": ("_StoreAction", None, None, True, None, None),
    },
    "rollout": {
        "--socket": _SOCKET,
        "--policy": ("_StoreAction", None, None, True, None, _POLICIES),
        "--set": ("_AppendAction", None, None, False, None, None),
        "--hosts": ("_StoreAction", None, "+", False, None, None),
        "--wait": ("_StoreTrueAction", None, 0, False, False, None),
        "--max-wait-ticks": ("_StoreAction", "int", None, False, 5000,
                             None),
        "--wait-step-ticks": ("_StoreAction", "int", None, False, 50, None),
        "--out": ("_StoreAction", None, None, False, None, None),
    },
    "rollout-status": {
        "--socket": _SOCKET,
        "--id": ("_StoreAction", "int", None, True, None, None),
    },
    "rollback": {"--socket": _SOCKET},
    "kill-switch": {"--socket": _SOCKET},
    "metrics": {
        "--socket": _SOCKET,
        "--window": ("_StoreAction", "float", None, False, 60.0, None),
        "--out": ("_StoreAction", None, None, False, None, None),
    },
    "top": {
        "--socket": _SOCKET,
        "--signal": ("_StoreAction", None, None, False, "psi_mem_some",
                     None),
        "-n": ("_StoreAction", "int", None, False, 5, None),
        "--window": ("_StoreAction", "float", None, False, 60.0, None),
    },
    "run": {
        "--socket": _SOCKET,
        "--ticks": ("_StoreAction", "int", None, False, 60, None),
    },
    "stop": {"--socket": _SOCKET},
}


def test_fleetd_cli_surface_is_pinned():
    """Flags, positionals, types, defaults and choices of every
    ``repro fleetd`` verb, built from the verb table, match the
    hand-built parsers they replaced (plus the flag-free ``ping``)."""
    fleetd = _subparsers(build_parser())["fleetd"]
    surface = {
        name: _surface(parser)
        for name, parser in _subparsers(fleetd).items()
    }
    assert surface == FLEETD_SURFACE
