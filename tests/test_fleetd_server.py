"""The fleetd socket protocol: server dispatch + client round-trips.

Uses the ``run`` verb to advance simulated time synchronously, so the
tests never depend on the wall-paced tick thread's progress.
"""

import json
import socket
import time

import pytest

from repro.fleetd.client import FleetdClient, FleetdClientError
from repro.fleetd.engine import FleetdConfig, FleetdEngine
from repro.fleetd.rollout import RolloutConfig
from repro.fleetd.server import FleetdServer
from repro.sim.host import HostConfig

MB = 1 << 20


def _engine(tmp_path):
    return FleetdEngine(FleetdConfig(
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


@pytest.fixture()
def daemon(tmp_path):
    engine = _engine(tmp_path)
    # A slow tick interval: the wall thread barely advances during the
    # test; the `run` verb does the driving.
    server = FleetdServer(
        engine, str(tmp_path / "fleetd.sock"), tick_interval_s=5.0,
    )
    server.start()
    try:
        yield server, FleetdClient(server.socket_path)
    finally:
        server.stop()
        engine.close()


def test_ping_and_status(daemon):
    server, client = daemon
    ping = client.ping()
    assert ping["pong"] is True
    assert ping["tick_thread"] == {"alive": True, "error": None}
    status = client.status()
    assert status["hosts"] == []
    assert status["frozen"] is False
    assert status["tick_thread"] == {"alive": True, "error": None}


def test_register_rollout_and_kill_switch_over_the_socket(daemon):
    server, client = daemon
    for i in range(3):
        client.register(f"h{i}", "Feed" if i % 2 == 0 else "Web",
                        size_scale=0.003)
    client.run_ticks(25)
    rollout_id = client.rollout(
        {"kind": "autotune", "params": {}}
    )
    client.run_ticks(60)
    result = client.rollout_status(rollout_id)
    assert result["status"] == "succeeded"
    assert result["kind"] == "fleetd-rollout"
    client.deregister("h2")
    assert len(client.status()["hosts"]) == 2
    assert client.kill_switch() == 0
    with pytest.raises(FleetdClientError, match="kill switch"):
        client.rollout({"kind": "senpai", "params": {}})


def test_reset_quarantine_round_trip(daemon):
    server, client = daemon
    client.register("h0", "Feed", size_scale=0.003)
    client.run_ticks(2)
    assert client.reset_quarantine("h0") is False


def test_daemon_refusals_surface_as_client_errors(daemon):
    server, client = daemon
    with pytest.raises(FleetdClientError, match="not registered"):
        client.deregister("ghost")
    with pytest.raises(FleetdClientError, match="unknown policy"):
        client.rollout({"kind": "nonsense", "params": {}})
    with pytest.raises(FleetdClientError, match="no rollout"):
        client.rollout_status(99)
    with pytest.raises(FleetdClientError, match="ticks must be"):
        client.run_ticks(0)


def test_metrics_and_top_over_the_socket(daemon):
    """The read-only query surface end to end: regions on register,
    validated rollup/top envelopes back, and no digest drift from
    serving the queries."""
    server, client = daemon
    for i, region in enumerate(["east", "west", "east"]):
        entry = client.register(
            f"h{i}", "Feed" if i % 2 == 0 else "Web",
            size_scale=0.003, region=region,
        )
        assert entry["region"] == region
    client.run_ticks(40)
    with server._lock:
        tick_before = server.engine.tick_index
        digest_before = server.engine.fleet_digest()
    rollup = client.metrics(window_s=30.0)
    assert rollup["kind"] == "fleetd-rollup"
    assert rollup["fleet"]["hosts"] == 3
    assert set(rollup["regions"]) == {"east", "west"}
    assert rollup["regions"]["east"]["hosts"] == 2
    top = client.top("psi_mem_some", n=2, window_s=30.0)
    assert top["kind"] == "fleetd-top"
    assert len(top["hosts"]) == 2
    # Serving the queries left the fleet's metrics untouched. The
    # 5s/tick wall thread is effectively parked, but guard against a
    # scheduler fluke: only compare digests if no wall tick landed.
    with server._lock:
        tick_after = server.engine.tick_index
        digest_after = server.engine.fleet_digest()
    if tick_after == tick_before:
        assert digest_after == digest_before
    with pytest.raises(FleetdClientError, match="unknown signal"):
        client.top("no_such_signal")


def test_unknown_command_lists_the_verbs(daemon):
    server, client = daemon
    with pytest.raises(FleetdClientError, match="unknown command"):
        client.request("self-destruct")


def test_malformed_request_gets_a_json_error_not_a_crash(daemon):
    server, client = daemon
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(5.0)
        conn.connect(server.socket_path)
        conn.sendall(b"this is not json\n")
        raw = conn.recv(65536)
    response = json.loads(raw)
    assert response["ok"] is False
    # The daemon survived: the next request still works.
    assert client.ping()["pong"] is True


def test_raising_handler_leaves_the_daemon_serving(daemon, monkeypatch):
    server, client = daemon

    def broken_run_ticks(ticks):
        raise OSError("spool dir gone")

    monkeypatch.setattr(server.engine, "run_ticks", broken_run_ticks)
    with pytest.raises(FleetdClientError, match="spool dir gone"):
        client.run_ticks(1)
    # The accept loop survived: the next requests, the kill switch
    # among them, are still served.
    assert client.ping()["pong"] is True
    assert client.kill_switch() == 0


def test_raising_tick_is_reported_not_silent(tmp_path, monkeypatch):
    engine = _engine(tmp_path)

    def broken_tick():
        raise RuntimeError("tick exploded")

    monkeypatch.setattr(engine, "tick", broken_tick)
    server = FleetdServer(
        engine, str(tmp_path / "fleetd.sock"), tick_interval_s=0.01,
    )
    server.start()
    try:
        client = FleetdClient(server.socket_path)
        deadline = time.monotonic() + 10.0
        while client.ping()["tick_thread"]["alive"]:
            assert time.monotonic() < deadline, "tick thread never died"
            time.sleep(0.01)
        tick_thread = client.status()["tick_thread"]
        assert tick_thread["alive"] is False
        assert "tick exploded" in tick_thread["error"]["error"]
        assert "broken_tick" in tick_thread["error"]["traceback"]
        assert client.kill_switch() == 0
    finally:
        server.stop()
        engine.close()


def test_stop_verb_shuts_the_daemon_down(daemon):
    server, client = daemon
    client.stop()
    assert server.stopped


def test_client_reports_unreachable_daemon(tmp_path):
    client = FleetdClient(str(tmp_path / "nothing.sock"))
    with pytest.raises(FleetdClientError, match="cannot reach"):
        client.ping()
