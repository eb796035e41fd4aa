"""The fleet resilience runtime: deadlines, spooling, retry, quarantine.

Unit-level coverage for :mod:`repro.core.fleetres`; the end-to-end
recovery digest-equality gate lives in tests/test_fleet_parallel.py.
"""

import dataclasses
import os

import pytest

import repro.core.fleetres as fleetres
from repro.core.fleet import FailedHost, build_fleet_host, HostPlan
from repro.core.fleetres import (
    FleetResilienceConfig,
    HostUnit,
    SimulatedWorkerCrash,
    SimulatedWorkerHang,
    WorkerFailure,
    _fire,
    load_spooled_snapshot,
    run_host_attempt,
    spool_snapshot,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim.host import Host, HostConfig
from repro.sim.rng import derive_seed

MB = 1 << 20

BASE = HostConfig(ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4)
PLAN = HostPlan(app="Feed", count=1, size_scale=0.003)


def make_unit(tmp_path, **overrides):
    fields = dict(
        base_config=BASE,
        fleet_seed=11,
        plan=PLAN,
        index=0,
        slot=0,
        duration_s=30.0,
        spool_path=str(tmp_path / "host-0000.snapshot"),
        checkpoint_every_s=10.0,
    )
    fields.update(overrides)
    return HostUnit(**fields)


# ----------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        FleetResilienceConfig(max_attempts=0)
    with pytest.raises(ValueError):
        FleetResilienceConfig(deadline_min_s=0.0)
    with pytest.raises(ValueError):
        FleetResilienceConfig(checkpoint_every_s=0.0)


def test_deadline_scales_with_duration():
    config = FleetResilienceConfig(
        deadline_min_s=60.0, deadline_per_sim_s=0.5
    )
    assert config.deadline_s(10.0) == 60.0  # floor wins
    assert config.deadline_s(1000.0) == 500.0  # per-sim budget wins


def test_backoff_doubles_and_caps(monkeypatch):
    monkeypatch.setattr(fleetres, "RETRY_BACKOFF_S", 0.1)
    monkeypatch.setattr(fleetres, "RETRY_BACKOFF_MAX_S", 0.35)
    assert fleetres._backoff_s(0) == 0.0
    assert fleetres._backoff_s(1) == pytest.approx(0.1)
    assert fleetres._backoff_s(2) == pytest.approx(0.2)
    assert fleetres._backoff_s(3) == pytest.approx(0.35)  # capped
    assert fleetres._backoff_s(10) == pytest.approx(0.35)


def test_ticks_for_matches_host_run():
    # The one formula Host.run and the fleet runtime share: exact
    # divisions get no extra tick, genuine remainders get one.
    assert Host.ticks_for(30.0, 1.0) == 30
    assert Host.ticks_for(30.5, 1.0) == 31
    assert Host.ticks_for(0.3, 0.1) == 3  # division noise is not a tick
    host = build_fleet_host(BASE, 11, PLAN, 0)
    host.run(2.5)
    assert host.tick_count == Host.ticks_for(2.5, BASE.tick_s)


def test_host_seed_is_the_fleet_derivation():
    unit = make_unit(__import__("pathlib").Path("/tmp"))
    assert unit.host_seed == derive_seed(11, "host:Feed:0")


# ----------------------------------------------------------------------
# spool


def test_spool_roundtrip(tmp_path):
    path = str(tmp_path / "snap.json")
    host = build_fleet_host(BASE, 11, PLAN, 0)
    host.run(10.0)
    spool_snapshot(host, path)
    restored = load_spooled_snapshot(path)
    assert restored is not None
    assert restored.tick_count == host.tick_count
    # No torn temp file is left behind.
    assert os.listdir(tmp_path) == ["snap.json"]


def test_spool_missing_and_corrupt_degrade_to_none(tmp_path):
    assert load_spooled_snapshot(str(tmp_path / "absent.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not a snapshot")
    assert load_spooled_snapshot(str(bad)) is None
    host = build_fleet_host(BASE, 11, PLAN, 0)
    host.run(5.0)
    good = tmp_path / "good.json"
    spool_snapshot(host, str(good))
    # A flipped byte in the payload fails the digest check -> None.
    text = good.read_text()
    good.write_text(text.replace('"payload"', '"PAYLOAD"', 1))
    assert load_spooled_snapshot(str(good)) is None


def test_non_utf8_spool_degrades_to_none_and_rebuilds(tmp_path):
    unit = make_unit(tmp_path, attempt=2)
    with open(unit.spool_path, "wb") as fh:
        fh.write(b"\xff\xfe")
    assert load_spooled_snapshot(unit.spool_path) is None
    # The retry rebuilds from scratch instead of failing on every
    # attempt until the host is quarantined.
    report = run_host_attempt(unit, in_process=True)
    assert not isinstance(report, WorkerFailure), report
    assert report.recovered is False


# ----------------------------------------------------------------------
# fault firing (serial, cooperative)


def test_fire_serial_crash_and_hang_raise(tmp_path):
    unit = make_unit(tmp_path)
    crash = FaultEvent(kind="worker_crash", target="host:0",
                       start_s=5.0, duration_s=0.0)
    with pytest.raises(SimulatedWorkerCrash):
        _fire(crash, unit, in_process=True)
    hang = FaultEvent(kind="worker_hang", target="host:0",
                      start_s=5.0, duration_s=0.0)
    with pytest.raises(SimulatedWorkerHang):
        _fire(hang, unit, in_process=True)


def test_fire_rejects_non_worker_kinds(tmp_path):
    unit = make_unit(tmp_path)
    restart = FaultEvent(kind="restart", target="app",
                         start_s=5.0, duration_s=0.0)
    with pytest.raises(ValueError):
        _fire(restart, unit, in_process=True)


def test_worker_slow_stalls_but_completes(tmp_path, monkeypatch):
    monkeypatch.setattr(fleetres, "SLOW_STALL_S", 0.01)
    slow = FaultEvent(kind="worker_slow", target="host:0",
                      start_s=5.0, duration_s=10.0, severity=0.5)
    unit = make_unit(tmp_path, faults=(slow,))
    outcome = run_host_attempt(unit, in_process=True)
    assert not isinstance(outcome, WorkerFailure)
    assert outcome.attempts == 1 and outcome.recovered is False


# ----------------------------------------------------------------------
# attempts


def test_attempt_crash_then_restore_is_digest_identical(tmp_path):
    control = run_host_attempt(
        make_unit(tmp_path, spool_path=str(tmp_path / "c.json")),
        in_process=True,
    )
    crash = FaultEvent(kind="worker_crash", target="host:0",
                       start_s=15.0, duration_s=0.0)
    unit = make_unit(tmp_path, faults=(crash,))
    first = run_host_attempt(unit, in_process=True)
    assert isinstance(first, WorkerFailure)
    assert first.phase == "run" and first.hung is False
    # The spool from t=10 survives the crash at t=15.
    retry = run_host_attempt(
        dataclasses.replace(unit, attempt=2), in_process=True,
    )
    assert not isinstance(retry, WorkerFailure)
    assert retry.recovered is True and retry.attempts == 2
    assert retry.metrics_digest == control.metrics_digest


def test_hang_failure_is_marked_hung(tmp_path):
    hang = FaultEvent(kind="worker_hang", target="host:0",
                      start_s=3.0, duration_s=0.0)
    unit = make_unit(tmp_path, faults=(hang,))
    outcome = run_host_attempt(unit, in_process=True)
    assert isinstance(outcome, WorkerFailure)
    assert outcome.hung is True


def test_build_failure_reports_build_phase(tmp_path):
    bogus = HostPlan(app="Feed", count=1, backend="bogus")
    unit = make_unit(tmp_path, plan=bogus)
    outcome = run_host_attempt(unit, in_process=True)
    assert isinstance(outcome, WorkerFailure)
    assert outcome.phase == "build"
    assert "bogus" in outcome.error
    assert outcome.traceback_tail != ""


def test_faults_only_fire_on_first_attempt(tmp_path):
    crash = FaultEvent(kind="worker_crash", target="host:0",
                       start_s=5.0, duration_s=0.0)
    unit = make_unit(tmp_path, faults=(crash,), attempt=2)
    outcome = run_host_attempt(unit, in_process=True)
    assert not isinstance(outcome, WorkerFailure)


# ----------------------------------------------------------------------
# plan integration


def test_worker_events_filters_by_slot():
    plan = FaultPlan.generate(
        2, 60.0, extra_events=0, worker_faults=3, fleet_hosts=3
    )
    for slot in range(3):
        for ev in plan.worker_events(slot):
            assert ev.target == f"host:{slot}"
            assert ev.kind.startswith("worker_")
    total = sum(len(plan.worker_events(s)) for s in range(3))
    assert total == 3


def test_failed_host_repro_hint_names_everything():
    failed = FailedHost(
        app="Feed", host_index=2, error="RuntimeError('x')",
        seed=123, phase="run", attempts=3,
        traceback_tail="tb", hung=True,
    )
    hint = failed.repro_hint()
    assert "Feed#2" in hint
    assert "123" in hint
    assert "run" in hint
    assert "3 attempt" in hint
    assert "hang" in hint
