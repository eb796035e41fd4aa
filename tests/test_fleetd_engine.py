"""FleetdEngine: registry, tick loop, spooling, crash recovery.

Rollout staging and gating have their own suite
(tests/test_fleetd_rollout.py); the control-plane chaos gauntlet lives
in tests/test_fleetd_chaos.py.
"""

import json
import math
import os
from collections import Counter

import pytest

from repro.fleetd import engine as engine_module
from repro.fleetd.engine import (
    FleetdConfig,
    FleetdEngine,
    FleetdError,
    spool_phase,
)
from repro.fleetd.policy import PolicySpec
from repro.fleetd.registry import RegistryError
from repro.fleetd.rollout import RolloutConfig
from repro.sim.host import HostConfig

MB = 1 << 20

BASE = HostConfig(ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4)


def make_engine(**overrides) -> FleetdEngine:
    fields = dict(
        seed=11,
        base_config=BASE,
        rollout=RolloutConfig(
            canary_frac=0.34, wave_frac=1.0,
            baseline_s=20.0, soak_s=20.0,
        ),
        checkpoint_every_s=15.0,
    )
    fields.update(overrides)
    return FleetdEngine(FleetdConfig(**fields))


def register_small_fleet(engine, n=3):
    for i in range(n):
        engine.register(f"h{i}", "Feed" if i % 2 == 0 else "Web",
                        size_scale=0.003)


# ----------------------------------------------------------------------
# registry surface


def test_register_builds_supervised_host():
    with make_engine() as engine:
        entry = engine.register("web-01", "Web", size_scale=0.003)
        assert entry.generation == 0
        assert entry.spec == PolicySpec()
        assert entry.supervisor.alive
        assert "web-01" in engine.registry


def test_register_refuses_bad_ids_and_duplicates():
    with make_engine() as engine:
        with pytest.raises(RegistryError, match="host id"):
            engine.register("no spaces allowed", "Feed")
        for size_scale in (-1.0, 0.0, 1.5):
            with pytest.raises(RegistryError, match="size_scale"):
                engine.register("h0", "Feed", size_scale=size_scale)
        engine.register("h0", "Feed", size_scale=0.003)
        with pytest.raises(RegistryError):
            engine.register("h0", "Feed", size_scale=0.003)


def test_deregister_stops_ticking_and_drops_spool():
    with make_engine() as engine:
        register_small_fleet(engine, 2)
        engine.run_ticks(3)
        engine.deregister("h1")
        assert "h1" not in engine.registry
        with pytest.raises(RegistryError, match="not registered"):
            engine.deregister("h1")


def test_late_registration_catches_up_from_its_own_epoch():
    with make_engine() as engine:
        engine.register("h0", "Feed", size_scale=0.003)
        engine.run_ticks(5)
        late = engine.register("h1", "Web", size_scale=0.003)
        engine.run_ticks(3)
        # The late host only lives the ticks since its registration.
        assert late.host.tick_count == 3
        assert engine.registry.get("h0").host.tick_count == 8


def test_now_tracks_tick_quantum():
    with make_engine() as engine:
        assert engine.now == 0.0
        engine.run_ticks(4)
        assert engine.now == 4 * BASE.tick_s


# ----------------------------------------------------------------------
# spooling + crash recovery (the PR 8 fleetres path)


def test_crash_recovers_from_spool():
    with make_engine() as engine:
        register_small_fleet(engine, 2)
        engine.run_ticks(20)  # past checkpoint_every_s=15
        assert engine.crash_host("h0") is True
        assert engine.recoveries == {"h0": 1}
        # Recovery replays the missed ticks: the host is back at the
        # engine's tick target.
        assert engine.registry.get("h0").host.tick_count == 20


def test_crash_without_spool_rebuilds_from_scratch():
    with make_engine(checkpoint_every_s=math.inf) as engine:
        register_small_fleet(engine, 2)
        engine.run_ticks(10)
        assert engine.crash_host("h1") is False
        assert engine.registry.get("h1").host.tick_count == 10


def test_crash_with_a_non_utf8_spool_rebuilds_from_scratch():
    with make_engine() as engine:
        register_small_fleet(engine, 2)
        engine.run_ticks(20)
        entry = engine.registry.get("h0")
        with open(entry.spool_path, "wb") as fh:
            fh.write(b"\xff\xfe")
        assert engine.crash_host("h0") is False
        assert engine.registry.get("h0").host.tick_count == 20


def test_crash_recovery_is_digest_equivalent():
    """A crashed-and-recovered fleet matches the uninterrupted one."""
    def run(crash: bool) -> str:
        with make_engine() as engine:
            register_small_fleet(engine, 2)
            engine.run_ticks(15)
            if crash:
                engine.crash_host("h0")
            engine.run_ticks(10)
            return engine.fleet_digest()

    assert run(crash=False) == run(crash=True)


def test_crash_mid_rollout_converges_to_registry_generation():
    """A spool older than the host's policy generation must not
    resurrect the stale controller."""
    with make_engine() as engine:
        register_small_fleet(engine, 3)
        engine.run_ticks(30)  # spooled at generation 0
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(2)  # canary h0 applied at generation 1
        entry = engine.registry.get("h0")
        assert entry.generation == 1
        assert entry.spool_generation == 0
        engine.crash_host("h0")
        # Recovered from the generation-0 spool, then converged.
        assert entry.generation == 1
        assert entry.spec == PolicySpec.make("autotune")
        gens = entry.host.metrics.series("fleetd/generation")
        assert gens.values[-1] == 1.0


def test_wedged_host_pauses_then_catches_up():
    with make_engine() as engine:
        register_small_fleet(engine, 2)
        engine.run_ticks(5)
        engine.wedge_host("h0", duration_s=4.0)
        engine.run_ticks(3)
        assert engine.registry.get("h0").host.tick_count == 5
        engine.run_ticks(2)  # wedge expired: catch-up to tick 10
        assert engine.registry.get("h0").host.tick_count == 10


# ----------------------------------------------------------------------
# spool phases: each host spools on its own tick of the period


class _SpoolLog(list):
    """``(engine tick, host id)`` per spool; set ``engine`` first."""

    engine = None


@pytest.fixture
def spools(monkeypatch):
    """Record every spool the engine takes, then take it."""
    log = _SpoolLog()
    real = engine_module.spool_snapshot

    def recording(host, path):
        host_id = os.path.basename(path)[:-len(".snapshot")]
        log.append((log.engine.tick_index, host_id))
        real(host, path)

    monkeypatch.setattr(engine_module, "spool_snapshot", recording)
    return log


def _per_tick(calls):
    return Counter(tick for tick, _ in calls)


def test_spool_phases_follow_the_bit_reversal_order():
    assert [spool_phase(k, 60) for k in range(6)] == [0, 30, 15, 45, 7, 37]
    for period in (1, 2, 3, 15, 60, 64, 100):
        assert sorted(spool_phase(k, period) for k in range(period)) == (
            list(range(period))
        )
        # Each round of ``period`` ordinals repeats the same order.
        assert spool_phase(period + 1, period) == spool_phase(1, period)


def test_each_host_spools_once_per_period_and_alone(spools):
    with make_engine() as engine:  # 15-tick period
        spools.engine = engine
        register_small_fleet(engine, 6)
        engine.run_ticks(30)
    for first in (1, 16):
        period = [host for tick, host in spools
                  if first <= tick < first + 15]
        assert sorted(period) == [f"h{i}" for i in range(6)]
    assert max(_per_tick(spools).values()) == 1


def test_more_hosts_than_ticks_share_spool_ticks_evenly(spools):
    with make_engine(checkpoint_every_s=3.0) as engine:
        spools.engine = engine
        register_small_fleet(engine, 7)
        engine.run_ticks(6)
    assert len(spools) == 14
    assert max(_per_tick(spools).values()) == math.ceil(7 / 3)


def test_late_registrant_spools_on_its_own_phase_within_a_period(spools):
    with make_engine() as engine:
        spools.engine = engine
        register_small_fleet(engine, 3)
        engine.run_ticks(7)
        late = engine.register("late", "Web", size_scale=0.003)
        assert late.spool_phase == spool_phase(3, 15)
        engine.run_ticks(15)
    late_ticks = [tick for tick, host in spools if host == "late"]
    assert len(late_ticks) == 1 and 7 < late_ticks[0] <= 7 + 15
    assert max(_per_tick(spools).values()) == 1


def test_crash_mid_period_recovers_on_the_hosts_phase(monkeypatch, spools):
    restored_at = []
    real_load = engine_module.load_spooled_snapshot

    def recording_load(path):
        host = real_load(path)
        restored_at.append(host.tick_count)
        return host

    monkeypatch.setattr(engine_module, "load_spooled_snapshot",
                        recording_load)

    def run(crash: bool) -> str:
        with make_engine() as engine:
            spools.engine = engine
            register_small_fleet(engine, 3)
            entry = engine.registry.get("h1")
            assert entry.spool_phase == 7
            engine.run_ticks(30)  # h1 spooled at host ticks 8 and 23
            if crash:
                assert engine.crash_host("h1") is True
                assert restored_at == [23]
                assert 0 < 30 - restored_at[0] < 15
                assert entry.host.tick_count == 30
            del spools[:]
            engine.run_ticks(15)
            assert [tick for tick, host in spools if host == "h1"] == [38]
            assert entry.last_spool_tick == 38
            return engine.fleet_digest()

    assert run(crash=True) == run(crash=False)


def test_status_reports_spool_phase_and_last_spool_tick():
    with make_engine() as engine:
        register_small_fleet(engine, 3)
        hosts = json.loads(json.dumps(engine.status()))["hosts"]
        assert [h["spool_phase"] for h in hosts] == [0, 7, 3]
        assert [h["last_spool_tick"] for h in hosts] == [None] * 3
        engine.run_ticks(15)
        hosts = engine.status()["hosts"]
        # Phase p spools at host tick 15 - p (tick 15 for phase 0).
        assert [h["last_spool_tick"] for h in hosts] == [15, 8, 12]


# ----------------------------------------------------------------------
# control surface


def test_begin_rollout_validates_targets():
    with make_engine() as engine:
        register_small_fleet(engine, 2)
        with pytest.raises(RegistryError, match="not registered"):
            engine.begin_rollout(PolicySpec(), host_ids=["ghost"])


def test_kill_switch_freezes_the_fleet_permanently():
    with make_engine() as engine:
        register_small_fleet(engine, 2)
        engine.begin_rollout(PolicySpec.make("autotune"))
        killed = engine.kill_switch()
        assert killed == 1
        assert engine.frozen
        with pytest.raises(FleetdError, match="kill switch"):
            engine.begin_rollout(PolicySpec())
        # The killed rollout's record is terminal and attributed.
        result = engine.rollout_result(1)
        assert result.status == "killed"
        assert "kill switch" in result.rollback_reason


def test_registration_joins_at_the_committed_policy():
    """New hosts join at the last *succeeded* rollout's policy, never
    a mid-rollout canary's."""
    with make_engine() as engine:
        register_small_fleet(engine, 3)
        engine.run_ticks(25)
        spec = PolicySpec.make("senpai", {"interval_s": 4.0})
        engine.begin_rollout(spec)
        engine.run_ticks(2)
        # Mid-rollout: the canary runs the candidate, but a new host
        # still joins at the committed (pre-rollout) policy.
        mid = engine.register("late-mid", "Web", size_scale=0.003)
        assert mid.spec == PolicySpec()
        engine.run_ticks(60)
        assert engine.rollout_result(1).status == "succeeded"
        assert engine.committed_spec == spec
        late = engine.register("late-after", "Web", size_scale=0.003)
        assert late.spec == spec


def test_status_document_is_json_clean():
    import json

    with make_engine() as engine:
        register_small_fleet(engine, 2)
        engine.run_ticks(3)
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(1)
        doc = engine.status()
        encoded = json.loads(json.dumps(doc))
        assert encoded["tick"] == 4
        assert len(encoded["hosts"]) == 2
        assert encoded["active_rollout"]["status"] == "running"
        assert encoded["committed_policy"] == {
            "kind": "senpai", "params": {},
        }


def test_fleet_digest_is_seed_deterministic():
    def run() -> str:
        with make_engine() as engine:
            register_small_fleet(engine, 2)
            engine.run_ticks(12)
            return engine.fleet_digest()

    assert run() == run()
