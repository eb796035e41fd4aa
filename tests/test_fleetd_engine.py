"""FleetdEngine: registry, tick loop, spooling, crash recovery.

Rollout staging and gating have their own suite
(tests/test_fleetd_rollout.py); the control-plane chaos gauntlet lives
in tests/test_fleetd_chaos.py.
"""

import math

import pytest

from repro.fleetd.engine import FleetdConfig, FleetdEngine, FleetdError
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


def test_reset_quarantine_restarts_and_records_metric():
    with make_engine() as engine:
        register_small_fleet(engine, 1)
        engine.run_ticks(2)
        entry = engine.registry.get("h0")
        # Not quarantined: a no-op that reports False.
        assert engine.reset_quarantine("h0") is False
        entry.supervisor.quarantined = True
        entry.supervisor.alive = False
        assert engine.reset_quarantine("h0") is True
        assert entry.supervisor.alive
        assert not entry.supervisor.quarantined
        edges = entry.host.metrics.series("supervisor/unquarantined")
        assert len(edges) == 1
        assert entry.supervisor.unquarantine_count == 1


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
