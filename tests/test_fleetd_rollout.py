"""Guarded rollouts: wave planning, health gates, rollback, artifacts.

The robustness headline of the control plane: a forced-bad policy
rollout must be auto-rolled-back by the health gate with every
controller still up, and the kill switch must always win.
"""

import json

import pytest

from repro.fleetd.chaos import BAD_POLICY
from repro.fleetd.engine import FleetdConfig, FleetdEngine
from repro.fleetd.health import evaluate_gate
from repro.fleetd.policy import PolicySpec
from repro.fleetd.rollout import (
    ROLLOUT_SCHEMA_VERSION,
    RolloutConfig,
    parse_rollout_result,
    plan_waves,
)
from repro.sim.host import HostConfig
from tests.helpers import gate_rollup

MB = 1 << 20


def make_engine(n_hosts=3) -> FleetdEngine:
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
    ))
    for i in range(n_hosts):
        engine.register(f"h{i}", "Feed" if i % 2 == 0 else "Web",
                        size_scale=0.003)
    return engine


# ----------------------------------------------------------------------
# wave planning


def test_plan_waves_canary_then_growing_waves():
    waves = plan_waves(("a", "b", "c", "d"), 0.25, 0.5)
    assert waves[0] == ["a"]  # canary: max(1, 4*0.25)
    assert [h for wave in waves for h in wave] == ["a", "b", "c", "d"]


def test_plan_waves_single_host_is_one_wave():
    assert plan_waves(("only",), 0.25, 0.5) == [["only"]]


def test_plan_waves_empty_fleet():
    assert plan_waves((), 0.25, 0.5) == []


def test_rollout_config_validation():
    with pytest.raises(ValueError, match="canary_frac"):
        RolloutConfig(canary_frac=0.0)
    with pytest.raises(ValueError, match="wave_frac"):
        RolloutConfig(wave_frac=1.5)
    with pytest.raises(ValueError, match="soak_s"):
        RolloutConfig(soak_s=0.0)


# ----------------------------------------------------------------------
# the health gate, in isolation


def test_gate_trips_on_empty_soak_window():
    verdict = evaluate_gate("h0", gate_rollup(9), gate_rollup(0))
    assert not verdict.passed
    assert "no metric samples" in verdict.reasons[0]


def test_gate_applies_floor_for_quiet_baselines():
    quiet = gate_rollup(psi_mem_some=0.0)
    ok = gate_rollup(psi_mem_some=0.0009)
    bad = gate_rollup(psi_mem_some=0.002)
    assert evaluate_gate("h", quiet, ok).passed
    verdict = evaluate_gate("h", quiet, bad)
    assert not verdict.passed
    assert "psi_mem_some" in verdict.reasons[0]


def test_gate_applies_multiplier_for_loaded_baselines():
    loaded = gate_rollup(psi_mem_some=0.01)
    within = gate_rollup(psi_mem_some=0.02)
    beyond = gate_rollup(psi_mem_some=0.04)
    assert evaluate_gate("h", loaded, within).passed
    assert not evaluate_gate("h", loaded, beyond).passed


def test_gate_trips_on_ooms_and_breaker():
    base = gate_rollup()
    assert not evaluate_gate("h", base, gate_rollup(oom_kills=1)).passed
    assert not evaluate_gate(
        "h", base, gate_rollup(breaker_open=True)
    ).passed


# ----------------------------------------------------------------------
# end-to-end staging through the engine


def test_healthy_rollout_succeeds_in_waves():
    with make_engine() as engine:
        engine.run_ticks(25)
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(60)
        result = engine.rollout_result(1)
        assert result.status == "succeeded"
        assert len(result.waves) == 2  # canary [h0], then [h1, h2]
        assert result.waves[0].host_ids == ["h0"]
        assert all(w.passed for w in result.waves)
        for entry in engine.registry.values():
            assert entry.generation == 1
            assert entry.spec == PolicySpec.make("autotune")
            gens = entry.host.metrics.series("fleetd/generation")
            assert gens.values[-1] == 1.0


def test_bad_policy_is_auto_rolled_back_by_the_gate():
    """The acceptance headline: forced-bad rollout, gate trips on the
    canary, every host reverts, every controller stays up."""
    with make_engine() as engine:
        engine.run_ticks(25)
        engine.begin_rollout(BAD_POLICY)
        engine.run_ticks(60)
        result = engine.rollout_result(1)
        assert result.status == "rolled_back"
        assert "health gate tripped on wave 0" in result.rollback_reason
        # Only the canary ever saw the bad policy.
        assert len(result.waves) == 1
        assert result.waves[0].passed is False
        failed = [v for v in result.waves[0].verdicts if not v.passed]
        assert failed and failed[0].reasons
        for entry in engine.registry.values():
            assert entry.generation == 0
            assert entry.spec == PolicySpec()
            assert entry.supervisor.alive


def test_rollback_restores_prior_controller_state():
    """Rollback decodes the pre-apply codec doc — controller state,
    not just the policy label, comes back."""
    with make_engine() as engine:
        engine.run_ticks(25)
        entry = engine.registry.get("h0")
        before = type(entry.supervisor.controller).__name__
        engine.begin_rollout(PolicySpec.make("gswap"))
        engine.run_ticks(2)
        assert type(entry.supervisor.controller).__name__ \
            == "GSwapController"
        engine.rollback_active("operator says no")
        assert type(entry.supervisor.controller).__name__ == before
        result = engine.rollout_result(1)
        assert result.status == "rolled_back"
        assert result.rollback_reason == "operator says no"


def test_queued_rollouts_run_in_order():
    with make_engine() as engine:
        engine.run_ticks(25)
        first = engine.begin_rollout(PolicySpec.make("autotune"))
        second = engine.begin_rollout(
            PolicySpec.make("senpai", {"interval_s": 4.0})
        )
        engine.run_ticks(1)
        assert engine.rollout_result(first).status == "running"
        assert engine.rollout_result(second).status == "pending"
        engine.run_ticks(120)
        assert engine.rollout_result(first).status == "succeeded"
        assert engine.rollout_result(second).status == "succeeded"
        for entry in engine.registry.values():
            assert entry.generation == 2


def test_kill_switch_reverts_applied_canary_hosts():
    with make_engine() as engine:
        engine.run_ticks(25)
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(2)  # canary applied, soak in progress
        assert engine.registry.get("h0").generation == 1
        killed = engine.kill_switch()
        assert killed == 1
        for entry in engine.registry.values():
            assert entry.generation == 0
            assert entry.spec == PolicySpec()
        assert engine.rollout_result(1).status == "killed"


def test_deregistered_host_is_forgotten_mid_rollout():
    with make_engine() as engine:
        engine.run_ticks(25)
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(2)
        engine.deregister("h1")  # not yet applied: pending wave
        engine.run_ticks(60)
        result = engine.rollout_result(1)
        assert result.status == "succeeded"
        applied = {
            h for wave in result.waves for h in wave.host_ids
        }
        assert "h1" not in applied


def test_reregistered_namesake_is_not_judged_by_the_old_wave():
    """A canary deregistered mid-soak is forgotten by the rollout; a
    new host registered under its id never ran the candidate, so the
    canary's gate must not judge it (it has no baseline)."""
    with make_engine() as engine:
        engine.run_ticks(25)
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(2)  # canary [h0] applied, soak in progress
        engine.deregister("h0")
        engine.register("h0", "Feed", size_scale=0.003)
        engine.run_ticks(60)
        result = engine.rollout_result(1)
        assert result.status == "succeeded"
        assert all(
            verdict.host_id != "h0"
            for wave in result.waves for verdict in wave.verdicts
        )
        assert engine.registry.get("h0").generation == 0


def test_gate_samples_late_registered_hosts_in_their_own_epoch():
    """Host metric series start at the host's own zero. A fleet
    registered long after the daemon booted must still produce soak
    samples — the gate shifts engine-time windows by each entry's
    registration epoch (regression: this used to read empty windows
    and trip 'no metric samples' on every live daemon)."""
    with make_engine(n_hosts=0) as engine:
        engine.run_ticks(400)  # daemon idles long before anyone joins
        for i in range(3):
            engine.register(f"h{i}", "Feed" if i % 2 == 0 else "Web",
                            size_scale=0.003)
        engine.run_ticks(25)
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(60)
        result = engine.rollout_result(1)
        assert result.status == "succeeded"
        for wave in result.waves:
            for verdict in wave.verdicts:
                for rollup in (verdict.observed, verdict.baseline):
                    assert rollup.signals["psi_mem_some"].count > 0


# ----------------------------------------------------------------------
# the RolloutResult artifact


def test_rollout_result_envelope_round_trips():
    with make_engine() as engine:
        engine.run_ticks(25)
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(60)
        doc = engine.rollout_result(1).to_json()
        parsed = parse_rollout_result(json.loads(json.dumps(doc)))
        assert parsed["schema_version"] == ROLLOUT_SCHEMA_VERSION
        assert parsed["status"] == "succeeded"
        assert parsed["policy"] == {"kind": "autotune", "params": {}}
        verdict = parsed["waves"][0]["verdicts"][0]
        assert verdict["passed"] is True
        # v2: the gate's windows are the host's rollup documents.
        assert verdict["observed"]["host_id"] == verdict["host_id"]
        assert verdict["observed"]["signals"]["psi_mem_some"]["samples"] > 0
        assert set(verdict["baseline"]) == set(verdict["observed"])


def test_parse_rollout_result_rejects_foreign_documents():
    with pytest.raises(ValueError, match="JSON object"):
        parse_rollout_result("nope")
    with pytest.raises(ValueError, match="schema_version"):
        parse_rollout_result({"schema_version": 99})
    with pytest.raises(ValueError, match="schema_version 1"):
        parse_rollout_result({
            "schema_version": 1, "kind": "fleetd-rollout", "waves": [],
        })
    with pytest.raises(ValueError, match="kind"):
        parse_rollout_result({
            "schema_version": ROLLOUT_SCHEMA_VERSION, "kind": "bench",
        })
    with pytest.raises(ValueError, match="wave list"):
        parse_rollout_result({
            "schema_version": ROLLOUT_SCHEMA_VERSION,
            "kind": "fleetd-rollout",
        })
