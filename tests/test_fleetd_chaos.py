"""``chaos --fleetd``: rollout storms under controller/worker faults.

A rollout storm with ``controller_crash`` / ``worker_hang`` faults
must end with every host on a single policy, the kill switch winning
unconditionally, and the driver's contracts holding: the storm digests
identically when rerun and when nobody queries it.
"""

from dataclasses import replace

import pytest

import repro.fleetd.chaos as fleetd_chaos
from repro.faults.chaos import format_verdict, judge, run_storm
from repro.fleetd.chaos import (
    BAD_POLICY,
    FLEETD_TOPOLOGY,
    FleetdChaosConfig,
    single_policy,
)
from repro.fleetd.engine import FleetdEngine


@pytest.fixture(scope="module")
def verdicts():
    """Seeds 1 and 2, each storm (all variants) run once."""
    return {
        seed: run_storm(FLEETD_TOPOLOGY, FleetdChaosConfig(seed=seed))
        for seed in (1, 2)
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_rollout_storm_degrades_gracefully(verdicts, seed):
    verdict = verdicts[seed]
    assert verdict.passed, verdict.failures()
    facts = verdict.facts["queried"]
    # Every rollout record is terminal; the storm always fires the
    # good rollout, the bad one, and the kill-switch interruption.
    assert "succeeded" in facts["rollout_statuses"]
    assert "rolled_back" in facts["rollout_statuses"]
    assert "killed" in facts["rollout_statuses"]
    # No host on a mixed policy.
    assert verdict.checks["single_policy"].passed
    # The kill switch won and stayed won.
    assert facts["kill_switch_killed"] >= 1
    assert facts["frozen_after_kill"]
    assert facts["post_kill_refused"]
    # Determinism witness: both executions digest identically; the
    # engine has no checkpoint of its own to witness crash-equivalence.
    assert verdict.contracts["determinism"].passed
    assert verdict.contracts["query_neutrality"].passed
    assert not verdict.contracts["crash_equivalence"].applicable
    assert "PASS" in format_verdict(verdict, "fleetd-chaos")


def test_storm_digests_differ_across_seeds(verdicts):
    a, b = verdicts[1], verdicts[2]
    assert a.digest != b.digest
    assert a.facts["queried"]["plan_digest"] != b.facts["queried"]["plan_digest"]


def test_bad_policy_constant_is_actually_bad():
    # The storm's forcing function: unreachable pressure target with a
    # huge reclaim step. If someone "fixes" these values the gate-trip
    # leg of the storm silently stops testing anything.
    params = dict(BAD_POLICY.params)
    assert params["psi_threshold"] >= 1.0
    assert params["reclaim_ratio"] >= 0.1


def test_report_failures_name_each_gap():
    verdict = judge(FLEETD_TOPOLOGY, FleetdChaosConfig(seed=9), {
        "queried": ("aa", {
            "rollout_statuses": ["running"],
            "final_generations": {"h0": 1, "h1": 1},
            "final_policies": {
                "h0": {"kind": "senpai", "params": {}},
                "h1": {"kind": "gswap", "params": {}},
            },
            "kill_switch_killed": 0,
            "frozen_after_kill": False,
            "post_kill_refused": False,
            "reads": 0,
        }, None),
        "rerun": ("bb", {}, None),
        "quiet": ("aa", {}, None),
    })
    assert not verdict.passed
    reasons = " ".join(verdict.failures())
    assert "single_policy: 2 spec(s)" in reasons
    assert "rollouts_terminal: running" in reasons
    assert "kill_switch: killed 0" in reasons
    assert "frozen=False" in reasons
    assert "post-kill refused=False" in reasons
    assert "determinism: queried aa != rerun bb" in reasons
    assert "query_neutrality: the queried run made no reads" in reasons
    assert "FAIL" in format_verdict(verdict, "fleetd-chaos")


def test_single_policy_allows_younger_generations_of_same_spec():
    # A re-admitted host legitimately carries generation 0 of the same
    # committed policy; only *spec* divergence is a mixed fleet.
    assert single_policy(
        {
            "h0": {"kind": "autotune", "params": {}},
            "h1": {"kind": "autotune", "params": {}},
        },
        {"h0": 2, "h1": 0},
    )


def test_single_policy_rejects_spec_divergence_within_a_generation():
    assert not single_policy(
        {
            "h0": {"kind": "autotune", "params": {}},
            "h1": {"kind": "senpai", "params": {}},
        },
        {"h0": 1, "h1": 1},
    )


# ----------------------------------------------------------------------
# every gate fleetd checks can fail, naming that contract only


def _fails_only(verdict, contract):
    failures = verdict.failures()
    assert failures and all(
        reason.startswith(f"{contract}:") for reason in failures
    ), failures
    # A digest mismatch, not a vacuous witness.
    assert " != " in verdict.contracts[contract].detail


def test_fleetd_determinism_gate_can_fail(monkeypatch):
    builds = []

    class LeakyEngine(FleetdEngine):
        def __init__(self, config):
            builds.append(config)
            if len(builds) == 2:  # state leaking into the rerun
                config = replace(config, seed=config.seed + 1)
            super().__init__(config)

    monkeypatch.setattr(fleetd_chaos, "FleetdEngine", LeakyEngine)
    verdict = run_storm(FLEETD_TOPOLOGY, FleetdChaosConfig(seed=1))
    _fails_only(verdict, "determinism")


def test_fleetd_query_neutrality_gate_can_fail(monkeypatch):
    real = FleetdEngine.fleet_rollup

    def mutating_rollup(self, *args, **kwargs):
        rollup = real(self, *args, **kwargs)
        entry = next(iter(self.registry.values()))
        entry.host.metrics.record(
            "fleetd/generation", entry.host.clock.now, -1.0
        )
        return rollup

    monkeypatch.setattr(FleetdEngine, "fleet_rollup", mutating_rollup)
    verdict = run_storm(FLEETD_TOPOLOGY, FleetdChaosConfig(seed=1))
    _fails_only(verdict, "query_neutrality")


def test_rollout_envelope_format_does_not_move_the_digest(
    verdicts, monkeypatch
):
    # A rollout envelope written in a new format (here: one more key at
    # every level) is not a change in what the fleet did.
    from repro.fleetd.health import GateVerdict
    from repro.fleetd.rollout import RolloutResult, WaveRecord

    for cls in (RolloutResult, WaveRecord, GateVerdict):
        real = cls.to_json

        def reformatted(self, _real=real):
            return dict(_real(self), format="next")

        monkeypatch.setattr(cls, "to_json", reformatted)
    digest, _, error = fleetd_chaos._run_fleetd(
        FleetdChaosConfig(seed=1), "quiet"
    )
    assert error is None
    assert digest == verdicts[1].digest
