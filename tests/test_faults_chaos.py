"""The one chaos driver: every CI seed's storm, and every gate can fail.

The host seeds and duration are the ones CI's ``chaos`` job sweeps via
``python -m repro chaos --seeds 1 2 3 4 5``; keep the two in sync.
"""

import os

import pytest

import repro.checkpoint as checkpoint
import repro.core.fleet as fleet_mod
import repro.core.fleetres as fleetres
import repro.faults.chaos as chaos
from repro.faults.chaos import (
    CHAOS_VERDICT_SCHEMA_VERSION,
    CONTRACTS,
    FLEET_TOPOLOGY,
    HOST_TOPOLOGY,
    ChaosConfig,
    FleetChaosConfig,
    chaos_verdict_document,
    format_verdict,
    judge,
    load_chaos_verdicts,
    run_storm,
    write_chaos_verdicts,
)
from repro.fleetd.chaos import FLEETD_TOPOLOGY, FleetdChaosConfig
from repro.sim.metrics import metrics_digest

#: The seeds CI sweeps (see .github/workflows/ci.yml and the Makefile).
CI_SEEDS = (1, 2, 3, 4, 5)

_DURATION_S = 900.0


@pytest.fixture(scope="module")
def verdicts():
    """Each CI seed's storm, all variants, run once; the tests below
    share the verdicts."""
    return {
        seed: run_storm(
            HOST_TOPOLOGY, ChaosConfig(seed=seed, duration_s=_DURATION_S)
        )
        for seed in CI_SEEDS
    }


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_ci_seed_degrades_gracefully(verdicts, seed):
    verdict = verdicts[seed]
    assert verdict.passed, verdict.failures()


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_no_unhandled_error_or_invariant_violation(verdicts, seed):
    assert verdicts[seed].errors == {}


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_faults_visible_in_metrics(verdicts, seed):
    facts = verdicts[seed].facts["queried"]
    assert facts["injected_events"] > 0
    assert facts["fault_counts"]  # per-kind faults/* series were recorded


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_breaker_opened_and_reclosed(verdicts, seed):
    facts = verdicts[seed].facts["queried"]
    assert facts["breaker_opens"] > 0
    assert facts["breaker_recloses"] > 0


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_every_contract_has_a_witness_and_holds(verdicts, seed):
    verdict = verdicts[seed]
    assert list(verdict.contracts) == list(CONTRACTS)
    for name, gate in verdict.contracts.items():
        assert gate.applicable and gate.passed, (name, gate.detail)
    assert verdict.facts["queried"]["reads"] == 30
    assert verdict.facts["quiet"]["reads"] == 0


def test_different_seeds_differ(verdicts):
    a = verdicts[CI_SEEDS[0]]
    b = verdicts[CI_SEEDS[1]]
    assert a.facts["queried"]["plan_digest"] != b.facts["queried"]["plan_digest"]
    assert a.digest != b.digest


def test_report_failure_reasons_name_each_gap():
    config = ChaosConfig(seed=1)
    verdict = judge(HOST_TOPOLOGY, config, {
        "queried": ("aa", {"reads": 3}, "RuntimeError('boom')"),
        "rerun": ("aa", {}, None),
        "quiet": ("aa", {}, None),
    })
    reasons = " ".join(verdict.failures())
    assert "unhandled error in queried run" in reasons
    assert "crash_equivalence: no digest from the restored run" in reasons
    assert "breaker: opened 0x" in reasons
    assert "faults_injected" in reasons
    assert not verdict.passed
    assert "FAIL" in format_verdict(verdict, "chaos")


@pytest.mark.parametrize("topology, config", [
    (HOST_TOPOLOGY, ChaosConfig(seed=1)),
    (FLEET_TOPOLOGY, FleetChaosConfig(seed=1, duration_s=60.0)),
    (FLEETD_TOPOLOGY, FleetdChaosConfig(seed=1)),
], ids=["host", "fleet", "fleetd"])
def test_empty_verdict_fails_with_a_reason(topology, config):
    verdict = judge(topology, config, {})
    assert not verdict.passed
    assert verdict.failures()
    doc = verdict.to_json()
    assert doc["passed"] is False and doc["failures"]


def test_fleetd_verdict_with_good_kill_switch_but_no_digests_fails():
    facts = {
        "kill_switch_killed": 1, "frozen_after_kill": True,
        "post_kill_refused": True, "reads": 5,
    }
    verdict = judge(FLEETD_TOPOLOGY, FleetdChaosConfig(seed=1), {
        "queried": ("", facts, None),
    })
    reasons = " ".join(verdict.failures())
    assert "determinism: no digest" in reasons
    assert "rollouts_terminal: no rollout ran" in reasons
    assert verdict.contracts["crash_equivalence"].applicable is False


def test_metrics_digest_is_order_insensitive_but_value_sensitive():
    from repro.sim.metrics import MetricsRecorder

    a = MetricsRecorder()
    a.record("x", 1.0, 2.0)
    a.record("y", 1.0, 3.0)
    b = MetricsRecorder()
    b.record("y", 1.0, 3.0)
    b.record("x", 1.0, 2.0)
    assert metrics_digest(a) == metrics_digest(b)
    b.record("x", 2.0, 2.0)
    assert metrics_digest(a) != metrics_digest(b)


# ----------------------------------------------------------------------
# every gate can fail: one deliberate perturbation per (topology,
# contract), failing that contract and nothing else


def _fails_only(verdict, contract):
    assert not verdict.passed
    failures = verdict.failures()
    assert failures and all(
        reason.startswith(f"{contract}:") for reason in failures
    ), failures
    # A digest mismatch, not a vacuous witness.
    assert " != " in verdict.contracts[contract].detail


#: Long enough for the breaker to open and re-close, so only the
#: perturbed contract fails.
_GATE_HOST = ChaosConfig(seed=1, duration_s=600.0)


def test_host_determinism_gate_can_fail(monkeypatch):
    real = chaos.build_chaos_host
    builds = []

    def leaky(config):
        host, injector, senpai = real(config)
        builds.append(config)
        if len(builds) == 2:  # state leaking into the second run
            host.metrics.record("fleetd/generation", 0.0, 1.0)
        return host, injector, senpai

    monkeypatch.setattr(chaos, "build_chaos_host", leaky)
    _fails_only(run_storm(HOST_TOPOLOGY, _GATE_HOST), "determinism")


def test_host_query_neutrality_gate_can_fail(monkeypatch):
    real = chaos._probe

    def recording_probe(host):
        real(host)
        host.metrics.record("fleetd/generation", host.clock.now, 1.0)

    monkeypatch.setattr(chaos, "_probe", recording_probe)
    _fails_only(run_storm(HOST_TOPOLOGY, _GATE_HOST), "query_neutrality")


def test_host_crash_equivalence_gate_can_fail(monkeypatch):
    # The restored run loads its snapshot file through load_snapshot,
    # which restores through this seam.
    real = checkpoint.restore_host

    def restore_one_tick_ahead(envelope):
        host = real(envelope)
        host.step()
        return host

    monkeypatch.setattr(checkpoint, "restore_host", restore_one_tick_ahead)
    _fails_only(run_storm(HOST_TOPOLOGY, _GATE_HOST), "crash_equivalence")


# ----------------------------------------------------------------------
# the fleet topology: worker crash/hang storms over a parallel fleet

#: Short wall budgets so a hang kill costs ~2 s in tests (CI uses the
#: defaults via ``python -m repro chaos --fleet``).
_FLEET_TEST_KNOBS = dict(
    duration_s=60.0,
    workers=2,
    deadline_min_s=2.0,
    checkpoint_every_s=20.0,
)


@pytest.mark.parametrize("seed", [1, 2])
def test_fleet_storm_degrades_gracefully(seed):
    verdict = run_storm(
        FLEET_TOPOLOGY, FleetChaosConfig(seed=seed, **_FLEET_TEST_KNOBS)
    )
    assert verdict.passed, verdict.failures()
    faulted = verdict.facts["faulted"]
    assert faulted["planned_hosts"] == 3
    assert faulted["completed_hosts"] == 3
    assert sum(faulted["fault_counts"].values()) == 3
    assert verdict.errors == {}
    assert verdict.facts["spooled"]["reads"] == 6
    assert "PASS" in format_verdict(verdict, "fleet-chaos")
    doc = verdict.to_json()
    assert doc["passed"] is True and doc["failures"] == []


def test_fleet_report_failures_name_each_gap():
    verdict = judge(FLEET_TOPOLOGY, FleetChaosConfig(seed=1), {
        "control": ("aa", {}, None),
        "rerun": ("aa", {}, None),
        "spooled": ("aa", {"reads": 9}, None),
        "faulted": ("bb", {
            "planned_hosts": 3, "completed_hosts": 1,
            "quarantined_hosts": 2,
            "quarantine_hints": ["Feed#1: rerun with seed 7"],
        }, "RuntimeError('boom')"),
    })
    assert verdict.passed is False
    reasons = " ".join(verdict.failures())
    assert "unhandled error in faulted run" in reasons
    assert "1/3" in reasons
    assert "2 quarantined; Feed#1" in reasons
    assert "crash_equivalence: faulted" in reasons
    assert "FAIL" in format_verdict(verdict, "fleet-chaos")


def _gate_fleet():
    return FleetChaosConfig(seed=1, **_FLEET_TEST_KNOBS)


def test_fleet_determinism_gate_can_fail(monkeypatch):
    real = fleet_mod.Fleet.run
    calls = []

    def leaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # state leaking into the control's rerun
            self.seed += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(fleet_mod.Fleet, "run", leaky)
    _fails_only(run_storm(FLEET_TOPOLOGY, _gate_fleet()), "determinism")


def test_fleet_query_neutrality_gate_can_fail(monkeypatch):
    real = fleetres.spool_snapshot
    parent = os.getpid()

    def mutating_spool(host, path):
        # Only the serial spooling run spools in this process; the
        # faulted run's attempts are forked workers.
        if os.getpid() == parent:
            host.metrics.record("fleetd/generation", host.clock.now, 1.0)
        real(host, path)

    monkeypatch.setattr(fleetres, "spool_snapshot", mutating_spool)
    _fails_only(run_storm(FLEET_TOPOLOGY, _gate_fleet()), "query_neutrality")


def test_fleet_crash_equivalence_gate_can_fail(monkeypatch):
    real = fleetres.load_spooled_snapshot

    def drifting_restore(path):
        host = real(path)
        if host is not None:
            host.metrics.record("fleetd/generation", host.clock.now, 1.0)
        return host

    monkeypatch.setattr(fleetres, "load_spooled_snapshot", drifting_restore)
    verdict = run_storm(FLEET_TOPOLOGY, _gate_fleet())
    assert verdict.facts["faulted"]["recovered_hosts"] > 0
    _fails_only(verdict, "crash_equivalence")


# ----------------------------------------------------------------------
# the versioned verdict artifact


def _verdict(seed=1, topology=FLEET_TOPOLOGY, digest="aa"):
    return judge(topology, FleetChaosConfig(seed=seed), {
        "control": (digest, {}, None),
        "rerun": (digest, {}, None),
        "spooled": (digest, {"reads": 9}, None),
        "faulted": (digest, {"planned_hosts": 3, "completed_hosts": 3}, None),
    })


def test_chaos_verdict_artifact_round_trips(tmp_path):
    verdicts = [_verdict(1), _verdict(2)]
    assert all(v.passed for v in verdicts)
    doc = chaos_verdict_document("fleet", {"duration_s": 60.0}, verdicts)
    path = tmp_path / "verdict.json"
    write_chaos_verdicts(doc, str(path))
    loaded = load_chaos_verdicts(str(path))
    assert loaded == doc
    assert loaded["schema_version"] == CHAOS_VERDICT_SCHEMA_VERSION == 2
    assert loaded["kind"] == "chaos-verdict"
    assert loaded["seeds"] == [1, 2]
    assert loaded["config"] == {"duration_s": 60.0}
    assert set(loaded["verdicts"][0]["contracts"]) == set(CONTRACTS)


def test_chaos_verdict_document_validates_inputs():
    with pytest.raises(ValueError, match="mode"):
        chaos_verdict_document("solo", {}, [_verdict()])
    with pytest.raises(ValueError, match="a fleet verdict in a host"):
        chaos_verdict_document("host", {}, [_verdict()])


def test_load_chaos_verdicts_refuses_foreign_artifacts(tmp_path):
    import json

    path = tmp_path / "bad.json"

    def write(payload):
        path.write_text(json.dumps(payload))

    write([1, 2, 3])
    with pytest.raises(ValueError, match="not an object"):
        load_chaos_verdicts(str(path))
    # The pre-versioning bare shape is refused with a regeneration hint.
    write({"verdicts": [{"seed": 1, "passed": True}]})
    with pytest.raises(ValueError, match="pre-versioning"):
        load_chaos_verdicts(str(path))
    good = chaos_verdict_document(
        "fleet", {"duration_s": 60.0}, [_verdict()]
    )
    verdict = good["verdicts"][0]
    write({**good, "schema_version": 1})
    with pytest.raises(ValueError, match="schema_version"):
        load_chaos_verdicts(str(path))
    write({**good, "mode": "henhouse"})
    with pytest.raises(ValueError, match="unknown mode"):
        load_chaos_verdicts(str(path))
    write({**good, "seeds": [1, 2]})
    with pytest.raises(ValueError, match="verdicts for"):
        load_chaos_verdicts(str(path))
    write({**good, "verdicts": [{"seed": 1}]})
    with pytest.raises(ValueError, match="pass/fail"):
        load_chaos_verdicts(str(path))
    contracts = dict(verdict["contracts"])
    del contracts["query_neutrality"]
    write({**good, "verdicts": [{**verdict, "contracts": contracts}]})
    with pytest.raises(ValueError, match="query_neutrality"):
        load_chaos_verdicts(str(path))
    write({**good, "verdicts": [{**verdict, "passed": False}]})
    with pytest.raises(ValueError, match="disagrees with its failures"):
        load_chaos_verdicts(str(path))
    write({**good, "config": None})
    with pytest.raises(ValueError, match="config provenance"):
        load_chaos_verdicts(str(path))
