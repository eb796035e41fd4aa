"""The ``fleetd`` chaos topology: rollout storms under injected faults.

The storm drives one :class:`~repro.fleetd.engine.FleetdEngine`
through a fixed choreography — register a small mixed fleet, start
guarded rollouts (good policy, deliberately bad policy, good policy,
then one the kill switch interrupts mid-flight), deregister and
re-admit a host while the fleet runs — while a seed-derived
:class:`~repro.faults.plan.FaultPlan` fires ``controller_crash`` /
``controller_hang`` faults into supervisors and ``worker_crash`` /
``worker_hang`` faults into whole hosts (recovered through the
fleetres spool path).

:data:`FLEETD_TOPOLOGY` plugs the storm into the one chaos driver
(:func:`repro.faults.chaos.run_storm`). Its variants are the
``queried`` storm, which runs the read-only rollup/top queries at
every control round, its ``rerun``, and a ``quiet`` storm that makes
no queries. Its graceful-degradation checks:

* **single policy**: every host ends on one policy spec — crashes,
  hangs, rollbacks and the kill switch notwithstanding;
* **rollouts terminal**: every rollout record ends succeeded, rolled
  back or killed;
* **kill switch**: it reverts the in-flight rollout, freezes the
  fleet, and a later rollout attempt is refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.faults.chaos import Gate, Run, Topology
from repro.faults.plan import CONTROLLER_KINDS, FaultPlan
from repro.fleetd.engine import FleetdConfig, FleetdEngine, FleetdError
from repro.fleetd.policy import PolicySpec
from repro.fleetd.rollout import RolloutConfig, RolloutResult
from repro.fleetd.rollup import (
    encode_envelope,
    parse_fleet_rollup,
    parse_top_report,
)
from repro.sim.host import HostConfig

_MB = 1 << 20

#: The deliberately bad policy: Senpai told to chase an unreachable
#: pressure target with a huge step — it shreds the page cache and
#: spikes PSI/refaults well past any healthy baseline, which is
#: exactly what the health gate must catch.
BAD_POLICY = PolicySpec.make("senpai", {
    "reclaim_ratio": 0.5,
    "max_step_frac": 0.5,
    "psi_threshold": 10.0,
    "interval_s": 2.0,
})


@dataclass(frozen=True)
class FleetdChaosConfig:
    """One control-plane storm's parameters."""

    seed: int
    hosts: int = 4
    duration_s: float = 420.0
    controller_faults: int = 3
    worker_faults: int = 3
    size_scale: float = 0.003
    checkpoint_every_s: float = 20.0
    #: Wedge length applied per ``worker_hang`` event.
    hang_wedge_s: float = 30.0


_TERMINAL = ("succeeded", "rolled_back", "killed")


def single_policy(
    final_policies: Dict[str, Any], final_generations: Dict[str, int]
) -> bool:
    """No host left on a mixed/mid-rollout policy.

    Uniformity is judged on the *policy spec* every host ends on (a
    host re-admitted between rollouts carries a younger generation
    number for the same policy), plus consistency: hosts sharing a
    generation number must share a spec.
    """
    specs = {
        json.dumps(spec, sort_keys=True) for spec in final_policies.values()
    }
    if len(specs) > 1:
        return False
    by_generation: Dict[int, set] = {}
    for host_id, generation in final_generations.items():
        by_generation.setdefault(generation, set()).add(
            json.dumps(final_policies.get(host_id), sort_keys=True)
        )
    return all(len(s) <= 1 for s in by_generation.values())


# ----------------------------------------------------------------------


def _storm_choreography(duration_ticks: int) -> Dict[str, int]:
    """The fixed control-plane schedule, scaled to the storm length.

    Fractions of the storm: warmup, three policy rollouts, one rollout
    the kill switch interrupts, a deregister/re-register pair riding
    between them.
    """
    def at(frac: float) -> int:
        return max(1, int(duration_ticks * frac))

    return {
        "rollout_good": at(1 / 7),
        "deregister": at(1.6 / 7),
        "rollout_bad": at(2.5 / 7),
        "reregister": at(3.3 / 7),
        "rollout_good2": at(4 / 7),
        "rollout_interrupted": at(5.5 / 7),
        "kill_switch": at(6.2 / 7),
        "post_kill_attempt": at(6.5 / 7),
    }


def _run_storm(
    config: FleetdChaosConfig, interleave_queries: bool = True
) -> Dict[str, Any]:
    """Execute one storm; returns the canonical outcome document.

    With ``interleave_queries`` the storm runs the full read-only
    query surface (fleet rollup + top ranking, envelope-encoded and
    validated) at every control round. Query bookkeeping lands under
    ``_``-prefixed keys, which :func:`_outcome_digest` excludes — the
    digested outcome must be identical whether or not anyone watched.
    """
    outcome: Dict[str, Any] = {
        "error": None,
        "kill_switch_killed": 0,
        "frozen_after_kill": False,
        "post_kill_refused": False,
        "_queries": 0,
    }
    tick_s = 1.0
    duration_ticks = int(config.duration_s / tick_s)
    engine = FleetdEngine(FleetdConfig(
        seed=config.seed,
        base_config=HostConfig(
            ram_gb=0.25, page_size_bytes=1 * _MB, ncpu=4,
            tick_s=tick_s,
        ),
        rollout=RolloutConfig(
            canary_frac=0.25, wave_frac=0.5,
            baseline_s=30.0, soak_s=30.0,
        ),
        checkpoint_every_s=config.checkpoint_every_s,
    ))
    try:
        apps = ["Feed", "Web"]
        # Two regions, so the storm also exercises region-aware wave
        # planning (no region all-canary).
        regions = ["east", "west"]
        host_ids = [f"h{i}" for i in range(config.hosts)]
        for i, host_id in enumerate(host_ids):
            engine.register(
                host_id, apps[i % len(apps)],
                size_scale=config.size_scale,
                region=regions[i % len(regions)],
            )

        plan = FaultPlan.generate(
            config.seed, config.duration_s,
            extra_events=0,
            controller_faults=config.controller_faults,
            worker_faults=config.worker_faults,
            fleet_hosts=config.hosts,
        )
        outcome["plan_digest"] = hashlib.sha256(
            plan.digest_text().encode()
        ).hexdigest()

        # Fold the plan into per-tick actions. Controller faults carry
        # no host in their target; assign them round-robin so the
        # mapping is a pure function of the plan.
        starts: Dict[int, List[Tuple[str, str, float]]] = {}
        controller_i = 0
        for event in plan.events:
            tick = min(duration_ticks, max(1, int(event.start_s / tick_s)))
            if event.kind in CONTROLLER_KINDS:
                host_id = host_ids[controller_i % len(host_ids)]
                controller_i += 1
            elif event.target.startswith("host:"):
                slot = int(event.target.split(":", 1)[1])
                host_id = host_ids[slot % len(host_ids)]
            else:
                continue
            starts.setdefault(tick, []).append(
                (event.kind, host_id, event.duration_s)
            )

        times = _storm_choreography(duration_ticks)
        good = PolicySpec.make("autotune")
        good2 = PolicySpec.make("senpai", {"interval_s": 4.0})
        interrupted = PolicySpec.make(
            "gswap", {"target_promotion_rate": 50.0}
        )
        deregistered = host_ids[1]

        for tick in range(1, duration_ticks + 1):
            for kind, host_id, event_duration in starts.get(tick, ()):
                if host_id not in engine.registry:
                    continue
                if kind == "controller_crash":
                    entry = engine.registry.get(host_id)
                    entry.supervisor.faults.crash_pending = True
                elif kind == "controller_hang":
                    entry = engine.registry.get(host_id)
                    entry.supervisor.faults.hung = True
                    hang_ticks = max(1, int(event_duration / tick_s))
                    starts.setdefault(tick + hang_ticks, []).append(
                        ("controller_unhang", host_id, 0.0)
                    )
                elif kind == "controller_unhang":
                    entry = engine.registry.get(host_id)
                    entry.supervisor.faults.hung = False
                elif kind == "worker_crash":
                    engine.crash_host(host_id)
                elif kind in ("worker_hang", "worker_slow"):
                    engine.wedge_host(host_id, config.hang_wedge_s)
            if tick == times["rollout_good"]:
                engine.begin_rollout(good)
            elif tick == times["deregister"]:
                engine.deregister(deregistered)
            elif tick == times["rollout_bad"]:
                engine.begin_rollout(BAD_POLICY)
            elif tick == times["reregister"]:
                # Re-admission joins at the fleet's *committed* policy
                # (last succeeded rollout). Copying a live host's spec
                # here is wrong: mid-rollout a canary may be running a
                # candidate the gate is about to reject.
                engine.register(
                    deregistered, "Web",
                    size_scale=config.size_scale,
                    region=regions[1 % len(regions)],
                )
            elif tick == times["rollout_good2"]:
                engine.begin_rollout(good2)
            elif tick == times["rollout_interrupted"]:
                engine.begin_rollout(interrupted)
            elif tick == times["kill_switch"]:
                outcome["kill_switch_killed"] = engine.kill_switch()
                outcome["frozen_after_kill"] = engine.frozen
            elif tick == times["post_kill_attempt"]:
                try:
                    engine.begin_rollout(good)
                except FleetdError:
                    outcome["post_kill_refused"] = True
            engine.tick()
            if interleave_queries:
                # The full read-only query surface, every control
                # round: rollup + top, envelope-encoded (NaN rejection)
                # and validated on read. Any side effect on the fleet
                # shows up as a digest mismatch against the quiet run.
                rollup = engine.fleet_rollup(window_s=30.0)
                parse_fleet_rollup(
                    json.loads(encode_envelope(rollup.to_json()))
                )
                top = engine.top_hosts(
                    "psi_mem_some", n=3, window_s=30.0
                )
                parse_top_report(json.loads(encode_envelope(top)))
                outcome["_queries"] += 2

        outcome["rollout_statuses"] = [
            r.status for r in engine.results
        ]
        outcome["rollout_results"] = [
            _decisions(r) for r in engine.results
        ]
        outcome["active_terminal"] = engine.active is None
        outcome["queue_empty"] = not engine.queue
        outcome["final_generations"] = {
            entry.host_id: entry.generation
            for entry in engine.registry.values()
        }
        outcome["final_policies"] = {
            entry.host_id: entry.spec.to_json()
            for entry in engine.registry.values()
        }
        outcome["recoveries"] = dict(engine.recoveries)
        outcome["fleet_digest"] = engine.fleet_digest()
    except Exception as exc:
        outcome["error"] = repr(exc)
    finally:
        engine.close()
    return outcome


def _decisions(result: RolloutResult) -> Dict[str, Any]:
    """What a rollout decided, free of its envelope's format.

    Status, generation, rollback reason and every gate verdict's host,
    pass/fail and reasons: a change to how a rollout is written out
    (``RolloutResult.to_json``) must not read as a change in what the
    fleet did.
    """
    return {
        "status": result.status,
        "generation": result.generation,
        "rollback_reason": result.rollback_reason,
        "verdicts": [
            [v.host_id, v.passed, list(v.reasons)]
            for wave in result.waves for v in wave.verdicts
        ],
    }


def _outcome_digest(outcome: Dict[str, Any]) -> str:
    """Canonical digest over the outcome, minus ``_`` bookkeeping keys.

    The ``_``-prefixed keys (query counters) intentionally differ
    between the queried and quiet runs; everything the fleet actually
    *did* must digest identically.
    """
    digested = {
        key: value for key, value in outcome.items()
        if not key.startswith("_")
    }
    canonical = json.dumps(
        digested, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


#: Outcome keys a verdict reports as facts (the digest covers them all).
_FACT_KEYS = (
    "rollout_statuses", "final_generations", "final_policies",
    "recoveries", "kill_switch_killed",
    "frozen_after_kill", "post_kill_refused", "plan_digest",
)


def _run_fleetd(config: FleetdChaosConfig, variant: str) -> Run:
    """``queried``/``rerun`` interleave rollup queries; ``quiet`` none."""
    outcome = _run_storm(config, interleave_queries=variant != "quiet")
    facts = {key: outcome[key] for key in _FACT_KEYS if key in outcome}
    facts["reads"] = outcome["_queries"]
    return _outcome_digest(outcome), facts, outcome["error"]


def _fleetd_checks(
    config: FleetdChaosConfig, facts: Mapping[str, Dict[str, Any]]
) -> Dict[str, Gate]:
    seen = facts.get("queried", {})
    policies = seen.get("final_policies", {})
    generations = seen.get("final_generations", {})
    statuses = seen.get("rollout_statuses", [])
    killed = seen.get("kill_switch_killed", 0)
    frozen = seen.get("frozen_after_kill", False)
    refused = seen.get("post_kill_refused", False)
    specs = {json.dumps(p, sort_keys=True) for p in policies.values()}
    return {
        "single_policy": Gate(
            bool(policies) and single_policy(policies, generations),
            f"{len(specs)} spec(s), generations "
            f"{sorted(set(generations.values()))} across "
            f"{len(generations)} hosts",
        ),
        "rollouts_terminal": Gate(
            bool(statuses) and all(s in _TERMINAL for s in statuses),
            ", ".join(statuses) or "no rollout ran",
        ),
        "kill_switch": Gate(
            killed >= 1 and frozen and refused,
            f"killed {killed} rollout(s), frozen={frozen}, "
            f"post-kill refused={refused}",
        ),
    }


FLEETD_TOPOLOGY = Topology(
    mode="fleetd",
    run=_run_fleetd,
    checks=_fleetd_checks,
    contracts={
        "determinism": ("queried", "rerun"),
        "query_neutrality": ("queried", "quiet"),
        "crash_equivalence": (
            "the engine checkpoints its hosts, not itself (registry, "
            "rollouts, kill switch), so a storm cannot be killed and "
            "restored whole"
        ),
    },
)
