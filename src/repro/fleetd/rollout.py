"""The guarded rollout engine: canary waves, health gates, rollback.

A policy change is never applied fleet-wide at once. The engine stages
it:

1. **baseline** — at start, every target host's health is rolled up
   over the window *before* the rollout touched anything;
2. **canary** — a configurable fraction of hosts gets the new
   controller first; the prior controller's state is encoded (by
   :mod:`repro.checkpoint.state`) before being replaced, per host;
3. **soak + gate** — after ``soak_s`` of simulated time the wave's
   hosts are judged against their own pre-rollout baselines
   (:func:`repro.fleetd.health.evaluate_gate`); a host that crashed
   out of the window, quarantined, or regressed trips the gate;
4. **waves** — a passing gate admits the next, larger wave; the last
   passing gate completes the rollout;
5. **rollback** — a tripped gate (or the fleet kill switch) decodes
   every already-applied host's saved controller state back into its
   supervisor. Controller state only: the simulation keeps running
   throughout — exactly TMO's constraint that policy redeployment must
   not restart the fleet.

Every rollout leaves a structured :class:`RolloutResult` (waves, gate
verdicts, rollback reason) in a versioned JSON envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.checkpoint.state import decode_state, encode_state
from repro.fleetd.health import (
    GateVerdict,
    HealthGateConfig,
    HealthSample,
    evaluate_gate,
    sample_host,
)
from repro.fleetd.policy import PolicySpec, build_controller
from repro.fleetd.registry import HostRegistry

#: Schema version of the RolloutResult JSON envelope.
ROLLOUT_SCHEMA_VERSION = 1

#: The cgroup whose health the gate watches (the fleet host recipe
#: names the application container ``app``).
_APP_CGROUP = "app"


@dataclass(frozen=True)
class RolloutConfig:
    """Staging and gating knobs for guarded rollouts.

    Attributes:
        canary_frac: fraction of target hosts in the first wave
            (at least one host).
        wave_frac: fraction of *remaining* hosts admitted per
            subsequent wave (at least one host per wave).
        baseline_s: how much pre-rollout history the baselines roll up.
        soak_s: simulated time a wave runs before its gate is judged.
        gate: the health-gate thresholds.
    """

    canary_frac: float = 0.25
    wave_frac: float = 0.5
    baseline_s: float = 60.0
    soak_s: float = 60.0
    gate: HealthGateConfig = field(default_factory=HealthGateConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.canary_frac <= 1.0:
            raise ValueError("canary_frac must be in (0, 1]")
        if not 0.0 < self.wave_frac <= 1.0:
            raise ValueError("wave_frac must be in (0, 1]")
        if self.soak_s <= 0.0:
            raise ValueError("soak_s must be positive")


def plan_waves(
    host_ids: Tuple[str, ...],
    canary_frac: float,
    wave_frac: float,
    regions: Optional[Mapping[str, str]] = None,
) -> List[List[str]]:
    """Split target hosts into canary + follow-up waves, in order.

    With ``regions`` (host id -> region label) spanning more than one
    distinct region, planning becomes region-aware: the canary draws
    round-robin across regions (in first-appearance order) and **no
    region is all-canary** — a multi-host region contributes at most
    ``size - 1`` hosts to the canary and a single-host region
    contributes none, so every region keeps at least one host on the
    incumbent policy while the canary soaks. Follow-up waves interleave
    the remaining hosts round-robin across regions, so each wave
    spreads risk instead of burning one region at a time. Degenerate
    all-single-host fleets fall back to canarying the first host (some
    host must go first).

    Without ``regions`` — or when every host shares one region — the
    legacy order-preserving split applies, byte-identical to the
    pre-region planner.
    """
    remaining = [h for h in host_ids]
    waves: List[List[str]] = []
    if not remaining:
        return waves
    region_of = {
        host_id: (regions or {}).get(host_id, "default")
        for host_id in remaining
    }
    ordered_regions: List[str] = []
    for host_id in remaining:
        if region_of[host_id] not in ordered_regions:
            ordered_regions.append(region_of[host_id])
    if len(ordered_regions) <= 1:
        take = max(1, int(len(remaining) * canary_frac))
        waves.append(remaining[:take])
        remaining = remaining[take:]
        while remaining:
            take = max(1, int(len(remaining) * wave_frac))
            waves.append(remaining[:take])
            remaining = remaining[take:]
        return waves
    by_region = {
        region: [h for h in remaining if region_of[h] == region]
        for region in ordered_regions
    }
    canary_target = max(1, int(len(remaining) * canary_frac))
    cap = {
        region: max(0, len(by_region[region]) - 1)
        for region in ordered_regions
    }
    taken = {region: 0 for region in ordered_regions}
    canary: List[str] = []
    progressed = True
    while len(canary) < canary_target and progressed:
        progressed = False
        for region in ordered_regions:
            if len(canary) >= canary_target:
                break
            if taken[region] < cap[region]:
                canary.append(by_region[region][taken[region]])
                taken[region] += 1
                progressed = True
    if not canary:
        canary = [remaining[0]]
    in_canary = set(canary)
    pending = {
        region: [h for h in by_region[region] if h not in in_canary]
        for region in ordered_regions
    }
    rest: List[str] = []
    while any(pending.values()):
        for region in ordered_regions:
            if pending[region]:
                rest.append(pending[region].pop(0))
    waves.append(canary)
    while rest:
        take = max(1, int(len(rest) * wave_frac))
        waves.append(rest[:take])
        rest = rest[take:]
    return waves


@dataclass
class WaveRecord:
    """One staged wave: who, when, and how the gate judged it."""

    index: int
    host_ids: List[str]
    applied_at_s: float
    gated_at_s: Optional[float] = None
    verdicts: List[GateVerdict] = field(default_factory=list)
    passed: Optional[bool] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "host_ids": list(self.host_ids),
            "applied_at_s": self.applied_at_s,
            "gated_at_s": self.gated_at_s,
            "verdicts": [v.to_json() for v in self.verdicts],
            "passed": self.passed,
        }


@dataclass
class RolloutResult:
    """The structured record one rollout leaves behind."""

    rollout_id: int
    spec: PolicySpec
    generation: int
    #: ``succeeded`` | ``rolled_back`` | ``killed`` | ``pending`` |
    #: ``running``.
    status: str
    started_at_s: float = 0.0
    finished_at_s: Optional[float] = None
    waves: List[WaveRecord] = field(default_factory=list)
    rollback_reason: str = ""

    def to_json(self) -> Dict[str, Any]:
        """Versioned JSON envelope (the CI artifact format)."""
        return {
            "schema_version": ROLLOUT_SCHEMA_VERSION,
            "kind": "fleetd-rollout",
            "rollout_id": self.rollout_id,
            "policy": self.spec.to_json(),
            "generation": self.generation,
            "status": self.status,
            "started_at_s": self.started_at_s,
            "finished_at_s": self.finished_at_s,
            "waves": [w.to_json() for w in self.waves],
            "rollback_reason": self.rollback_reason,
        }


@dataclass
class _SavedController:
    """Pre-apply state of one host, for rollback."""

    doc: Any
    generation: int
    spec: PolicySpec


class Rollout:
    """One in-flight guarded rollout, advanced by the engine's tick."""

    def __init__(
        self,
        rollout_id: int,
        spec: PolicySpec,
        generation: int,
        host_ids: Tuple[str, ...],
        config: RolloutConfig,
    ) -> None:
        self.spec = spec
        self.generation = generation
        self.config = config
        self.host_ids = list(host_ids)
        self.result = RolloutResult(
            rollout_id=rollout_id,
            spec=spec,
            generation=generation,
            status="pending",
        )
        self._waves: List[List[str]] = []
        self._wave_index = 0
        self._baselines: Dict[str, HealthSample] = {}
        self._saved: Dict[str, _SavedController] = {}

    @property
    def done(self) -> bool:
        return self.result.status in ("succeeded", "rolled_back", "killed")

    # ------------------------------------------------------------------

    def start(self, registry: HostRegistry, now: float) -> None:
        """Capture baselines and apply the canary wave."""
        self.host_ids = [h for h in self.host_ids if h in registry]
        self.result.status = "running"
        self.result.started_at_s = now
        t0 = max(0.0, now - self.config.baseline_s)
        for host_id in self.host_ids:
            entry = registry.get(host_id)
            # Host metric series run on the host's own clock (zero at
            # registration); shift the engine-time window into it.
            self._baselines[host_id] = sample_host(
                entry.host, _APP_CGROUP,
                max(0.0, t0 - entry.epoch_s),
                max(0.0, now - entry.epoch_s),
                quarantined_now=entry.supervisor.quarantined,
            )
        self._waves = plan_waves(
            tuple(self.host_ids),
            self.config.canary_frac,
            self.config.wave_frac,
            regions={
                host_id: registry.get(host_id).region
                for host_id in self.host_ids
            },
        )
        if not self._waves:
            self.result.status = "succeeded"
            self.result.finished_at_s = now
            return
        self._apply_wave(registry, now)

    def _apply_wave(self, registry: HostRegistry, now: float) -> None:
        wave_hosts = [
            h for h in self._waves[self._wave_index] if h in registry
        ]
        for host_id in wave_hosts:
            entry = registry.get(host_id)
            self._saved[host_id] = _SavedController(
                doc=encode_state(entry.supervisor.controller),
                generation=entry.generation,
                spec=entry.spec,
            )
            entry.supervisor.replace_controller(
                build_controller(self.spec)
            )
            entry.spec = self.spec
            entry.generation = self.generation
            entry.host.metrics.record(
                "fleetd/generation", entry.host.clock.now,
                float(self.generation),
            )
        self.result.waves.append(WaveRecord(
            index=self._wave_index,
            host_ids=wave_hosts,
            applied_at_s=now,
        ))

    # ------------------------------------------------------------------

    def advance(self, registry: HostRegistry, now: float) -> None:
        """One control round: gate a soaked wave, stage the next."""
        if self.done or not self.result.waves:
            return
        wave = self.result.waves[-1]
        if now < wave.applied_at_s + self.config.soak_s:
            return
        wave.gated_at_s = now
        for host_id in wave.host_ids:
            if host_id not in registry:
                continue
            entry = registry.get(host_id)
            observed = sample_host(
                entry.host, _APP_CGROUP,
                max(0.0, wave.applied_at_s - entry.epoch_s),
                max(0.0, now - entry.epoch_s),
                quarantined_now=entry.supervisor.quarantined,
            )
            wave.verdicts.append(evaluate_gate(
                host_id,
                self._baselines.get(host_id, HealthSample()),
                observed,
                self.config.gate,
            ))
        failed = [v for v in wave.verdicts if not v.passed]
        wave.passed = not failed
        if failed:
            reason = "; ".join(
                f"{v.host_id}: {', '.join(v.reasons)}" for v in failed
            )
            self.roll_back(
                registry, now, status="rolled_back",
                reason=f"health gate tripped on wave {wave.index} — "
                       f"{reason}",
            )
            return
        self._wave_index += 1
        if self._wave_index >= len(self._waves):
            self.result.status = "succeeded"
            self.result.finished_at_s = now
            return
        self._apply_wave(registry, now)

    # ------------------------------------------------------------------

    def roll_back(
        self,
        registry: HostRegistry,
        now: float,
        status: str = "rolled_back",
        reason: str = "",
    ) -> None:
        """Revert every applied host to its saved controller state.

        Controller state only: the host keeps running; its supervisor
        just swaps the candidate controller for a replica of the one it
        ran before this rollout touched it.
        """
        for host_id, saved in self._saved.items():
            if host_id not in registry:
                continue
            entry = registry.get(host_id)
            entry.supervisor.replace_controller(
                decode_state(saved.doc)
            )
            entry.spec = saved.spec
            entry.generation = saved.generation
            entry.host.metrics.record(
                "fleetd/generation", entry.host.clock.now,
                float(saved.generation),
            )
        self.result.status = status
        self.result.rollback_reason = reason
        self.result.finished_at_s = now

    def forget_host(self, host_id: str) -> None:
        """Drop a deregistered host from all rollout bookkeeping."""
        self.host_ids = [h for h in self.host_ids if h != host_id]
        self._saved.pop(host_id, None)
        self._baselines.pop(host_id, None)
        for wave in self._waves:
            if host_id in wave:
                wave.remove(host_id)


def parse_rollout_result(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a RolloutResult envelope read back from disk.

    Returns the document as a plain dict; raises ``ValueError`` on a
    missing/unknown schema version or kind, so a stale or foreign
    file fails on read rather than deep inside a caller.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("rollout result must be a JSON object")
    version = doc.get("schema_version")
    if version != ROLLOUT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported rollout result schema_version {version!r} "
            f"(expected {ROLLOUT_SCHEMA_VERSION})"
        )
    if doc.get("kind") != "fleetd-rollout":
        raise ValueError(
            f"not a rollout result document (kind={doc.get('kind')!r})"
        )
    if not isinstance(doc.get("waves"), list):
        raise ValueError("rollout result is missing its wave list")
    return dict(doc)
