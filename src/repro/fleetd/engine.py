"""The deterministic control-plane core.

The engine owns the registry, the tick loop, the rollout queue and the
kill switch. It is *pure simulation*: no wall clock, no sockets, no
threads — one :meth:`FleetdEngine.tick` advances every registered host
by one simulated tick and runs one rollout control round. The server
(:mod:`repro.fleetd.server`) drives ``tick()`` from real time; the
chaos harness (:mod:`repro.fleetd.chaos`) drives it from a seeded
storm schedule; tests drive it directly. All three see identical
behaviour for identical call sequences — that is what makes the chaos
digests reproducible.

Crash recovery rides the PR 8 fleetres path: each host's snapshot
envelope is spooled periodically
(:func:`repro.core.fleetres.spool_snapshot`), each host on its own
phase of the period (:func:`spool_phase`) so no tick carries the whole
fleet's spools; :meth:`crash_host`
restores the latest valid spool, replays the missed ticks, and — when
the spool predates the host's current policy generation — converges
the recovered controller onto the generation the registry says the
host must run. No host is ever left on a stale policy by a crash.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import islice
from math import isfinite
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.fleetres import load_spooled_snapshot, spool_snapshot
from repro.core.supervisor import Supervisor, SupervisorConfig
from repro.fleetd.policy import PolicySpec, build_controller
from repro.fleetd.registry import (
    HostEntry,
    HostRegistry,
    RegistryError,
    build_fleetd_host,
)
from repro.fleetd.rollout import Rollout, RolloutConfig, RolloutResult
from repro.fleetd.rollup import FleetRollup, fleet_rollup, top_hosts
from repro.sim.host import HostConfig
from repro.sim.metrics import metrics_digest

_HOST_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _phase_order(spool_every: int) -> Iterator[int]:
    """Every phase in ``[0, spool_every)`` once, in low-discrepancy order.

    The van der Corput sequence (bit reversal of 0, 1, 2, ... over the
    next power of two) scaled to the period, each phase kept at its
    first appearance: 0, 30, 15, 45, 7, 37, ... at a period of 60.
    Scaling by at most one step per value hits every phase.
    """
    bits = (spool_every - 1).bit_length()
    taken = set()
    for j in range(1 << bits):
        phase = int(f"{j:0{bits}b}"[::-1], 2) * spool_every >> bits
        if phase not in taken:
            taken.add(phase)
            yield phase


def spool_phase(ordinal: int, spool_every: int) -> int:
    """The spool phase of the ``ordinal``-th registration (from 0).

    Any prefix of registrations is spread over the period without
    knowing the final fleet size, and every ``spool_every`` consecutive
    ordinals take each phase once, so ``n`` hosts put at most
    ``ceil(n / spool_every)`` spools on one tick.
    """
    return next(islice(_phase_order(spool_every), ordinal % spool_every, None))


class FleetdError(RuntimeError):
    """A control-plane operation the engine refuses."""


@dataclass(frozen=True)
class FleetdConfig:
    """Engine-level configuration.

    Attributes:
        seed: fleet master seed; host seeds derive from it by host id.
        base_config: hardware template for registered hosts (each gets
            its own derived seed and backend).
        supervisor: watchdog config for every host's policy controller.
        rollout: staging/gating defaults for guarded rollouts.
        checkpoint_every_s: simulated seconds between snapshot spools
            per host (``inf`` disables spooling, and with it crash
            *recovery* — a crashed host then rebuilds from scratch).
        spool_dir: directory for the per-host spool files; ``None``
            provisions a temporary directory owned by the engine
            (removed by :meth:`FleetdEngine.close`).
    """

    seed: int = 7
    base_config: HostConfig = field(default_factory=HostConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)
    checkpoint_every_s: float = 60.0
    spool_dir: Optional[str] = None


class FleetdEngine:
    """Registry + tick loop + guarded-rollout state machine."""

    def __init__(self, config: FleetdConfig = FleetdConfig()) -> None:
        self.config = config
        self.registry = HostRegistry()
        self.tick_index = 0
        #: The fleet kill switch: once engaged, no rollout starts or
        #: continues until the operator constructs a new engine.
        self.frozen = False
        self.active: Optional[Rollout] = None
        self.queue: List[Rollout] = []
        self.results: List[RolloutResult] = []
        #: The fleet's committed policy: what the last *succeeded*
        #: rollout deployed (initially the default spec). Hosts
        #: registered without an explicit spec join at this policy —
        #: never at a canary's, which may be mid-gate and about to be
        #: rolled back.
        self.committed_spec = PolicySpec()
        #: Hosts recovered through the crash path, by id (observability
        #: for status and the chaos verdict).
        self.recoveries: Dict[str, int] = {}
        self._next_rollout_id = 1
        self._next_generation = 1
        #: Hosts ever registered; orders the spool phases.
        self._registrations = 0
        self._spool_root = config.spool_dir
        self._owns_spool = config.spool_dir is None
        if self._spool_root is None:
            self._spool_root = tempfile.mkdtemp(prefix="tmo-fleetd-")
        else:
            os.makedirs(self._spool_root, exist_ok=True)
        tick_s = config.base_config.tick_s
        if isfinite(config.checkpoint_every_s):
            self._spool_every_ticks: Optional[int] = max(
                1, int(round(config.checkpoint_every_s / tick_s))
            )
        else:
            self._spool_every_ticks = None

    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Engine simulated time (ticks × tick quantum)."""
        return self.tick_index * self.config.base_config.tick_s

    def close(self) -> None:
        """Release the engine's spool directory (when it owns one)."""
        if self._owns_spool and self._spool_root is not None:
            shutil.rmtree(self._spool_root, ignore_errors=True)
            self._spool_root = None

    def __enter__(self) -> "FleetdEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # registry operations

    def register(
        self,
        host_id: str,
        app: str,
        spec: Optional[PolicySpec] = None,
        size_scale: float = 1.0,
        region: str = "default",
    ) -> HostEntry:
        """Admit a new host into the running fleet."""
        if not _HOST_ID_RE.match(host_id):
            raise RegistryError(
                f"host id {host_id!r} must match {_HOST_ID_RE.pattern}"
            )
        if not _HOST_ID_RE.match(region):
            raise RegistryError(
                f"region {region!r} must match {_HOST_ID_RE.pattern}"
            )
        if not 0.0 < size_scale <= 1.0:
            raise RegistryError(
                f"size_scale must be in (0, 1], got {size_scale!r}"
            )
        spec = spec if spec is not None else self.committed_spec
        host = build_fleetd_host(
            self.config.base_config,
            self.config.seed,
            host_id,
            app,
            spec,
            self.config.supervisor,
            size_scale=size_scale,
        )
        supervisor = self._find_supervisor(host)
        entry = HostEntry(
            host_id=host_id,
            app=app,
            host=host,
            supervisor=supervisor,
            spec=spec,
            region=region,
            generation=0,
            registered_tick=self.tick_index,
            epoch_s=self.now,
            spool_path=os.path.join(
                self._spool_root, f"{host_id}.snapshot"
            ),
            spool_phase=(
                spool_phase(self._registrations, self._spool_every_ticks)
                if self._spool_every_ticks is not None else 0
            ),
            size_scale=size_scale,
        )
        self.registry.add(entry)
        self._registrations += 1
        return entry

    def deregister(self, host_id: str) -> HostEntry:
        """Remove a host from the fleet (it stops ticking); returns its
        entry."""
        entry = self.registry.remove(host_id)
        if self.active is not None:
            self.active.forget_host(host_id)
        for rollout in self.queue:
            rollout.forget_host(host_id)
        if entry.spool_path is not None:
            try:
                os.remove(entry.spool_path)
            except OSError:
                pass
        return entry

    @staticmethod
    def _find_supervisor(host) -> Supervisor:
        for controller in host.controllers():
            if isinstance(controller, Supervisor):
                return controller
        raise FleetdError("fleetd host has no supervised controller")

    # ------------------------------------------------------------------
    # rollout surface

    def begin_rollout(
        self,
        spec: PolicySpec,
        host_ids: Optional[Sequence[str]] = None,
        config: Optional[RolloutConfig] = None,
    ) -> int:
        """Queue a guarded rollout; returns its rollout id."""
        if self.frozen:
            raise FleetdError(
                "fleet kill switch is engaged; no further policy "
                "changes are accepted"
            )
        targets = (
            tuple(host_ids) if host_ids is not None
            else tuple(self.registry.ids())
        )
        for host_id in targets:
            self.registry.get(host_id)  # raises for unknown ids
        rollout = Rollout(
            rollout_id=self._next_rollout_id,
            spec=spec,
            generation=self._next_generation,
            host_ids=targets,
            config=config if config is not None else self.config.rollout,
        )
        self._next_rollout_id += 1
        self._next_generation += 1
        self.queue.append(rollout)
        return rollout.result.rollout_id

    def rollback_active(self, reason: str = "manual rollback") -> bool:
        """Abort the in-flight rollout, reverting applied hosts."""
        if self.active is None:
            return False
        self.active.roll_back(
            self.registry, self.now, status="rolled_back", reason=reason
        )
        self.results.append(self.active.result)
        self.active = None
        return True

    def kill_switch(self) -> int:
        """Revert every in-flight rollout and freeze policy changes.

        Returns the number of rollouts (active + queued) killed. The
        freeze is permanent for this engine: the kill switch is the
        last word, not a pause.
        """
        killed = 0
        self.frozen = True
        if self.active is not None:
            self.active.roll_back(
                self.registry, self.now,
                status="killed", reason="fleet kill switch",
            )
            self.results.append(self.active.result)
            self.active = None
            killed += 1
        for rollout in self.queue:
            rollout.result.status = "killed"
            rollout.result.rollback_reason = "fleet kill switch"
            rollout.result.finished_at_s = self.now
            self.results.append(rollout.result)
            killed += 1
        self.queue.clear()
        return killed

    def rollout_result(self, rollout_id: int) -> Optional[RolloutResult]:
        """Look one rollout's result up, in-flight or finished."""
        if (
            self.active is not None
            and self.active.result.rollout_id == rollout_id
        ):
            return self.active.result
        for rollout in self.queue:
            if rollout.result.rollout_id == rollout_id:
                return rollout.result
        for result in self.results:
            if result.rollout_id == rollout_id:
                return result
        return None

    # ------------------------------------------------------------------
    # the tick loop

    def tick(self) -> None:
        """Advance the fleet by one simulated tick."""
        self.tick_index += 1
        for entry in self.registry.values():
            if entry.wedged:
                if entry.wedged_until_tick > self.tick_index:
                    continue
                entry.wedged_until_tick = 0
            self._catch_up(entry)
            self._maybe_spool(entry)
        if self.active is not None:
            self.active.advance(self.registry, self.now)
            if self.active.done:
                if self.active.result.status == "succeeded":
                    self.committed_spec = self.active.spec
                self.results.append(self.active.result)
                self.active = None
        if self.active is None and self.queue and not self.frozen:
            self.active = self.queue.pop(0)
            self.active.start(self.registry, self.now)

    def run_ticks(self, n: int) -> int:
        """Advance ``n`` ticks; returns the tick index reached."""
        for _ in range(n):
            self.tick()
        return self.tick_index

    def _catch_up(self, entry: HostEntry) -> None:
        """Step the host to the engine's tick target for it."""
        target = self.tick_index - entry.registered_tick
        while entry.host.tick_count < target:
            entry.host.step()

    def _maybe_spool(self, entry: HostEntry) -> None:
        if self._spool_every_ticks is None or entry.spool_path is None:
            return
        tick = entry.host.tick_count
        if (tick + entry.spool_phase) % self._spool_every_ticks == 0:
            spool_snapshot(entry.host, entry.spool_path)
            entry.spool_generation = entry.generation
            entry.last_spool_tick = tick

    # ------------------------------------------------------------------
    # chaos seams: host-level faults

    def crash_host(self, host_id: str) -> bool:
        """Kill a host's worker and recover it (the fleetres path).

        The latest valid spool is restored and the missed ticks
        replayed; without one the host rebuilds from scratch and
        replays its whole life. Either way the recovered host must end
        on the registry's policy generation: a spool taken before the
        current generation was applied restores a *stale* controller,
        which is immediately replaced with a fresh instance of the
        generation's policy — convergence beats preserving a dead
        host's mid-rollout state. Returns True when the recovery came
        from a spool.
        """
        entry = self.registry.get(host_id)
        restored = (
            load_spooled_snapshot(entry.spool_path)
            if entry.spool_path is not None else None
        )
        from_spool = restored is not None
        stale_generation = (
            from_spool and entry.spool_generation != entry.generation
        )
        if restored is None:
            restored = build_fleetd_host(
                self.config.base_config,
                self.config.seed,
                entry.host_id,
                entry.app,
                entry.spec,
                self.config.supervisor,
                size_scale=entry.size_scale,
            )
        entry.host = restored
        entry.supervisor = self._find_supervisor(restored)
        if stale_generation:
            entry.supervisor.replace_controller(
                build_controller(entry.spec)
            )
        entry.wedged_until_tick = 0
        self._catch_up(entry)
        if stale_generation:
            entry.host.metrics.record(
                "fleetd/generation",
                entry.host.clock.now,
                float(entry.generation),
            )
        self.recoveries[host_id] = self.recoveries.get(host_id, 0) + 1
        return from_spool

    def wedge_host(self, host_id: str, duration_s: float) -> None:
        """Hang a host's worker for ``duration_s`` of engine time.

        The host stops ticking (its metric series go silent — a
        mid-soak wedge trips the health gate's no-samples check) and
        catches the missed ticks up once the wedge lifts.
        """
        entry = self.registry.get(host_id)
        tick_s = self.config.base_config.tick_s
        ticks = max(1, int(round(duration_s / tick_s)))
        entry.wedged_until_tick = self.tick_index + ticks

    # ------------------------------------------------------------------
    # observability

    def fleet_rollup(self, window_s: float = 60.0) -> FleetRollup:
        """Read-only host → region → fleet rollup (``metrics`` verb).

        Digest-neutral by construction: every lookup rides the
        recorder's non-registering path, so calling this N times
        leaves :meth:`fleet_digest` byte-identical to never calling it.
        """
        return fleet_rollup(self, window_s)

    def top_hosts(
        self, signal: str, n: int = 5, window_s: float = 60.0
    ) -> Dict[str, Any]:
        """Rank hosts by a rollup signal (``top`` verb); read-only."""
        return top_hosts(self, signal, n, window_s)

    def fleet_digest(self) -> str:
        """SHA-256 over every host's metric digest, order-independent."""
        lines = sorted(
            f"{entry.host_id} {metrics_digest(entry.host.metrics)}"
            for entry in self.registry.values()
        )
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def status(self) -> Dict[str, Any]:
        """JSON-clean control-plane status document."""
        return {
            "now_s": self.now,
            "tick": self.tick_index,
            "frozen": self.frozen,
            "committed_policy": self.committed_spec.to_json(),
            "hosts": [
                entry.status() for entry in self.registry.values()
            ],
            "active_rollout": (
                self.active.result.to_json()
                if self.active is not None else None
            ),
            "queued_rollouts": [
                r.result.rollout_id for r in self.queue
            ],
            "completed_rollouts": [r.to_json() for r in self.results],
            "recoveries": dict(self.recoveries),
        }
