"""The control plane's host registry.

Each registered host is a full simulated server (one app container plus
the datacenter-tax sidecars: the :mod:`repro.core.fleet` host recipe)
whose offloading controller runs under a
:class:`~repro.core.supervisor.Supervisor` so the control plane can
swap and restart it live. The registry is pure
bookkeeping — the :class:`~repro.fleetd.engine.FleetdEngine` owns the
tick loop and mutates entries through it.

Seeds derive per host id (``derive_seed(seed, "fleetd:<host_id>")``),
never from registration order, so registering hosts in a different
order — or re-admitting one after a crash — reproduces the same
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.core.fleet import build_app_host
from repro.core.supervisor import Supervisor, SupervisorConfig
from repro.fleetd.policy import PolicySpec, build_controller
from repro.sim.host import Host, HostConfig
from repro.sim.rng import derive_seed
from repro.workloads.apps import APP_CATALOG


class RegistryError(ValueError):
    """A registry operation that cannot be honoured (dup/unknown id)."""


@dataclass
class HostEntry:
    """One registered host and its control-plane bookkeeping.

    Attributes:
        host_id: the operator-chosen registry key.
        app: app-catalog profile the host runs.
        region: operator-assigned placement label. Purely bookkeeping
            for the query surface (rollups fold host → region → fleet)
            and region-aware wave planning; it never reaches the
            simulation, so two fleets differing only in region labels
            produce identical metric digests.
        host: the live simulated server.
        supervisor: the supervisor wrapping the host's policy
            controller (also present in ``host.controllers()``).
        spec: the policy the host is *supposed* to run — the rollout
            engine's source of truth when a recovered host must
            converge.
        generation: monotonic policy generation this host is on;
            bumped on every applied rollout wave, reverted on rollback.
        registered_tick: engine tick index at registration; the
            engine's per-host tick target is measured from here.
        epoch_s: the engine's simulated time at registration. A host's
            metric series run on its own clock starting at zero, so
            anything comparing them against engine time (the rollout
            health gates) must shift windows by this offset.
        spool_path: where this host's snapshot envelope is spooled.
        spool_generation: the policy generation the latest spool was
            taken under (a recovery restoring an older spool uses this
            to detect a stale controller).
        spool_phase: offset in ``[0, spool period)`` of this host's
            spool ticks: it spools when ``(host.tick_count +
            spool_phase) % period == 0``. Assigned once at registration
            and kept through crash recovery and wedge catch-up, so the
            fleet's spools stay spread over the period.
        last_spool_tick: host tick of the latest spool, or ``None``
            before the first.
        wedged_until_tick: engine tick until which the host's worker is
            hung (the ``worker_hang`` chaos seam); the host does not
            tick while wedged and catches up after.
        size_scale: the build parameter, kept so crash recovery can
            rebuild the host from scratch when no valid spool exists.
    """

    host_id: str
    app: str
    host: Host
    supervisor: Supervisor
    spec: PolicySpec
    region: str = "default"
    generation: int = 0
    registered_tick: int = 0
    epoch_s: float = 0.0
    spool_path: Optional[str] = None
    spool_generation: int = 0
    spool_phase: int = 0
    last_spool_tick: Optional[int] = None
    wedged_until_tick: int = 0
    size_scale: float = 1.0

    @property
    def wedged(self) -> bool:
        return self.wedged_until_tick > 0

    def status(self) -> Dict[str, object]:
        """JSON-clean summary for ``fleetd status``."""
        return {
            "host_id": self.host_id,
            "app": self.app,
            "region": self.region,
            "policy": self.spec.to_json(),
            "generation": self.generation,
            "ticks": self.host.tick_count,
            "alive": self.supervisor.alive,
            "restarts": self.supervisor.restart_count,
            "wedged": self.wedged,
            "spool_phase": self.spool_phase,
            "last_spool_tick": self.last_spool_tick,
        }


def build_fleetd_host(
    base_config: HostConfig,
    fleet_seed: int,
    host_id: str,
    app: str,
    spec: PolicySpec,
    supervisor_config: SupervisorConfig,
    size_scale: float = 1.0,
) -> Host:
    """Construct one registered host with its derived seed.

    The :func:`repro.core.fleet.build_app_host` recipe, tax sidecars
    included, with the seed derived from the host id and the
    controller built from a
    :class:`~repro.fleetd.policy.PolicySpec`, supervised so the control
    plane can swap it live.
    """
    if app not in APP_CATALOG:
        raise RegistryError(
            f"unknown app {app!r}; have {sorted(APP_CATALOG)}"
        )
    config = replace(
        base_config,
        backend=base_config.backend or APP_CATALOG[app].preferred_backend,
        seed=derive_seed(fleet_seed, f"fleetd:{host_id}"),
    )
    return build_app_host(
        config, app, size_scale, include_tax=True,
        controller=Supervisor(build_controller(spec), supervisor_config),
    )


@dataclass
class HostRegistry:
    """Insertion-ordered registry of live host entries."""

    entries: Dict[str, HostEntry] = field(default_factory=dict)

    def add(self, entry: HostEntry) -> None:
        if entry.host_id in self.entries:
            raise RegistryError(
                f"host {entry.host_id!r} is already registered"
            )
        self.entries[entry.host_id] = entry

    def remove(self, host_id: str) -> HostEntry:
        entry = self.entries.pop(host_id, None)
        if entry is None:
            raise RegistryError(f"host {host_id!r} is not registered")
        return entry

    def get(self, host_id: str) -> HostEntry:
        entry = self.entries.get(host_id)
        if entry is None:
            raise RegistryError(f"host {host_id!r} is not registered")
        return entry

    def __contains__(self, host_id: str) -> bool:
        return host_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self):
        """Registered host ids, in registration order."""
        return list(self.entries)

    def values(self):
        return list(self.entries.values())
