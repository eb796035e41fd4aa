"""``repro.fleetd``: the fleet control-plane daemon.

TMO is not a batch job at Meta — it is a fleet service whose
per-application offloading policies are tuned and redeployed across
millions of running servers without restarting them (paper Section 6).
This package is that production shape for the reproduction:

* :mod:`repro.fleetd.engine` — the deterministic control-plane core: a
  registry of supervised, long-running hosts that can be registered and
  deregistered while the fleet ticks, with periodic snapshot spooling
  and crash recovery through the :mod:`repro.core.fleetres` path;
* :mod:`repro.fleetd.policy` — JSON-clean policy specifications
  (Senpai / AutoTuneSenpai / g-swap) that can be built into live
  controllers and swapped without restarting the host;
* :mod:`repro.fleetd.rollout` — the guarded rollout engine: staged
  canary waves, each watched by a health gate against the pre-rollout
  baseline, with automatic rollback of the canary hosts' controller
  state (via the :mod:`repro.checkpoint` codec) when a gate trips, and
  a fleet-wide kill switch;
* :mod:`repro.fleetd.rollup` — the one window read of a host
  (:func:`~repro.fleetd.rollup.sample_host`: PSI, refaults, offload
  sizes, OOM kills, breaker state, reduced to fixed-size mergeable
  summaries) and the read-only query surface built on it: host →
  region → fleet rollups behind the ``metrics``/``top`` verbs. Every
  read is non-registering, so querying a live fleet never perturbs its
  digests (query-twice == query-never, asserted by ``chaos
  --fleetd``);
* :mod:`repro.fleetd.health` — the rollout health gate: a wave host's
  soak-window rollup judged against its pre-rollout baseline rollup,
  with limits anchored to Senpai's pressure target;
* :mod:`repro.fleetd.verbs` — the verb table: each socket verb's
  parameters (JSON type, default, bound), result key, help and
  handler, written once and read by the server, the client and the
  ``repro fleetd`` CLI;
* :mod:`repro.fleetd.server` / :mod:`repro.fleetd.client` — the socket
  control surface (newline-delimited JSON over a Unix domain socket)
  and its client, driven by the ``repro fleetd`` CLI verbs;
* :mod:`repro.fleetd.chaos` — ``chaos --fleetd``: the control-plane
  topology of the one chaos driver — seeded rollout storms under
  injected controller/host faults, checked for a single policy
  fleet-wide and a kill switch that always wins, plus the driver's
  determinism and query-neutrality contracts.

See docs/RESILIENCE.md, "Control plane".
"""

from repro.fleetd.engine import FleetdConfig, FleetdEngine
from repro.fleetd.health import GateVerdict, evaluate_gate
from repro.fleetd.policy import PolicySpec, build_controller
from repro.fleetd.rollout import RolloutConfig, RolloutResult
from repro.fleetd.rollup import (
    FleetRollup,
    HostRollup,
    RegionRollup,
    SignalSummary,
    sample_host,
)

__all__ = [
    "FleetdConfig",
    "FleetdEngine",
    "FleetRollup",
    "GateVerdict",
    "HostRollup",
    "PolicySpec",
    "build_controller",
    "evaluate_gate",
    "RegionRollup",
    "RolloutConfig",
    "RolloutResult",
    "SignalSummary",
    "sample_host",
]
