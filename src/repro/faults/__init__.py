"""repro.faults: deterministic fault injection and the chaos harness.

TMO's value proposition is not just savings in the happy path — the
paper's deployment ran across millions of machines where devices
brown out, telemetry readers hang and containers restart in storms.
This package makes those conditions first-class and *reproducible*:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a seed-derived,
  bit-reproducible schedule of :class:`FaultEvent` windows.
* :mod:`repro.faults.injector` — :class:`FaultInjector`: a host
  controller that applies the plan through the simulator's public
  fault seams (``DeviceFaultState``, ``ControlFsFaultState``, the PSI
  telemetry freeze, the host workload-event hooks) and records every
  injection as ``faults/*`` metrics.
* :mod:`repro.faults.chaos` — the one chaos driver: a storm (seed,
  topology, fault plan) runs as several variants, and one
  :class:`ChaosVerdict` judges the same contracts on every topology —
  determinism, query-neutrality, crash-equivalence — plus the
  topology's graceful-degradation checks. The ``host`` and ``fleet``
  topologies live there, ``fleetd``'s in :mod:`repro.fleetd.chaos`.

See docs/RESILIENCE.md for the fault taxonomy and the controller
hardening this package exercises.
"""

from repro.faults.chaos import (
    CONTRACTS,
    FLEET_TOPOLOGY,
    HOST_TOPOLOGY,
    ChaosConfig,
    ChaosVerdict,
    FleetChaosConfig,
    Topology,
    run_storm,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CONTROLLER_KINDS,
    FAULT_KINDS,
    GENERATED_KINDS,
    WORKER_KINDS,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "CONTROLLER_KINDS",
    "FAULT_KINDS",
    "GENERATED_KINDS",
    "WORKER_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "CONTRACTS",
    "FLEET_TOPOLOGY",
    "HOST_TOPOLOGY",
    "ChaosConfig",
    "ChaosVerdict",
    "FleetChaosConfig",
    "Topology",
    "run_storm",
]
