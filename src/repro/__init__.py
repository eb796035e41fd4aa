"""TMO: Transparent Memory Offloading in Datacenters — reproduction.

A full Python reproduction of Weiner et al., ASPLOS '22, on a simulated
kernel/device substrate:

* :mod:`repro.psi` — Pressure Stall Information, the kernel mechanism
  that measures lost work due to CPU/memory/IO shortage.
* :mod:`repro.kernel` — the memory-management substrate: cgroups, LRU
  lists, shadow-entry refault detection, and the legacy vs TMO reclaim
  balancing algorithms.
* :mod:`repro.backends` — offload backends: the Figure 5 SSD catalog
  and the zswap compressed pool.
* :mod:`repro.workloads` — the application catalog parameterised by the
  paper's published workload characteristics.
* :mod:`repro.core` — the control plane: Senpai, its legacy limit-based
  ancestor, the g-swap baseline, write-endurance regulation, and the
  fleet harness.
* :mod:`repro.sim` — the deterministic host simulator.
* :mod:`repro.analysis` — cost trends, coldness profiling, reporting.

Quickstart::

    from repro import Host, HostConfig, Senpai, SenpaiConfig, Workload
    from repro.workloads import APP_CATALOG

    host = Host(HostConfig(ram_gb=4.0, page_size_bytes=1 << 20, backend="zswap"))
    host.add_workload(Workload, profile=APP_CATALOG["Feed"],
                      name="feed", size_scale=0.05)
    host.add_controller(Senpai(SenpaiConfig()))
    host.run(600.0)
    print(host.mm.cgroup("feed").zswap_bytes)
"""

from repro.backends import SSD_CATALOG, SsdSwapBackend, ZswapBackend
from repro.checkpoint import SnapshotError
from repro.core import (
    FailedHost,
    Fleet,
    FleetResult,
    GSwapConfig,
    GSwapController,
    HostPlan,
    LimitSenpai,
    LimitSenpaiConfig,
    Oomd,
    OomdConfig,
    Senpai,
    SenpaiConfig,
    SenpaiDaemon,
    SenpaiDaemonConfig,
    Supervisor,
    SupervisorConfig,
    WriteRegulator,
    reclaim_amount,
)
from repro.core.senpai import SloTier
from repro.core.fleet import cgroup_memory_savings
from repro.kernel import (
    Cgroup,
    LegacyReclaimPolicy,
    MemoryManager,
    OutOfMemoryError,
    PageKind,
    PageState,
    PageTable,
    TmoReclaimPolicy,
)
from repro.psi import PsiGroup, PsiSystem, Resource, TaskFlags
from repro.sim.host import Host, HostConfig
from repro.workloads import (
    APP_CATALOG,
    AppProfile,
    TaxWorkload,
    WebConfig,
    WebWorkload,
    Workload,
)

__version__ = "1.0.0"

__all__ = [
    "APP_CATALOG",
    "AppProfile",
    "Cgroup",
    "FailedHost",
    "Fleet",
    "FleetResult",
    "GSwapConfig",
    "GSwapController",
    "Host",
    "HostConfig",
    "HostPlan",
    "LegacyReclaimPolicy",
    "LimitSenpai",
    "LimitSenpaiConfig",
    "MemoryManager",
    "OutOfMemoryError",
    "PageKind",
    "PageState",
    "PageTable",
    "PsiGroup",
    "PsiSystem",
    "Resource",
    "SSD_CATALOG",
    "SnapshotError",
    "Supervisor",
    "SupervisorConfig",
    "Oomd",
    "OomdConfig",
    "Senpai",
    "SenpaiConfig",
    "SenpaiDaemon",
    "SenpaiDaemonConfig",
    "SloTier",
    "SsdSwapBackend",
    "TaskFlags",
    "TaxWorkload",
    "TmoReclaimPolicy",
    "WebConfig",
    "WebWorkload",
    "Workload",
    "WriteRegulator",
    "ZswapBackend",
    "cgroup_memory_savings",
    "reclaim_amount",
]
