"""Memory-tax workloads (Section 2.3).

Datacenter memory tax — software packages, profiling, logging and other
supporting functions — averages 13% of server memory and is uniform
across workloads. Microservice tax — routing, proxying, service
discovery for disaggregated services — averages 7% and varies by app.
Both have much more relaxed performance SLAs than the applications they
support, which is why they were TMO's first offloading target.
"""

from __future__ import annotations

from typing import Dict

from repro.kernel.mm import MemoryManager
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

#: Tax footprints as a fraction of total server memory (Figure 3).
DATACENTER_TAX_FRAC = 0.13
MICROSERVICE_TAX_FRAC = 0.07

#: Sidecar profiles. Sizes here are per 64 GB host (13% / 7%); hosts
#: scale them via ``size_scale`` at start. The taxes are colder than the
#: applications (their working sets are sporadic — log flushes, routing
#: table refreshes) and compress well (text-heavy buffers).
TAX_PROFILES: Dict[str, AppProfile] = {
    "Datacenter Tax": AppProfile(
        name="Datacenter Tax",
        size_gb=64.0 * DATACENTER_TAX_FRAC,
        anon_frac=0.30,
        bands=HeatBands(0.20, 0.08, 0.10),  # 62% cold
        compress_ratio=3.5,
        preferred_backend="zswap",
        nthreads=4,
        cpu_cores=1.0,
    ),
    "Microservice Tax": AppProfile(
        name="Microservice Tax",
        size_gb=64.0 * MICROSERVICE_TAX_FRAC,
        anon_frac=0.55,
        bands=HeatBands(0.30, 0.10, 0.10),  # 50% cold
        compress_ratio=3.0,
        preferred_backend="zswap",
        nthreads=4,
        cpu_cores=1.0,
    ),
}


class TaxWorkload(Workload):
    """A sidecar container carrying one of the memory taxes."""

    __state__ = ("kind",)

    def __init__(
        self,
        mm: MemoryManager,
        kind: str,
        cgroup_name: str,
        seed: int,
    ) -> None:
        if kind not in TAX_PROFILES:
            raise KeyError(
                f"unknown tax kind {kind!r}; have {sorted(TAX_PROFILES)}"
            )
        super().__init__(mm, TAX_PROFILES[kind], cgroup_name, seed)
        self.kind = kind
