"""Fleet rollout harness.

Section 4.1 reports TMO's fleet-wide savings: 7-19% of resident memory
per application (backend-dependent) plus ~13% of server memory from the
datacenter and microservice taxes, for 20-32% total. This module runs
many seeded host instances — each carrying one application container and
its tax sidecars under Senpai — and aggregates per-application and
fleet-level savings.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fleetres import (
    FleetResilienceConfig,
    HostUnit,
    run_units,
)
from repro.core.senpai import Senpai, SenpaiConfig
from repro.faults.plan import FaultPlan
from repro.kernel.mm import MemoryManager
from repro.sim.host import Controller, Host, HostConfig
from repro.sim.metrics import metrics_digest
from repro.sim.rng import derive_seed
from repro.workloads.apps import APP_CATALOG
from repro.workloads.base import Workload
from repro.workloads.tax import TAX_PROFILES, TaxWorkload
from repro.workloads.web import WebWorkload

_GB = 1 << 30


def cgroup_memory_savings(mm: MemoryManager, cgroup_name: str) -> Dict[str, float]:
    """Savings accounting for one container.

    The baseline footprint is what the container would occupy without
    TMO: its resident bytes plus everything currently offloaded. The
    real DRAM saving nets out the zswap pool's physical footprint,
    attributed to the container by its share of the pool's logical
    content.

    Returns a dict with ``baseline_bytes``, ``saved_bytes``,
    ``savings_frac``, ``saved_anon_bytes`` and ``saved_file_bytes``.
    """
    cg = mm.cgroup(cgroup_name)
    offloaded_anon = cg.swap_bytes + cg.zswap_bytes
    # File-cache savings: pages reclaim evicted that the workload has
    # not needed back. Their shadow entries are exactly that set — a
    # shadow is installed on eviction and consumed on refault.
    saved_file = len(cg.shadow) * cg.page_size_bytes
    baseline = cg.resident_bytes + offloaded_anon + saved_file
    pool_overhead = 0.0
    if cg.zswap_bytes > 0 and mm.swap_backend is not None:
        total_logical = sum(c.zswap_bytes for c in mm.cgroups())
        if total_logical > 0:
            pool_overhead = mm.zswap_pool_bytes * (
                cg.zswap_bytes / total_logical
            )
    saved_anon = max(0.0, offloaded_anon - pool_overhead)
    saved = saved_anon + saved_file
    return {
        "baseline_bytes": float(baseline),
        "saved_bytes": saved,
        "savings_frac": saved / baseline if baseline > 0 else 0.0,
        "saved_anon_bytes": saved_anon,
        "saved_file_bytes": float(saved_file),
        "offloaded_bytes": float(offloaded_anon),
        "pool_overhead_bytes": pool_overhead,
    }


@dataclass(frozen=True)
class HostPlan:
    """One slice of the fleet: ``count`` hosts running ``app``."""

    app: str
    count: int = 1
    backend: Optional[str] = None  # None -> the profile's preference
    size_scale: float = 1.0
    include_tax: bool = True
    senpai: SenpaiConfig = field(default_factory=SenpaiConfig)


@dataclass
class HostReport:
    """Savings measured on one host at the end of its run."""

    app: str
    backend: str
    host_index: int
    ram_bytes: int
    app_baseline_bytes: float
    app_saved_bytes: float
    tax_saved_bytes: float
    #: SHA-256 over the host's full metric recorder (see
    #: :func:`repro.sim.metrics.metrics_digest`): the parallel-vs-serial
    #: equivalence token. Identical seeds must yield identical digests
    #: regardless of worker count.
    metrics_digest: str = ""
    #: Pages reclaimed on this host over the run (sum of per-cgroup
    #: ``pgsteal``); the benchmark harness reports fleet reclaim rates
    #: from this.
    pgsteal: int = 0
    #: How many attempts the resilience runtime needed for this host
    #: (1 means the first run completed).
    attempts: int = 1
    #: Whether the final attempt resumed from a spooled checkpoint
    #: rather than rebuilding from scratch.
    recovered: bool = False

    @property
    def app_savings_frac(self) -> float:
        """App savings normalised to the app's resident baseline
        (Figure 9's normalisation)."""
        if self.app_baseline_bytes <= 0:
            return 0.0
        return self.app_saved_bytes / self.app_baseline_bytes

    @property
    def tax_savings_frac_of_ram(self) -> float:
        """Tax savings normalised to server memory (Figure 10)."""
        return self.tax_saved_bytes / self.ram_bytes

    @property
    def total_savings_frac_of_ram(self) -> float:
        return (self.app_saved_bytes + self.tax_saved_bytes) / self.ram_bytes


@dataclass(frozen=True)
class FailedHost:
    """One host quarantined during a fleet rollout.

    The rollout continues past it (one bad host must not abort a
    fleet-wide experiment); the failure is recorded here — with enough
    context to reproduce it from the record alone — and the aggregates
    are flagged partial.
    """

    app: str
    host_index: int
    error: str
    #: The derived seed the host ran with
    #: (``derive_seed(fleet_seed, "host:<app>:<index>")``).
    seed: int = 0
    #: Where the final attempt died: ``"build"``, ``"run"`` or
    #: ``"measure"``.
    phase: str = "run"
    #: Attempts the resilience runtime spent before quarantining.
    attempts: int = 1
    #: Last lines of the final attempt's traceback, when one exists.
    traceback_tail: str = ""
    #: Whether the final failure was a hang (deadline kill) rather
    #: than a crash or exception.
    hung: bool = False

    def repro_hint(self) -> str:
        """A one-line hint for reproducing this failure standalone."""
        mode = "hang" if self.hung else "failure"
        return (
            f"{self.app}#{self.host_index}: {mode} in phase "
            f"'{self.phase}' after {self.attempts} attempt(s) "
            f"[host seed {self.seed}] — {self.error}"
        )


@dataclass
class FleetResult:
    """Aggregated savings across all hosts of a fleet run."""

    reports: List[HostReport] = field(default_factory=list)
    failed_hosts: List[FailedHost] = field(default_factory=list)
    #: Hosts the rollout planned (completeness denominator). 0 for
    #: results assembled by hand from reports alone.
    planned_hosts: int = 0

    @property
    def partial(self) -> bool:
        """Whether any host failed, making the aggregates partial."""
        return bool(self.failed_hosts)

    @property
    def completed_fraction(self) -> float:
        """Fraction of planned hosts that produced a report.

        The honesty metric for every aggregate below: a mean over 80%
        of the fleet is a biased estimate, not a fleet number.
        """
        total = self.planned_hosts or (
            len(self.reports) + len(self.failed_hosts)
        )
        if total <= 0:
            return 1.0
        return len(self.reports) / total

    @property
    def recovered_hosts(self) -> int:
        """Hosts whose final attempt resumed from a spooled snapshot."""
        return sum(1 for r in self.reports if r.recovered)

    def merged_digest(self) -> str:
        """SHA-256 over every host's metric digest, order-independent.

        The fleet-level equivalence token: two rollouts over the same
        plans and seed must match digest-for-digest regardless of
        worker count, retries or checkpoint recovery.
        """
        lines = sorted(
            f"{r.app} {r.host_index} {r.metrics_digest}"
            for r in self.reports
        )
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def apps(self) -> List[str]:
        seen: List[str] = []
        for report in self.reports:
            if report.app not in seen:
                seen.append(report.app)
        return seen

    def _mean(self, values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def app_savings(self, app: str) -> float:
        return self._mean(
            [r.app_savings_frac for r in self.reports if r.app == app]
        )

    def tax_savings_of_ram(self) -> float:
        return self._mean([r.tax_savings_frac_of_ram for r in self.reports])

    def total_savings_of_ram(self) -> float:
        return self._mean(
            [r.total_savings_frac_of_ram for r in self.reports]
        )


#: Tax sidecar kind -> its container name on every recipe host.
_TAX_SLUGS: Dict[str, str] = {
    kind: kind.lower().replace(" ", "-") for kind in TAX_PROFILES
}


def build_app_host(
    config: HostConfig,
    app: str,
    size_scale: float,
    include_tax: bool,
    controller: Optional[Controller],
) -> Host:
    """The host recipe: one application container, sidecars, controller.

    ``config`` is final (the caller has chosen its seed and backend).
    The host gets the ``app`` container (:class:`WebWorkload` for Web,
    the catalog :class:`Workload` otherwise), the datacenter and
    microservice tax sidecars when ``include_tax`` (their profiles are
    sized per 64 GB host, so they are rescaled to this host's RAM) and
    ``controller`` when one is given.
    """
    profile = APP_CATALOG[app]
    host = Host(config)
    if profile.name == "Web":
        host.add_workload(WebWorkload, name="app", size_scale=size_scale)
    else:
        host.add_workload(
            Workload, profile=profile, name="app", size_scale=size_scale,
        )
    if include_tax:
        tax_scale = config.ram_bytes / (64.0 * _GB)
        for kind, slug in _TAX_SLUGS.items():
            host.add_workload(
                TaxWorkload, name=slug, kind=kind, size_scale=tax_scale,
            )
    if controller is not None:
        host.add_controller(controller)
    return host


def build_fleet_host(
    base_config: HostConfig, fleet_seed: int, plan: HostPlan, index: int
) -> Host:
    """Construct one planned fleet host with its derived seed.

    Module-level (not a :class:`Fleet` method) so worker processes can
    rebuild hosts from nothing but the picklable plan dataclasses.
    """
    config = replace(
        base_config,
        backend=plan.backend or APP_CATALOG[plan.app].preferred_backend,
        seed=derive_seed(fleet_seed, f"host:{plan.app}:{index}"),
    )
    return build_app_host(
        config, plan.app, plan.size_scale, plan.include_tax,
        Senpai(plan.senpai),
    )


def measure_fleet_host(
    host: Host, plan: HostPlan, index: int
) -> HostReport:
    """Measure savings on a host that has finished its run.

    The measurement half of the unit of work the resilience runtime
    (:mod:`repro.core.fleetres`) executes per attempt; shared by the
    serial and parallel paths, so a host's report cannot depend on
    which path executed it.
    """
    profile = APP_CATALOG[plan.app]
    app_stats = cgroup_memory_savings(host.mm, "app")
    tax_saved = 0.0
    if plan.include_tax:
        for slug in _TAX_SLUGS.values():
            tax_saved += cgroup_memory_savings(
                host.mm, slug
            )["saved_bytes"]
    return HostReport(
        app=plan.app,
        backend=plan.backend or profile.preferred_backend,
        host_index=index,
        ram_bytes=host.config.ram_bytes,
        app_baseline_bytes=app_stats["baseline_bytes"],
        app_saved_bytes=app_stats["saved_bytes"],
        tax_saved_bytes=tax_saved,
        metrics_digest=metrics_digest(host.metrics),
        pgsteal=sum(
            cg.vmstat.pgsteal for cg in host.mm.cgroups()
        ),
    )


class Fleet:
    """Runs a set of :class:`HostPlan` slices and aggregates savings."""

    def __init__(
        self,
        base_config: HostConfig = HostConfig(),
        seed: int = 7,
    ) -> None:
        self.base_config = base_config
        self.seed = seed

    def _tasks(
        self, plans: Sequence[HostPlan]
    ) -> List[Tuple[HostPlan, int]]:
        """Every (plan, host index) pair, in canonical rollout order."""
        return [
            (plan, index)
            for plan in plans
            for index in range(plan.count)
        ]

    def run(
        self,
        plans: Sequence[HostPlan],
        duration_s: float,
        workers: Optional[int] = None,
        resilience: Optional[FleetResilienceConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> FleetResult:
        """Execute every planned host for ``duration_s`` of virtual time.

        Both paths go through the resilience runtime
        (:mod:`repro.core.fleetres`): with ``workers`` > 1 the hosts
        fan out over real worker processes with per-host wall-clock
        deadlines; either way a host that crashes, hangs or raises is
        retried (restoring its latest spooled checkpoint when one
        exists) up to the retry budget, then quarantined as a
        :class:`FailedHost`. Hosts are fully independent — every host's
        RNG streams derive from
        ``derive_seed(fleet_seed, "host:<app>:<index>")``, never from
        shared state — and outcomes merge back in canonical rollout
        order, so a parallel run's reports, failures and metric digests
        are identical to the serial run's, bit for bit; the checkpoint
        codec's crash-equivalence guarantee extends that identity to
        recovered hosts.

        ``resilience`` tunes deadlines/retries/spooling; when omitted,
        retries are on but periodic spooling is off (retries rerun
        from scratch), keeping the fault-free fast path free of
        snapshot overhead. ``fault_plan`` supplies seed-derived
        ``worker_*`` events (see
        :meth:`repro.faults.plan.FaultPlan.worker_events`) that the
        runtime fires against worker processes on first attempts.
        """
        tasks = self._tasks(plans)
        if resilience is None:
            resilience = (
                FleetResilienceConfig()
                if fault_plan is not None
                else FleetResilienceConfig(checkpoint_every_s=math.inf)
            )
        spool_root = tempfile.mkdtemp(prefix="tmo-fleet-spool-")
        try:
            units = [
                HostUnit(
                    base_config=self.base_config,
                    fleet_seed=self.seed,
                    plan=plan,
                    index=index,
                    slot=slot,
                    duration_s=duration_s,
                    spool_path=os.path.join(
                        spool_root, f"host-{slot:04d}.snapshot"
                    ),
                    checkpoint_every_s=resilience.checkpoint_every_s,
                    faults=(
                        fault_plan.worker_events(slot)
                        if fault_plan is not None else ()
                    ),
                )
                for slot, (plan, index) in enumerate(tasks)
            ]
            outcomes = run_units(
                units, workers if workers is not None else 1, resilience
            )
        finally:
            shutil.rmtree(spool_root, ignore_errors=True)

        result = FleetResult(planned_hosts=len(tasks))
        for outcome in outcomes:
            if isinstance(outcome, FailedHost):
                result.failed_hosts.append(outcome)
            else:
                result.reports.append(outcome)
        return result
