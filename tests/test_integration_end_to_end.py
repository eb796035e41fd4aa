"""End-to-end integration: full hosts under Senpai for extended runs."""

import pytest

from repro.core.fleet import cgroup_memory_savings
from repro.core.senpai import Senpai, SenpaiConfig
from repro.kernel.page import PageKind, PageState
from repro.psi.types import Resource
from repro.workloads.apps import APP_CATALOG
from repro.workloads.base import Workload

from tests.helpers import small_host

MB = 1 << 20


def run_app(app="Feed", backend="zswap", duration=1800.0, seed=42):
    host = small_host(ram_gb=2.0, backend=backend, seed=seed)
    host.add_workload(
        Workload, profile=APP_CATALOG[app], name="app", size_scale=0.04
    )
    host.add_controller(Senpai(SenpaiConfig()))
    host.run(duration)
    return host


def test_senpai_converges_to_meaningful_savings():
    host = run_app()
    stats = cgroup_memory_savings(host.mm, "app")
    # Half an hour of mild pressure on a ~35%-cold app: several
    # percent of savings, nowhere near evicting the working set.
    assert 0.02 < stats["savings_frac"] < 0.5


def test_pressure_stays_mild():
    host = run_app()
    group = host.psi.group("app")
    sample = group.sample(Resource.MEMORY, host.clock.now)
    # Average memory pressure stays within an order of magnitude of
    # the 0.1% target; never runaway thrashing.
    assert sample.some_avg300 < 0.01


def test_accounting_invariants_hold_after_long_run():
    host = run_app()
    mm = host.mm
    cg = mm.cgroup("app")
    pages = host.workload("app").pages
    state = mm.table.state[pages]
    resident = int((state == PageState.RESIDENT).sum())
    zswapped = int((state == PageState.ZSWAPPED).sum())
    assert resident * mm.page_size_bytes == cg.resident_bytes
    assert zswapped * mm.page_size_bytes == cg.zswap_bytes
    # LRU lists hold exactly the resident pages.
    on_lru = sum(
        mm.table.list_len(cg.index, k) for k in (PageKind.ANON, PageKind.FILE)
    )
    assert on_lru == resident
    # Host capacity is respected.
    assert mm.used_bytes() <= mm.ram_bytes


def test_full_run_is_deterministic():
    a = run_app(seed=7)
    b = run_app(seed=7)
    sa = cgroup_memory_savings(a.mm, "app")
    sb = cgroup_memory_savings(b.mm, "app")
    assert sa == sb
    assert a.psi.group("app").total(Resource.MEMORY, "some") == (
        b.psi.group("app").total(Resource.MEMORY, "some")
    )


def test_ssd_backend_end_to_end():
    host = run_app(app="Ads B", backend="ssd")
    cg = host.mm.cgroup("app")
    stats = cgroup_memory_savings(host.mm, "app")
    assert cg.swap_bytes > 0
    assert cg.zswap_bytes == 0
    assert stats["savings_frac"] > 0.02
    # Endurance accounting accumulated.
    assert host.swap_backend.endurance_bytes_written > 0


def test_restart_under_senpai_recovers():
    host = run_app(duration=600.0)
    host.workload("app").restart(host.clock.now)
    host.run(600.0)
    cg = host.mm.cgroup("app")
    assert cg.resident_bytes > 0
    stats = cgroup_memory_savings(host.mm, "app")
    assert stats["savings_frac"] >= 0.0


def test_proactive_reclaim_cpu_is_negligible():
    """Section 3.4: Senpai-driven reclaim costs ~0.05% of CPU."""
    host = run_app()
    cpu_budget = host.config.ncpu * host.clock.now
    assert host.mm.proactive_cpu_seconds / cpu_budget < 0.005
