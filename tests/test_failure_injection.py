"""Failure injection: the system must degrade gracefully, not corrupt.

Scenarios: swap device filling mid-run, zswap pool cap, container
restart storms, killing containers mid-offload, mixed-limit topologies
under global memory pressure, and device faults injected through the
public :class:`~repro.backends.device.DeviceFaultState` seam (see
docs/RESILIENCE.md for the full taxonomy; the seeded end-to-end storms
live in tests/test_faults_*.py).
"""

import pytest

from repro.backends.base import BackendFaultError
from repro.backends.ssd import SwapFullError
from repro.core.senpai import Senpai, SenpaiConfig
from repro.kernel.page import PageState
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

from tests.helpers import make_mm, small_host

MB = 1 << 20
_GB = 1 << 30
PAGE = 256 * 1024


def profile(npages=400, **overrides) -> AppProfile:
    defaults = dict(
        name="app",
        size_gb=npages * MB / _GB,
        anon_frac=0.6,
        bands=HeatBands(0.3, 0.1, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )
    defaults.update(overrides)
    return AppProfile(**defaults)


def test_swap_fills_mid_reclaim_falls_back_to_file():
    mm = make_mm(backend="ssd", ram_mb=64)
    # Shrink the swap device to 4 pages.
    mm.swap_backend.capacity_bytes = 4 * PAGE
    mm.create_cgroup("app")
    mm.alloc_anon("app", 100, now=0.0)
    mm.register_file("app", 100, now=0.0, resident=True)
    # Push the balance into the anon-leaning regime (heavy refaults),
    # so reclaim *wants* to swap and hits the device cap mid-way.
    cg = mm.cgroup("app")
    cg.refault_rate.rate = 100.0
    outcome = mm.memory_reclaim("app", 40 * PAGE, now=1.0)
    # Swap holds exactly its capacity; the rest came from file.
    assert cg.swap_bytes == 4 * PAGE
    assert outcome.reclaimed_file_bytes >= 30 * PAGE
    assert outcome.reclaimed_bytes >= 38 * PAGE


def test_store_on_full_swap_raises_cleanly():
    mm = make_mm(backend="ssd")
    mm.swap_backend.capacity_bytes = PAGE
    mm.swap_backend._stored = PAGE
    with pytest.raises(SwapFullError):
        mm.swap_backend.store(PAGE, 2.0, now=0.0)


def test_zswap_pool_cap_respected_under_pressure():
    mm = make_mm(backend="zswap", ram_mb=64)
    mm.swap_backend.max_pool_bytes = 2 * PAGE
    mm.create_cgroup("app", compressibility=1.0)  # incompressible
    mm.alloc_anon("app", 100, now=0.0)
    mm.memory_reclaim("app", 50 * PAGE, now=1.0)
    assert mm.swap_backend.pool_bytes <= 2 * PAGE


def test_restart_storm_under_senpai():
    host = small_host(ram_gb=1.0, backend="zswap")
    host.add_workload(Workload, profile=profile(), name="app")
    host.add_controller(
        Senpai(SenpaiConfig(reclaim_ratio=0.005, max_step_frac=0.03))
    )
    for _ in range(5):
        host.run(120.0)
        host.restart_workload("app")
    host.run(120.0)
    cg = host.mm.cgroup("app")
    # Books still balance after repeated teardown/rebuild.
    pages = host.workload("app").pages
    resident = int((host.mm.table.state[pages] == PageState.RESIDENT).sum())
    assert cg.resident_bytes == resident * host.mm.page_size_bytes
    assert host.mm.used_bytes() <= host.mm.ram_bytes


def test_kill_mid_offload_releases_backend_space():
    host = small_host(ram_gb=1.0, backend="ssd")
    host.add_workload(Workload, profile=profile(), name="app")
    host.mm.memory_reclaim("app", 100 * MB, now=0.0)
    assert host.swap_backend.stored_bytes > 0
    host.kill_workload("app")
    assert host.swap_backend.stored_bytes == 0


def test_two_limited_cgroups_under_global_pressure():
    mm = make_mm(ram_mb=64, backend="zswap")  # 256 pages
    mm.create_cgroup("a")
    mm.create_cgroup("b")
    mm.set_memory_max("a", 100 * PAGE, now=0.0)
    mm.set_memory_max("b", 100 * PAGE, now=0.0)
    mm.alloc_anon("a", 100, now=1.0)
    mm.alloc_anon("b", 100, now=2.0)
    # Both at their limits and the host nearly full: further charges
    # force both limit-reclaim and global reclaim without corruption.
    pages, stall = mm.alloc_anon("a", 10, now=3.0)
    assert len(pages) == 10
    assert stall > 0.0
    assert mm.cgroup("a").current_bytes() <= 100 * PAGE
    assert mm.used_bytes() <= mm.ram_bytes


def test_release_of_evicted_file_page_forgets_shadow():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 10, now=0.0, resident=True)
    mm.memory_reclaim("app", 3 * PAGE, now=1.0)
    evicted = pages[mm.table.state[pages] == PageState.EVICTED]
    assert len(evicted)
    before = len(mm.cgroup("app").shadow)
    mm.release_page(evicted[0])
    assert len(mm.cgroup("app").shadow) == before - 1


def test_senpai_survives_workload_kill():
    """Senpai polling a container that just got killed must not crash."""
    host = small_host(ram_gb=1.0, backend="zswap")
    host.add_workload(Workload, profile=profile(200), name="a")
    host.add_workload(Workload, profile=profile(200), name="b")
    host.add_controller(Senpai(SenpaiConfig()))
    host.run(30.0)
    host.kill_workload("a")
    host.run(30.0)  # would raise if Senpai still targeted "a"
    assert host.has_workload("b")


# ----------------------------------------------------------------------
# device faults through the public seam (DeviceFaultState)


def test_swapin_error_is_refault_with_retry():
    """A failed swap-in must never lose the page: the fault returns a
    stalled retryable result and the page stays loadable."""
    mm = make_mm(backend="ssd", ram_mb=64)
    mm.create_cgroup("app")
    pages, _ = mm.alloc_anon("app", 10, now=0.0)
    mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    state = mm.table.state
    victim = next(p for p in pages if state[p] != PageState.RESIDENT)

    mm.swap_backend.device.faults.io_error_rate = 1.0
    result = mm.touch(victim, now=2.0)
    assert result.event in ("swapin_error", "fileread_error")
    assert result.stall_seconds > 0.0
    assert state[victim] != PageState.RESIDENT  # still offloaded
    assert mm.swap_fault_count > 0

    mm.swap_backend.device.faults.clear()
    result = mm.touch(victim, now=3.0)  # the retry succeeds
    assert state[victim] == PageState.RESIDENT
    assert mm.cgroup("app").resident_bytes <= mm.ram_bytes


def test_swapout_error_keeps_page_resident_and_books_balanced():
    mm = make_mm(backend="ssd", ram_mb=64)
    mm.create_cgroup("app")
    mm.alloc_anon("app", 50, now=0.0)
    cg = mm.cgroup("app")
    resident_before = cg.resident_bytes

    mm.swap_backend.device.faults.io_error_rate = 1.0
    outcome = mm.memory_reclaim("app", 20 * PAGE, now=1.0)
    # Nothing was swapped; no page vanished; accounting still balances.
    assert cg.swap_bytes == 0
    assert cg.resident_bytes == resident_before - outcome.reclaimed_bytes
    assert mm.swap_fault_count > 0
    assert mm.swap_backend.stored_bytes == 0


def test_unavailable_device_raises_retryable_fault():
    mm = make_mm(backend="ssd")
    mm.swap_backend.device.faults.available = False
    with pytest.raises(BackendFaultError):
        mm.swap_backend.store(PAGE, 2.0, now=0.0)
    assert mm.swap_backend.stored_bytes == 0  # no phantom store


def test_failed_file_writeback_keeps_dirty_page():
    """A dirty file page whose writeback fails must stay resident (it
    holds the only copy of the data)."""
    mm = make_mm(backend=None, ram_mb=64)
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 10, now=0.0, resident=True)
    mm.mark_dirty(pages)
    mm.fs.device.faults.io_error_rate = 1.0
    mm.memory_reclaim("app", 5 * PAGE, now=1.0)
    assert (mm.table.state[pages] == PageState.RESIDENT).all()
    assert mm.fs_fault_count > 0
    assert len(mm.cgroup("app").shadow) == 0  # no phantom evictions
