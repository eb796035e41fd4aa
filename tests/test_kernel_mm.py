"""Unit tests for the memory manager: allocation, faults, control files."""

import pytest

from repro.kernel.mm import OutOfMemoryError
from repro.kernel.page import PageKind, PageState

from tests.helpers import make_mm

PAGE = 256 * 1024


def test_create_cgroup_and_duplicate():
    mm = make_mm()
    mm.create_cgroup("app")
    with pytest.raises(ValueError):
        mm.create_cgroup("app")


def test_alloc_anon_charges_and_lists():
    mm = make_mm()
    mm.create_cgroup("app")
    pages, stall = mm.alloc_anon("app", 4, now=0.0)
    cg = mm.cgroup("app")
    assert len(pages) == 4
    assert cg.anon_bytes == 4 * PAGE
    assert mm.table.list_len(cg.index, PageKind.ANON) == 4
    assert stall == 0.0
    assert (mm.table.state[pages] == PageState.RESIDENT).all()


def test_register_file_absent_vs_resident():
    mm = make_mm()
    mm.create_cgroup("app")
    lazy, _ = mm.register_file("app", 2, now=0.0, resident=False)
    warm, _ = mm.register_file("app", 3, now=0.0, resident=True)
    cg = mm.cgroup("app")
    assert (mm.table.state[lazy] == PageState.ABSENT).all()
    assert (mm.table.state[warm] == PageState.RESIDENT).all()
    assert cg.file_bytes == 3 * PAGE


def test_touch_resident_is_free():
    mm = make_mm()
    mm.create_cgroup("app")
    pages, _ = mm.alloc_anon("app", 1, now=0.0)
    result = mm.touch(pages[0], now=1.0)
    assert result.event == "hit"
    assert result.stall_seconds == 0.0
    assert mm.table.last_access[pages[0]] == 1.0


def test_touch_absent_file_reads_from_fs():
    mm = make_mm()
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 1, now=0.0)
    result = mm.touch(pages[0], now=1.0)
    assert result.event == "file_read"
    assert result.iostall and not result.memstall
    assert result.stall_seconds > 0.0
    assert mm.table.state[pages[0]] == PageState.RESIDENT
    assert mm.cgroup("app").vmstat.pgpgin_file == 1


def test_zswap_swap_out_and_back():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("app", compressibility=4.0)
    pages, _ = mm.alloc_anon("app", 10, now=0.0)
    outcome = mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    cg = mm.cgroup("app")
    assert outcome.reclaimed_bytes > 0
    assert cg.zswap_bytes > 0
    # Pool physically holds ~1/4 of the logical bytes (4x ratio).
    assert mm.zswap_pool_bytes < cg.zswap_bytes
    swapped = pages[mm.table.state[pages] == PageState.ZSWAPPED]
    assert len(swapped)
    result = mm.touch(swapped[0], now=2.0)
    assert result.event == "zswapin"
    assert result.memstall and not result.iostall
    assert cg.vmstat.pswpin == 1


def test_ssd_swap_out_and_back():
    mm = make_mm(backend="ssd")
    mm.create_cgroup("app")
    pages, _ = mm.alloc_anon("app", 10, now=0.0)
    mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    swapped = pages[mm.table.state[pages] == PageState.SWAPPED]
    assert len(swapped)
    assert mm.cgroup("app").swap_bytes == len(swapped) * PAGE
    result = mm.touch(swapped[0], now=2.0)
    assert result.event == "swapin"
    assert result.memstall and result.iostall


def test_file_only_mode_never_swaps():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    mm.alloc_anon("app", 5, now=0.0)
    mm.register_file("app", 5, now=0.0, resident=True)
    outcome = mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    cg = mm.cgroup("app")
    assert cg.swap_bytes == 0 and cg.zswap_bytes == 0
    assert outcome.reclaimed_anon_bytes == 0
    assert outcome.reclaimed_file_bytes > 0


def test_refault_detection_and_psi_classification():
    mm = make_mm()
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 20, now=0.0, resident=True)
    mm.alloc_anon("app", 20, now=0.0)
    victim = pages[0]
    mm.memory_reclaim("app", PAGE, now=1.0)
    evicted = pages[mm.table.state[pages] == PageState.EVICTED]
    assert len(evicted)
    result = mm.touch(evicted[0], now=2.0)
    # Reuse distance 1 << resident size: must be a refault, which
    # stalls on memory AND io.
    assert result.event == "refault"
    assert result.memstall and result.iostall
    assert mm.cgroup("app").vmstat.workingset_refault == 1


def test_memory_max_lowering_reclaims():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 20, now=0.0)
    cg = mm.cgroup("app")
    assert cg.current_bytes() == 20 * PAGE
    mm.set_memory_max("app", 10 * PAGE, now=1.0)
    assert cg.current_bytes() <= 10 * PAGE


def test_memory_reclaim_is_stateless():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 20, now=0.0)
    mm.memory_reclaim("app", 5 * PAGE, now=1.0)
    assert mm.cgroup("app").memory_max is None  # no limit installed
    # Expansion afterwards is unimpeded.
    _, stall = mm.alloc_anon("app", 5, now=2.0)
    assert stall == 0.0


def test_alloc_at_limit_enters_direct_reclaim():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 10, now=0.0)
    mm.set_memory_max("app", 10 * PAGE, now=0.5)
    _, stall = mm.alloc_anon("app", 1, now=1.0)
    cg = mm.cgroup("app")
    assert cg.vmstat.direct_reclaim >= 1
    assert stall > 0.0
    assert cg.current_bytes() <= 10 * PAGE


def test_oom_when_no_reclaimable_memory():
    mm = make_mm(backend=None, ram_mb=1)  # 4 pages of 256 KiB
    mm.create_cgroup("app")
    with pytest.raises(OutOfMemoryError):
        # Anon is unreclaimable in file-only mode: the host fills up.
        mm.alloc_anon("app", 10, now=0.0)


def test_global_reclaim_on_host_pressure():
    mm = make_mm(ram_mb=4, backend="zswap")  # 16 pages
    mm.create_cgroup("a")
    mm.create_cgroup("b")
    mm.alloc_anon("a", 8, now=0.0)
    mm.alloc_anon("b", 8, now=0.0)  # host nearly full
    # Next alloc forces global reclaim rather than OOM.
    pages, stall = mm.alloc_anon("a", 2, now=1.0)
    assert len(pages) == 2
    assert mm.free_bytes() >= 0


def test_release_cgroup_pages():
    mm = make_mm()
    mm.create_cgroup("app")
    pages, _ = mm.alloc_anon("app", 5, now=0.0)
    mm.memory_reclaim("app", 2 * PAGE, now=1.0)
    count = mm.release_cgroup_pages("app")
    cg = mm.cgroup("app")
    assert count == 5
    assert cg.resident_bytes == 0
    assert cg.zswap_bytes == 0
    assert mm.zswap_pool_bytes == 0


def test_used_bytes_includes_zswap_pool():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("app", compressibility=2.0)
    mm.alloc_anon("app", 10, now=0.0)
    before = mm.used_bytes()
    mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    after = mm.used_bytes()
    # Offloading frees page bytes but the pool grows by ~half of them.
    assert after < before
    assert mm.zswap_pool_bytes > 0


def test_swap_in_frees_backend_space():
    mm = make_mm(backend="ssd")
    mm.create_cgroup("app")
    pages, _ = mm.alloc_anon("app", 10, now=0.0)
    mm.memory_reclaim("app", 4 * PAGE, now=1.0)
    stored_before = mm.swap_backend.stored_bytes
    swapped = pages[mm.table.state[pages] == PageState.SWAPPED]
    mm.touch(swapped[0], now=2.0)
    assert mm.swap_backend.stored_bytes == stored_before - PAGE


def test_refault_distance_is_measured_in_resident_pages():
    # Section 3.4's shadow-entry rule: a fault on an evicted file page
    # is a refault when its reuse distance (file evictions since its
    # own) is within the cgroup's resident memory *in pages*. With
    # 256 KiB pages a bytes-for-pages slip would call every distance
    # a refault, so the far page below must read cold.
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    pages, _ = mm.register_file("app", 40, now=0.0, resident=True)
    mm.memory_reclaim("app", 30 * PAGE, now=1.0)
    evicted = pages[mm.table.state[pages] == PageState.EVICTED]
    far = max(evicted, key=cg.shadow.reuse_distance)
    assert cg.shadow.reuse_distance(far) > cg.resident_pages
    assert cg.shadow.reuse_distance(far) <= cg.resident_bytes
    result = mm.touch(far, now=2.0)
    assert result.event == "file_read"
    assert cg.vmstat.workingset_refault == 0
    # One more eviction, faulted straight back: distance 1, within the
    # resident set, so this one is a refault.
    mm.memory_reclaim("app", PAGE, now=3.0)
    near = pages[mm.table.state[pages] == PageState.EVICTED]
    near = min(near, key=cg.shadow.reuse_distance)
    assert cg.shadow.reuse_distance(near) <= cg.resident_pages
    assert mm.touch(near, now=4.0).event == "refault"
    assert cg.vmstat.workingset_refault == 1
