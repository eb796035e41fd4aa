"""Unit tests for reclaim policies and the reclaim loop."""

import pytest

from repro.kernel.page import PageKind, PageState
from repro.kernel.reclaim import LegacyReclaimPolicy, TmoReclaimPolicy

from tests.helpers import make_mm

PAGE = 256 * 1024


# ----------------------------------------------------------------------
# policy balance decisions


def test_tmo_policy_file_only_without_refaults():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    policy = TmoReclaimPolicy()
    assert policy.file_scan_fraction(cg, swap_available=True) == 1.0


def test_tmo_policy_balances_once_refaults_appear():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    cg.refault_rate.rate = 10.0
    cg.swapin_rate.rate = 0.0
    policy = TmoReclaimPolicy()
    frac = policy.file_scan_fraction(cg, swap_available=True)
    # Refaults are expensive, swap-ins free: shift scanning to anon.
    assert frac < 0.5


def test_tmo_policy_shifts_back_when_swapins_dominate():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    cg.refault_rate.rate = 1.0
    cg.swapin_rate.rate = 50.0
    policy = TmoReclaimPolicy()
    frac = policy.file_scan_fraction(cg, swap_available=True)
    assert frac > 0.5


def test_tmo_policy_file_only_without_swap():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    cg.refault_rate.rate = 100.0
    policy = TmoReclaimPolicy()
    assert policy.file_scan_fraction(cg, swap_available=False) == 1.0


def test_legacy_policy_skews_to_file():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    cg.file_bytes = 50 * PAGE
    cg.anon_bytes = 50 * PAGE
    # Even with heavy refaults, legacy stays file-only while file
    # cache is plentiful — the pathology TMO fixed.
    cg.refault_rate.rate = 100.0
    policy = LegacyReclaimPolicy()
    assert policy.file_scan_fraction(cg, swap_available=True) == 1.0


def test_legacy_policy_swaps_only_in_emergency():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    cg.file_bytes = 1 * PAGE
    cg.anon_bytes = 99 * PAGE
    policy = LegacyReclaimPolicy()
    frac = policy.file_scan_fraction(cg, swap_available=True)
    assert frac < 1.0


# ----------------------------------------------------------------------
# reclaim loop behaviour


def test_reclaim_prefers_cold_pages():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 10, now=0.0, resident=True)
    # Touch all but the first two pages twice (promote them).
    for page in pages[2:]:
        mm.touch(page, now=1.0)
        mm.touch(page, now=2.0)
    outcome = mm.memory_reclaim("app", 2 * PAGE, now=3.0)
    assert outcome.reclaimed_bytes == 2 * PAGE
    state = mm.table.state
    assert state[pages[0]] == PageState.EVICTED
    assert state[pages[1]] == PageState.EVICTED
    assert (state[pages[2:]] == PageState.RESIDENT).all()


def test_referenced_pages_get_second_chance():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 4, now=0.0, resident=True)
    for page in pages:
        mm.touch(page, now=1.0)  # sets the reference bit
    outcome = mm.memory_reclaim("app", PAGE, now=2.0)
    # Scanning had to clear bits / rotate before finding a victim.
    assert outcome.scanned_pages > 1


def test_reclaim_zero_bytes_is_noop():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 4, now=0.0)
    outcome = mm.memory_reclaim("app", 0, now=1.0)
    assert outcome.reclaimed_bytes == 0
    assert outcome.scanned_pages == 0


def test_reclaim_empty_cgroup_reports_exhausted():
    mm = make_mm()
    mm.create_cgroup("app")
    outcome = mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    assert outcome.exhausted
    assert outcome.reclaimed_bytes == 0


def test_reclaim_spreads_over_children():
    mm = make_mm()
    mm.create_cgroup("slice")
    mm.create_cgroup("a", parent="slice")
    mm.create_cgroup("b", parent="slice")
    mm.alloc_anon("a", 10, now=0.0)
    mm.alloc_anon("b", 10, now=0.0)
    outcome = mm.memory_reclaim("slice", 4 * PAGE, now=1.0)
    assert outcome.reclaimed_bytes >= 4 * PAGE
    assert mm.cgroup("a").current_bytes() < 10 * PAGE
    assert mm.cgroup("b").current_bytes() < 10 * PAGE


def test_file_only_flag_protects_anon():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 10, now=0.0)
    mm.register_file("app", 10, now=0.0, resident=True)
    outcome = mm.memory_reclaim("app", 5 * PAGE, now=1.0, file_only=True)
    assert outcome.reclaimed_anon_bytes == 0
    assert outcome.reclaimed_file_bytes > 0


def test_dirty_file_pages_are_written_back():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 4, now=0.0, resident=True)
    mm.mark_dirty(pages)
    mm.memory_reclaim("app", 4 * PAGE, now=1.0)
    cg = mm.cgroup("app")
    assert cg.vmstat.pgwriteback == 4
    assert not mm.table.dirty[pages].any()


def test_eviction_installs_shadow_entries():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    mm.register_file("app", 8, now=0.0, resident=True)
    mm.memory_reclaim("app", 3 * PAGE, now=1.0)
    cg = mm.cgroup("app")
    assert len(cg.shadow) == 3
    assert cg.vmstat.workingset_evict == 3


def test_scan_counters_accumulate():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 10, now=0.0)
    outcome = mm.memory_reclaim("app", 2 * PAGE, now=1.0)
    cg = mm.cgroup("app")
    assert cg.vmstat.pgscan >= outcome.scanned_pages > 0
    assert cg.vmstat.pgsteal == 2


def test_reclaim_cpu_cost_scales_with_scanning():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 50, now=0.0)
    outcome = mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    assert outcome.cpu_seconds > 0.0
    assert mm.proactive_cpu_seconds >= outcome.cpu_seconds
