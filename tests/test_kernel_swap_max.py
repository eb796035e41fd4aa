"""Unit tests for per-cgroup swap limits (memory.swap.max)."""

import pytest

from repro.kernel.page import PageState

from tests.helpers import make_mm

PAGE = 256 * 1024


def test_swap_max_caps_offload():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("app")
    mm.alloc_anon("app", 20, now=0.0)
    mm.cgroup("app").swap_max = 5 * PAGE
    # Force the anon-leaning regime so reclaim tries to swap a lot.
    mm.cgroup("app").refault_rate.rate = 100.0
    mm.register_file("app", 10, now=0.0, resident=True)
    mm.memory_reclaim("app", 20 * PAGE, now=1.0)
    cg = mm.cgroup("app")
    assert cg.zswap_bytes <= 5 * PAGE


def test_swap_max_zero_disables_swap():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("app")
    mm.alloc_anon("app", 20, now=0.0)
    mm.register_file("app", 10, now=0.0, resident=True)
    mm.cgroup("app").swap_max = 0
    outcome = mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    assert mm.cgroup("app").zswap_bytes == 0
    assert outcome.reclaimed_anon_bytes == 0
    assert outcome.reclaimed_file_bytes > 0


def test_swap_max_is_per_cgroup():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("capped")
    mm.create_cgroup("free")
    mm.alloc_anon("capped", 10, now=0.0)
    mm.alloc_anon("free", 10, now=0.0)
    mm.cgroup("capped").swap_max = 0
    for name in ("capped", "free"):
        mm.cgroup(name).refault_rate.rate = 100.0
        mm.memory_reclaim(name, 5 * PAGE, now=1.0)
    assert mm.cgroup("capped").zswap_bytes == 0
    assert mm.cgroup("free").zswap_bytes > 0


def test_swap_in_frees_budget_for_re_offload():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("app")
    pages, _ = mm.alloc_anon("app", 10, now=0.0)
    cg = mm.cgroup("app")
    cg.swap_max = 2 * PAGE
    cg.refault_rate.rate = 100.0
    mm.memory_reclaim("app", 4 * PAGE, now=1.0)
    assert cg.zswap_bytes == 2 * PAGE
    swapped = pages[mm.table.state[pages] == PageState.ZSWAPPED]
    mm.touch(swapped[0], now=2.0)  # frees one slot of budget
    mm.memory_reclaim("app", 2 * PAGE, now=3.0)
    assert cg.zswap_bytes == 2 * PAGE  # refilled up to the cap


def test_control_file_roundtrip():
    from repro.kernel.controlfs import ControlFs
    from repro.psi.tracker import PsiSystem

    mm = make_mm()
    psi = PsiSystem(ncpu=2)
    mm.create_cgroup("app")
    psi.add_group("app")
    fs = ControlFs(mm, psi)
    assert fs.read("app/memory.swap.max", 0.0) == "max"
    fs.write("app/memory.swap.max", "64M", 0.0)
    assert mm.cgroup("app").swap_max == 64 << 20
    fs.write("app/memory.swap.max", "max", 0.0)
    assert mm.cgroup("app").swap_max is None
