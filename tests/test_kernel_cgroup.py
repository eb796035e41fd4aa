"""Unit tests for cgroup accounting and hierarchy."""

import pytest

from repro.kernel.cgroup import Cgroup
from repro.kernel.page import PageKind

PAGE = 4096


def test_charge_uncharge_roundtrip():
    cg = Cgroup("g", page_size_bytes=PAGE)
    cg.charge(PageKind.ANON, PAGE)
    cg.charge(PageKind.FILE, 2 * PAGE)
    assert cg.anon_bytes == PAGE
    assert cg.file_bytes == 2 * PAGE
    assert cg.resident_bytes == 3 * PAGE
    assert cg.resident_pages == 3
    cg.uncharge(PageKind.FILE, PAGE)
    assert cg.file_bytes == PAGE


def test_negative_accounting_detected():
    cg = Cgroup("g", page_size_bytes=PAGE)
    with pytest.raises(RuntimeError):
        cg.uncharge(PageKind.ANON, PAGE)


def test_rejects_bad_page_size():
    with pytest.raises(ValueError):
        Cgroup("g", page_size_bytes=0)


def test_hierarchical_current_bytes():
    root = Cgroup("root", page_size_bytes=PAGE)
    a = Cgroup("a", page_size_bytes=PAGE, parent=root)
    b = Cgroup("b", page_size_bytes=PAGE, parent=root)
    leaf = Cgroup("leaf", page_size_bytes=PAGE, parent=a)
    a.charge(PageKind.ANON, PAGE)
    b.charge(PageKind.FILE, PAGE)
    leaf.charge(PageKind.ANON, 2 * PAGE)
    assert root.current_bytes() == 4 * PAGE
    assert a.current_bytes() == 3 * PAGE
    assert b.current_bytes() == PAGE


def test_duplicate_child_name_rejected():
    root = Cgroup("root", page_size_bytes=PAGE)
    Cgroup("a", page_size_bytes=PAGE, parent=root)
    with pytest.raises(ValueError):
        Cgroup("a", page_size_bytes=PAGE, parent=root)


def test_walk_and_leaves():
    root = Cgroup("root", page_size_bytes=PAGE)
    a = Cgroup("a", page_size_bytes=PAGE, parent=root)
    leaf1 = Cgroup("leaf1", page_size_bytes=PAGE, parent=a)
    leaf2 = Cgroup("leaf2", page_size_bytes=PAGE, parent=root)
    names = [cg.name for cg in root.walk()]
    assert set(names) == {"root", "a", "leaf1", "leaf2"}
    assert {cg.name for cg in root.leaves()} == {"leaf1", "leaf2"}


def test_ancestors_chain():
    root = Cgroup("root", page_size_bytes=PAGE)
    a = Cgroup("a", page_size_bytes=PAGE, parent=root)
    leaf = Cgroup("leaf", page_size_bytes=PAGE, parent=a)
    assert [cg.name for cg in leaf.ancestors()] == ["a", "root"]


def test_offloaded_bytes():
    cg = Cgroup("g", page_size_bytes=PAGE)
    cg.swap_bytes = 3 * PAGE
    cg.zswap_bytes = PAGE
    assert cg.offloaded_bytes() == 4 * PAGE


def test_update_rates_smooths_vmstat():
    cg = Cgroup("g", page_size_bytes=PAGE)
    cg.vmstat.workingset_refault = 30
    cg.update_rates(dt=30.0)  # full window: rate jumps to 1/s
    assert cg.refault_rate.rate == pytest.approx(1.0)
    cg.update_rates(dt=30.0)  # no new events: rate decays to 0
    assert cg.refault_rate.rate == pytest.approx(0.0)
