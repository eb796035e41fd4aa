"""Unit tests for the LRU lists kept in the page table's columns."""

import numpy as np
import pytest

from repro.checkpoint.state import decode_state, encode_state
from repro.kernel import page as page_mod
from repro.kernel.page import PageKind, PageState, PageTable, lru_key

ANON, FILE = int(PageKind.ANON), int(PageKind.FILE)


def table_with(n: int, kind: int = ANON):
    """A one-cgroup table with ``n`` resident pages on no list yet."""
    table = PageTable()
    table.fit_cgroups(1)
    ids = table.add(n, 0, kind, int(PageState.RESIDENT), False, 3.0, 0.0)
    return table, ids.tolist()


def order(table, kind=ANON, active=False):
    return table.members(0, kind, active).tolist()


def test_empty_list():
    table, _ = table_with(0)
    assert order(table) == []
    assert table.list_len(0, ANON) == 0
    assert table.pop_tail(lru_key(0, ANON, False)) is None


def test_head_insert_order():
    table, (a, b) = table_with(2)
    table.link(a, False)
    table.link(b, False)
    assert order(table)[0] == a  # a is coldest
    assert table.pop_tail(lru_key(0, ANON, False)) == a


def test_readding_rotates_to_head():
    table, (a, b) = table_with(2)
    table.link(a, False)
    table.link(b, False)
    table.unlink(a)
    table.link(a, False)  # a becomes hottest again
    assert order(table) == [b, a]


def test_remove_and_discard():
    table, (a,) = table_with(1)
    table.link(a, False)
    table.unlink(a)
    assert table.list_len(0, ANON) == 0
    assert table.stamp[a] == 0  # on no list


def test_iteration_cold_to_hot():
    table, pages = table_with(3)
    for p in pages:
        table.link(p, False)
    assert order(table) == [0, 1, 2]


def test_new_pages_enter_inactive():
    table, pages = table_with(2, FILE)
    table.link_new(np.array(pages), 0, FILE)
    assert not table.active[pages].any()
    assert order(table, FILE, False) == pages
    assert order(table, FILE, True) == []


def test_second_touch_promotes():
    table, (p,) = table_with(1, FILE)
    table.link(p, False)
    table.hit(np.array([p]), 1.0)  # first touch: reference bit only
    assert table.referenced[p] and not table.active[p]
    table.hit(np.array([p]), 2.0)  # second touch: promotion
    assert table.active[p] and not table.referenced[p]
    assert order(table, FILE, True) == [p]
    assert order(table, FILE, False) == []
    assert table.lru_len[lru_key(0, FILE, True)] == 1
    assert table.lru_len[lru_key(0, FILE, False)] == 0
    assert table.last_access[p] == 2.0


def test_touch_active_page_rotates():
    table, (a, b) = table_with(2)
    table.link(a, True)
    table.link(b, True)
    table.hit(np.array([a]), 1.0)
    assert order(table, ANON, True) == [b, a]
    assert table.referenced[a]


def test_hit_run_settles_in_touch_order():
    """One run mixes all three cases; moved pages restamp in touch order."""
    table, (a, b, c, d) = table_with(4)
    table.link(a, True)
    table.link(b, False)
    table.link(c, False)
    table.link(d, True)
    table.referenced[b] = True
    table.hit(np.array([d, c, b, a]), 1.0)
    assert order(table, ANON, True) == [d, b, a]
    assert order(table, ANON, False) == [c]
    assert table.referenced[[a, c, d]].all() and not table.referenced[b]


def test_insert_active_for_refaults():
    table, (p,) = table_with(1, FILE)
    table.link(p, True)
    assert table.active[p]
    assert order(table, FILE, True) == [p]


def test_remove_from_either_list():
    table, (a, b) = table_with(2)
    table.link(a, False)
    table.link(b, True)
    table.unlink(a)
    table.unlink(b)
    assert table.list_len(0, ANON) == 0
    assert table.lru_len == [0, 0, 0, 0]


def test_needs_deactivation_ratio():
    table, pages = table_with(8)
    for p in pages[:5]:
        table.link(p, True)
    inactive = lru_key(0, ANON, False)
    assert table.needs_deactivation(inactive)  # 5 active vs 0 inactive
    for p in pages[5:]:
        table.link(p, False)
    assert not table.needs_deactivation(inactive)  # 5 <= 2*3


def test_deactivate_one_moves_cold_active():
    table, (a, b) = table_with(2)
    table.link(a, True)
    table.link(b, True)
    demoted = table.deactivate_one(lru_key(0, ANON, False))
    assert demoted == a
    assert not table.active[a]
    assert order(table, ANON, False) == [a]


def test_deactivate_gives_referenced_page_second_chance():
    table, (a,) = table_with(1)
    table.link(a, True)
    table.referenced[a] = True
    # Rotated, bit cleared.
    assert table.deactivate_one(lru_key(0, ANON, False)) is None
    assert not table.referenced[a]
    assert table.active[a]


def test_scan_tail_evicts_unreferenced():
    table, (a,) = table_with(1, FILE)
    table.link(a, False)
    victim, evictable = table.scan_tail(lru_key(0, FILE, False))
    assert victim == a
    assert evictable
    assert table.list_len(0, FILE) == 0


def test_scan_tail_reactivates_referenced():
    table, (a,) = table_with(1, FILE)
    table.link(a, False)
    table.referenced[a] = True
    victim, evictable = table.scan_tail(lru_key(0, FILE, False))
    assert victim == a
    assert not evictable
    assert table.active[a]  # second chance promoted it
    assert order(table, FILE, True) == [a]


def test_scan_tail_empty():
    table, _ = table_with(0, FILE)
    victim, evictable = table.scan_tail(lru_key(0, FILE, False))
    assert victim is None
    assert not evictable


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_cold_walk_stays_exact_across_chunks_and_touches(monkeypatch, chunk):
    """Popping across refills, touches and re-heads follows the stamps."""
    monkeypatch.setattr(page_mod, "_WALK_CHUNK", chunk)
    table, pages = table_with(10)
    for p in pages:
        table.link(p, True)
    active = lru_key(0, ANON, True)
    assert table.pop_tail(active) == 0
    table.hit(np.array([1, 2]), 1.0)  # 1 and 2 rotate to the head
    table.link(0, True)  # re-headed behind them
    popped = [table.pop_tail(active) for _ in range(10)]
    assert popped == [3, 4, 5, 6, 7, 8, 9, 1, 2, 0]
    assert table.pop_tail(active) is None


def test_snapshot_round_trip_keeps_order_and_lengths():
    table, pages = table_with(6)
    for p in pages:
        table.link(p, p % 2 == 0)
    table.hit(np.array([4, 1]), 5.0)
    table.unlink(3)
    table.pop_tail(lru_key(0, ANON, True))  # leaves a walk behind
    restored = decode_state(encode_state(table))
    assert restored.lru_len == table.lru_len
    for active in (False, True):
        assert order(restored, ANON, active) == order(table, ANON, active)
    for name, _ in page_mod.COLUMNS:
        assert (getattr(restored, name)[:6] == getattr(table, name)[:6]).all()
    key = lru_key(0, ANON, True)
    assert restored.pop_tail(key) == table.pop_tail(key)


def test_short_runs_match_the_array_form(monkeypatch):
    """Page-by-page and array settling agree on every column and list."""
    monkeypatch.setattr(page_mod, "_SHORT_RUN", 0)
    rng = np.random.default_rng(7)
    tables = [table_with(40)[0] for _ in range(2)]
    for table in tables:
        for p in range(40):
            table.link(p, p % 3 == 0)
    for step in range(200):
        ids = rng.permutation(40)[: int(rng.integers(1, 12))]
        tables[0]._hit_each(ids, float(step))
        tables[1].hit(ids, float(step))
    a, b = tables
    assert a.lru_len == b.lru_len and a.clock == b.clock
    for name, _ in page_mod.COLUMNS:
        assert (getattr(a, name) == getattr(b, name)).all(), name
