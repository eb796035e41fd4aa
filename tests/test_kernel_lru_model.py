"""The columnar LRU against an ``OrderedDict`` reference model.

The reference is the referenced-bit protocol written the plain way: one
``OrderedDict`` per list (its end is the head), each touch applied on
its own. It stands in for the page table's list operations inside a
second :class:`MemoryManager`, whose ``touch_batch`` touches one page
at a time. Both managers get the same seeded backends and the same
random allocations, touch batches (with faults), ``memory.reclaim``
writes, kswapd passes and releases; after every step their lists, page
columns and fault events must be identical.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.kernel import page as page_mod
from repro.kernel.mm import MemoryManager, OutOfMemoryError
from repro.kernel.page import PageKind, PageTable

from tests.helpers import make_mm

#: Columns the model keeps the same way (the LRU stamp is the columnar
#: table's own business).
COMPARED = ("state", "kind", "cgroup", "active", "referenced", "dirty",
            "compressibility", "last_access", "shadow_stamp")


class ModelTable(PageTable):
    """A page table whose lists are ``OrderedDict``s, one op at a time."""

    def __init__(self):
        super().__init__()
        self.lists = {}
        self.where = {}

    def fit_cgroups(self, ncgroups):
        super().fit_cgroups(ncgroups)
        for key in range(4 * ncgroups):
            self.lists.setdefault(key, OrderedDict())

    def _push(self, pid, key):
        od = self.lists[key]
        od[pid] = None
        od.move_to_end(pid)
        self.lru_len[key] = len(od)
        self.where[pid] = key
        self.active[pid] = bool(key & 1)
        self.referenced[pid] = False

    def link_new(self, ids, cgroup, kind):
        for pid in ids.tolist():
            self._push(pid, page_mod.lru_key(cgroup, kind, False))

    def unlink(self, pid):
        key = self.where.pop(pid)
        del self.lists[key][pid]
        self.lru_len[key] = len(self.lists[key])
        self.active[pid] = False

    def members(self, cgroup, kind, active):
        key = page_mod.lru_key(cgroup, kind, active)
        return np.array(list(self.lists[key]), dtype=np.int64)

    def hit(self, ids, now):
        for pid in ids.tolist():
            self.last_access[pid] = now
            key = self.where[pid]
            if key & 1:
                self.referenced[pid] = True
                self.lists[key].move_to_end(pid)
            elif self.referenced[pid]:
                self.unlink(pid)
                self._push(pid, key + 1)
            else:
                self.referenced[pid] = True

    def pop_tail(self, key):
        od = self.lists[key]
        if not od:
            return None
        pid, _ = od.popitem(last=False)
        self.lru_len[key] = len(od)
        del self.where[pid]
        self.active[pid] = False
        return pid


class ReferenceMM(MemoryManager):
    """A memory manager that touches one page at a time."""

    def touch_batch(self, pages, indices, now):
        events = {}
        stall_mem = stall_io = stall_both = 0.0
        work_done = hits = 0
        oom = False
        for idx in indices:
            try:
                result = self.touch(pages[idx], now)
            except OutOfMemoryError:
                oom = True
                break
            if result.event == "hit":
                hits += 1
                continue
            events[result.event] = events.get(result.event, 0) + 1
            if result.stall_seconds > 0:
                if result.memstall and result.iostall:
                    stall_both += result.stall_seconds
                elif result.memstall:
                    stall_mem += result.stall_seconds
                elif result.iostall:
                    stall_io += result.stall_seconds
            work_done += 1
        if hits:
            events["hit"] = events.get("hit", 0) + hits
            work_done += hits
        return events, stall_mem, stall_io, stall_both, work_done, oom


def pair(backend, seed):
    """A columnar manager and its reference twin, same seeded backends."""
    real = make_mm(ram_mb=48, backend=backend, seed=seed)  # 192 pages
    twin = make_mm(ram_mb=48, backend=backend, seed=seed)
    twin.__class__ = ReferenceMM
    twin.table = ModelTable()
    twin.table.fit_cgroups(1)
    for mm in (real, twin):
        mm.create_cgroup("a")
        mm.create_cgroup("b")
        mm.kswapd_low_frac = 0.1
        mm.kswapd_high_frac = 0.15
    return real, twin


def assert_same(real, twin):
    n = real.table.npages
    assert twin.table.npages == n
    for name in COMPARED:
        assert np.array_equal(
            getattr(real.table, name)[:n], getattr(twin.table, name)[:n]
        ), name
    assert real.table.lru_len == twin.table.lru_len
    for cg in real.cgroups():
        for kind in (PageKind.ANON, PageKind.FILE):
            for active in (False, True):
                assert (
                    real.table.members(cg.index, kind, active).tolist()
                    == twin.table.members(cg.index, kind, active).tolist()
                ), (cg.name, kind.name, active)
    for a, b in zip(real.cgroups(), twin.cgroups()):
        assert (a.anon_bytes, a.file_bytes, a.swap_bytes, a.zswap_bytes) \
            == (b.anon_bytes, b.file_bytes, b.swap_bytes, b.zswap_bytes)
        assert a.vmstat == b.vmstat


def both(real, twin, op):
    """Apply ``op`` to both managers; results (or OOMs) must agree."""
    out = []
    for mm in (real, twin):
        try:
            out.append(op(mm))
        except OutOfMemoryError:
            out.append("oom")
    assert out[0] == out[1]
    return out[0]


@pytest.mark.parametrize("short_run", [0, 8])
@pytest.mark.parametrize("chunk", [1, 5, 256])
@pytest.mark.parametrize("backend,seed", [
    ("zswap", 1), ("zswap", 2), ("ssd", 3), (None, 4), ("zswap", 5),
])
def test_columnar_lru_matches_ordereddict_model(monkeypatch, backend, seed,
                                                chunk, short_run):
    # short_run 0 sends every hit run through the array form.
    monkeypatch.setattr(page_mod, "_WALK_CHUNK", chunk)
    monkeypatch.setattr(page_mod, "_SHORT_RUN", short_run)
    real, twin = pair(backend, seed)
    rng = np.random.default_rng(seed)
    owned = {"a": np.empty(0, np.int64), "b": np.empty(0, np.int64)}
    now = 0.0
    for step in range(250):
        now += 1.0
        op = rng.choice(["alloc", "file", "touch", "touch", "touch",
                         "reclaim", "kswapd", "release", "dirty"])
        cg = str(rng.choice(["a", "b"]))
        if op == "alloc":
            n = int(rng.integers(1, 24))
            ids = both(real, twin,
                       lambda mm: mm.alloc_anon(cg, n, now)[0].tolist())
            if ids != "oom":
                owned[cg] = np.concatenate([owned[cg], ids])
        elif op == "file":
            n = int(rng.integers(1, 24))
            resident = bool(rng.integers(2))
            ids = both(real, twin, lambda mm: mm.register_file(
                cg, n, now, resident=resident)[0].tolist())
            if ids != "oom":
                owned[cg] = np.concatenate([owned[cg], ids])
        elif op == "touch" and len(owned[cg]):
            k = int(rng.integers(1, len(owned[cg]) + 1))
            idx = rng.permutation(len(owned[cg]))[:k]
            both(real, twin, lambda mm: mm.touch_batch(owned[cg], idx, now))
        elif op == "reclaim":
            nbytes = int(rng.integers(1, 40)) * real.page_size_bytes
            file_only = bool(rng.integers(2))
            both(real, twin, lambda mm: mm.memory_reclaim(
                cg, nbytes, now, file_only=file_only).reclaimed_bytes)
        elif op == "kswapd":
            both(real, twin, lambda mm: mm.kswapd(now))
        elif op == "release" and len(owned[cg]):
            k = int(rng.integers(1, min(8, len(owned[cg])) + 1))
            doomed = rng.permutation(owned[cg])[:k]
            for pid in doomed.tolist():
                both(real, twin, lambda mm: mm.release_page(pid))
            owned[cg] = owned[cg][~np.isin(owned[cg], doomed)]
        elif op == "dirty" and len(owned[cg]):
            some = owned[cg][: int(rng.integers(1, len(owned[cg]) + 1))]
            both(real, twin, lambda mm: mm.mark_dirty(some))
        assert_same(real, twin)
    # The run exercised what it claims to.
    vm = real.cgroup("a").vmstat
    assert vm.pgsteal > 0 and vm.pgdeactivate > 0 and vm.pgactivate > 0
    assert vm.direct_reclaim > 0
