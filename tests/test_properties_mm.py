"""Stateful property test: memory-manager accounting invariants.

Drives a MemoryManager through arbitrary interleavings of allocation,
touching, reclaim, limit changes and page release, checking after every
step that the books balance:

* every page's state agrees with the cgroup byte counters and LRU lists;
* physical DRAM use never exceeds the host's RAM;
* swap/zswap logical counters equal the backend's stored bytes;
* hierarchical usage equals the sum of the leaves.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.kernel.mm import OutOfMemoryError
from repro.kernel.page import PageKind, PageState

from tests.helpers import make_mm

PAGE = 256 * 1024


class MmMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0

    @initialize(backend=st.sampled_from(["zswap", "ssd", None]))
    def setup(self, backend):
        self.mm = make_mm(ram_mb=64, backend=backend)  # 256 pages
        self.mm.create_cgroup("a")
        self.mm.create_cgroup("b")
        self.pages = []  # page ids

    def _tick(self):
        self.now += 1.0

    # ------------------------------------------------------------------
    # rules

    @rule(cg=st.sampled_from(["a", "b"]), n=st.integers(1, 8))
    def alloc(self, cg, n):
        self._tick()
        try:
            pages, _ = self.mm.alloc_anon(cg, n, self.now)
        except OutOfMemoryError:
            return
        self.pages.extend(pages.tolist())

    @rule(cg=st.sampled_from(["a", "b"]), n=st.integers(1, 8),
          resident=st.booleans())
    def register(self, cg, n, resident):
        self._tick()
        try:
            pages, _ = self.mm.register_file(
                cg, n, self.now, resident=resident
            )
        except OutOfMemoryError:
            return
        self.pages.extend(pages.tolist())

    @rule(idx=st.integers(0, 10_000))
    def touch(self, idx):
        if not self.pages:
            return
        self._tick()
        try:
            self.mm.touch(self.pages[idx % len(self.pages)], self.now)
        except OutOfMemoryError:
            pass

    @rule(cg=st.sampled_from(["a", "b"]), pages=st.integers(1, 16),
          file_only=st.booleans())
    def reclaim(self, cg, pages, file_only):
        self._tick()
        self.mm.memory_reclaim(
            cg, pages * PAGE, self.now, file_only=file_only
        )

    @rule(cg=st.sampled_from(["a", "b"]),
          limit_pages=st.one_of(st.none(), st.integers(8, 128)))
    def set_limit(self, cg, limit_pages):
        self._tick()
        limit = None if limit_pages is None else limit_pages * PAGE
        self.mm.set_memory_max(cg, limit, self.now)

    @rule(idx=st.integers(0, 10_000))
    def release(self, idx):
        if not self.pages:
            return
        self._tick()
        page = self.pages.pop(idx % len(self.pages))
        self.mm.release_page(page)

    # ------------------------------------------------------------------
    # invariants

    @invariant()
    def counters_match_page_states(self):
        for name in ("a", "b"):
            cg = self.mm.cgroup(name)
            table = self.mm.table
            mine = [p for p in self.pages if table.cgroup[p] == cg.index]
            by_state = {
                state: sum(1 for p in mine if table.state[p] == state)
                for state in PageState
            }
            resident_bytes = by_state[PageState.RESIDENT] * PAGE
            assert cg.resident_bytes == resident_bytes
            assert cg.swap_bytes == by_state[PageState.SWAPPED] * PAGE
            assert cg.zswap_bytes == by_state[PageState.ZSWAPPED] * PAGE

    @invariant()
    def lru_holds_exactly_resident_pages(self):
        for name in ("a", "b"):
            cg = self.mm.cgroup(name)
            table = self.mm.table
            on_lru = (table.list_len(cg.index, PageKind.ANON)
                      + table.list_len(cg.index, PageKind.FILE))
            resident = sum(
                1 for p in self.pages
                if table.cgroup[p] == cg.index
                and table.state[p] == PageState.RESIDENT
            )
            assert on_lru == resident

    @invariant()
    def host_capacity_respected(self):
        assert self.mm.used_bytes() <= self.mm.ram_bytes

    @invariant()
    def backend_books_balance(self):
        backend = self.mm.swap_backend
        if backend is None:
            return
        logical = sum(
            cg.swap_bytes + cg.zswap_bytes for cg in self.mm.cgroups()
        )
        assert backend.stored_bytes == logical

    @invariant()
    def hierarchy_sums(self):
        root = self.mm.root
        assert root.current_bytes() == sum(
            cg.resident_bytes for cg in self.mm.cgroups()
        )


TestMmStateful = MmMachine.TestCase
TestMmStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
