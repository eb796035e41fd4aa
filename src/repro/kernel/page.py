"""Pages: the unit of memory the kernel manages, stored as columns.

Each simulated page stands for ``page_size_bytes`` bytes of one cgroup's
memory (the scale knob that keeps large hosts tractable — see DESIGN.md).
A page is either anonymous (swap-backed) or file-backed, and moves
through the states below as it is allocated, reclaimed and faulted back.

A memory manager keeps its pages in one :class:`PageTable`: one numpy
column per page attribute, indexed by page id. The table also holds the
LRU lists. Each cgroup has an active/inactive pair per page kind, the
kernel's production-tested mechanism for finding cold pages with low CPU
cost (Section 3.4): new pages enter the inactive list, a page referenced
while inactive earns promotion to the active list, and reclaim scans
from the cold (tail) end of the inactive list, deactivating from the
active tail when the inactive list runs low. A list is the set of
resident pages with its (cgroup, kind, active) triple, and its order is
the order of their LRU stamps: adding a page at the head gives it the
next stamp of a table-wide clock, so the page with the smallest stamp
is the tail.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

import numpy as np


class PageKind(enum.IntEnum):
    """The two memory categories of Section 2.4 (the ``kind`` column)."""

    ANON = 0
    FILE = 1


class PageState(enum.IntEnum):
    """Where a page's data currently lives (the ``state`` column)."""

    #: In DRAM, on one of the cgroup's LRU lists.
    RESIDENT = 0
    #: Anonymous data written out to SSD swap.
    SWAPPED = 1
    #: Anonymous data compressed into the zswap pool (still DRAM, but
    #: accounted to the pool, not the cgroup's resident set).
    ZSWAPPED = 2
    #: File data evicted from the page cache; a shadow entry may remain.
    EVICTED = 3
    #: File data never (or no longer) cached and with no shadow history,
    #: and every released page.
    ABSENT = 4


ANON = int(PageKind.ANON)
FILE = int(PageKind.FILE)
RESIDENT = int(PageState.RESIDENT)

#: The columns, in snapshot order. ``cgroup`` is the owning cgroup's
#: index, -1 once the page is released; ``shadow_stamp`` is the
#: eviction-clock value of the page's shadow entry, -1 without one;
#: ``stamp`` is the LRU stamp, 0 while the page is on no list.
COLUMNS = (
    ("state", np.int8),
    ("kind", np.int8),
    ("cgroup", np.int32),
    ("active", np.bool_),
    ("referenced", np.bool_),
    ("dirty", np.bool_),
    ("compressibility", np.float64),
    ("last_access", np.float64),
    ("shadow_stamp", np.int64),
    ("stamp", np.int64),
)

#: Target active:inactive size ratio; the kernel deactivates when the
#: active list outgrows this multiple of the inactive list.
ACTIVE_INACTIVE_RATIO = 2.0

#: Fewest pages a cold walk takes from a list at a time.
_WALK_CHUNK = 256

#: Hit runs this short are settled page by page. Each array operation
#: has a fixed cost of about half a microsecond, so the array form costs
#: ~6 us whatever the run's length, while a page costs ~0.6 us in
#: Python (crossover ~12 pages on CPython 3.11 / numpy 2.4). Small hosts
#: touch one or two pages per call; large ones hundreds.
_SHORT_RUN = 8


def lru_key(cgroup: int, kind: int, active: bool) -> int:
    """Index of one LRU list in :attr:`PageTable.lru_len`."""
    return (cgroup * 2 + kind) * 2 + int(active)


class _ColdWalk:
    """The coldest members of one LRU list, tail first.

    ``ids`` holds, in stamp order, every member whose stamp was at most
    ``bound`` when it was taken, with that stamp. A page that leaves the
    list or is re-stamped keeps its stale entry, which the walk skips; a
    page joins a list only at its head, with a stamp above ``bound``.
    So every member with a stamp at most ``bound`` is in ``ids``, and
    the entries from ``pos`` on that are still current are exactly the
    list's coldest members in order, across any number of reclaim passes
    and touches.
    """

    __slots__ = ("ids", "stamps", "pos", "bound")

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.stamps: List[int] = []
        self.pos = 0
        self.bound = 0


class PageTable:
    """Every page of one memory manager, one column per attribute.

    Indexed by page id; ids are handed out in order and never reused
    (backends and shadow entries are keyed on them). A released page
    keeps its id with ``cgroup`` -1 and state ABSENT.
    """

    state: np.ndarray
    kind: np.ndarray
    cgroup: np.ndarray
    active: np.ndarray
    referenced: np.ndarray
    dirty: np.ndarray
    compressibility: np.ndarray
    last_access: np.ndarray
    shadow_stamp: np.ndarray
    stamp: np.ndarray

    def __init__(self) -> None:
        #: Page ids handed out so far (the next page's id).
        self.npages = 0
        #: The last LRU stamp handed out.
        self.clock = 0
        for name, dtype in COLUMNS:
            setattr(self, name, np.zeros(64, dtype=dtype))
        #: Pages on each LRU list, indexed by :func:`lru_key`.
        self.lru_len: List[int] = []
        self._walks: Dict[int, _ColdWalk] = {}

    # ------------------------------------------------------------------
    # snapshot hook (repro.checkpoint.state): the columns up to npages

    def __snapshot__(self) -> list:
        from repro.checkpoint.state import encode_array

        n = self.npages
        return [n, self.clock, len(self.lru_len) // 4] + [
            encode_array(getattr(self, name)[:n]) for name, _ in COLUMNS
        ]

    def __restore__(self, state: list) -> None:
        from repro.checkpoint.state import decode_array

        self.npages, self.clock, ncgroups = state[:3]
        capacity = max(64, self.npages)
        for (name, dtype), doc in zip(COLUMNS, state[3:]):
            column = np.zeros(capacity, dtype=dtype)
            column[:self.npages] = decode_array(doc)
            setattr(self, name, column)
        n = self.npages
        on_list = self.stamp[:n] > 0
        keys = (
            (self.cgroup[:n][on_list].astype(np.int64) * 2
             + self.kind[:n][on_list]) * 2
            + self.active[:n][on_list]
        )
        self.lru_len = np.bincount(keys, minlength=4 * ncgroups).tolist()
        self._walks = {}

    # ------------------------------------------------------------------
    # allocation

    def fit_cgroups(self, ncgroups: int) -> None:
        """Make room in :attr:`lru_len` for ``ncgroups`` cgroups."""
        if len(self.lru_len) < ncgroups * 4:
            self.lru_len += [0] * (ncgroups * 4 - len(self.lru_len))

    def add(
        self,
        n: int,
        cgroup: int,
        kind: int,
        state: int,
        dirty: bool,
        compressibility: float,
        now: float,
    ) -> np.ndarray:
        """Append ``n`` pages; returns their ids. They start on no list,
        bits clear (columns past :attr:`npages` are all zero)."""
        start = self.npages
        end = start + n
        if end > len(self.state):
            capacity = max(end, 2 * len(self.state))
            for name, dtype in COLUMNS:
                grown = np.zeros(capacity, dtype=dtype)
                grown[:start] = getattr(self, name)[:start]
                setattr(self, name, grown)
        self.state[start:end] = state
        self.kind[start:end] = kind
        self.cgroup[start:end] = cgroup
        self.dirty[start:end] = dirty
        self.compressibility[start:end] = compressibility
        self.last_access[start:end] = now
        self.shadow_stamp[start:end] = -1
        self.npages = end
        return np.arange(start, end, dtype=np.int64)

    # ------------------------------------------------------------------
    # list membership

    def link(self, pid: int, active: bool) -> None:
        """Put a resident page at the head of its active or inactive
        list, reference bit clear."""
        self._push(pid, lru_key(
            self.cgroup.item(pid), self.kind.item(pid), active
        ))

    def _push(self, pid: int, key: int) -> None:
        """Put a page at the head of list ``key``, reference bit clear."""
        self.clock += 1
        self.stamp[pid] = self.clock
        self.active[pid] = key & 1
        self.referenced[pid] = False
        if self.lru_len[key] == 0:
            # The page is the list's only member, so the walk that
            # holds just it is complete: reclaim's "deactivate one into
            # the empty inactive list, then scan it" needs no search.
            walk = self._walks.get(key)
            if walk is not None:
                walk.ids = [pid]
                walk.stamps = [self.clock]
                walk.pos = 0
                walk.bound = self.clock
        self.lru_len[key] += 1

    def link_new(self, ids: np.ndarray, cgroup: int, kind: int) -> None:
        """Put fresh pages of one cgroup and kind at the inactive head,
        in id order."""
        k = len(ids)
        self.stamp[ids] = np.arange(self.clock + 1, self.clock + 1 + k)
        self.clock += k
        self.active[ids] = False
        self.referenced[ids] = False
        self.lru_len[lru_key(cgroup, kind, False)] += k

    def unlink(self, pid: int) -> None:
        """Take a page off whichever list it is on."""
        self.lru_len[lru_key(
            self.cgroup.item(pid), self.kind.item(pid), self.active.item(pid)
        )] -= 1
        self.stamp[pid] = 0
        self.active[pid] = False

    def list_len(self, cgroup: int, kind: int) -> int:
        """Pages on the active and inactive lists of one kind."""
        key = (cgroup * 2 + kind) * 2
        return self.lru_len[key] + self.lru_len[key + 1]

    def members(self, cgroup: int, kind: int, active: bool) -> np.ndarray:
        """The ids on one list, tail (coldest) first."""
        n = self.npages
        mask = (
            (self.stamp[:n] > 0) & (self.cgroup[:n] == cgroup)
            & (self.kind[:n] == kind) & (self.active[:n] == active)
        )
        ids = np.flatnonzero(mask)
        return ids[np.argsort(self.stamp[ids], kind="stable")]

    # ------------------------------------------------------------------
    # the referenced-bit protocol

    def hit(self, ids: np.ndarray, now: float) -> None:
        """Resident hits on distinct pages, in touch order.

        Precondition: ``ids`` holds no page twice. The kernel's protocol
        for each page: an active page sets its reference bit and rotates
        to the active head; a referenced inactive page is promoted to the
        active head with its bit cleared; an unreferenced inactive page
        only sets its bit, keeping its place. With distinct pages each
        touch depends only on its own page's bits, so the whole run
        settles in a few array operations, and the pages that move take
        fresh stamps in touch order. A run of at most ``_SHORT_RUN``
        pages is settled page by page instead, which is cheaper there.
        """
        if len(ids) <= _SHORT_RUN:
            self._hit_each(ids, now)
            return
        self.last_access[ids] = now
        active = self.active[ids]
        referenced = self.referenced[ids]
        moved = active | referenced
        # Promoted pages (referenced, inactive) clear their bit; every
        # other page sets it.
        self.referenced[ids] = active >= referenced
        promoted = ids[referenced > active]
        if len(promoted):
            self.active[promoted] = True
            inactive = (
                self.cgroup[promoted].astype(np.int64) * 2
                + self.kind[promoted]
            ) * 2
            counts = np.bincount(inactive)
            keys = counts.nonzero()[0]
            for key, count in zip(keys.tolist(), counts[keys].tolist()):
                self.lru_len[key] -= count
                self.lru_len[key + 1] += count
        moved_ids = ids[moved]
        k = len(moved_ids)
        if k:
            self.stamp[moved_ids] = np.arange(
                self.clock + 1, self.clock + 1 + k
            )
            self.clock += k

    def _hit_each(self, ids: np.ndarray, now: float) -> None:
        """:meth:`hit`, one page at a time."""
        active, referenced = self.active, self.referenced
        for pid in ids.tolist():
            self.last_access[pid] = now
            if active.item(pid):
                referenced[pid] = True
                self.clock += 1
                self.stamp[pid] = self.clock
            elif referenced.item(pid):
                inactive = lru_key(
                    self.cgroup.item(pid), self.kind.item(pid), False
                )
                self.lru_len[inactive] -= 1
                self._push(pid, inactive + 1)
            else:
                referenced[pid] = True

    def pop_tail(self, key: int) -> Optional[int]:
        """Unlink and return the coldest page of list ``key`` (None if
        the list is empty)."""
        walk = self._walks.get(key)
        if walk is None:
            walk = self._walks[key] = _ColdWalk()
        stamp = self.stamp
        while True:
            if walk.pos == len(walk.ids):
                if not self._refill(walk, key):
                    return None
            pid = walk.ids[walk.pos]
            current = walk.stamps[walk.pos] == stamp.item(pid)
            walk.pos += 1
            if current:
                self.lru_len[key] -= 1
                stamp[pid] = 0
                self.active[pid] = False
                return pid

    def _refill(self, walk: _ColdWalk, key: int) -> bool:
        """Take the next coldest members past ``walk.bound``: one mask
        over the table and one partial sort per chunk, not per page."""
        remaining = self.lru_len[key]
        if remaining == 0:
            return False
        n = self.npages
        mask = self.stamp[:n] > walk.bound
        mask &= self.cgroup[:n] == key >> 2
        mask &= self.kind[:n] == (key >> 1) & 1
        mask &= self.active[:n] if key & 1 else ~self.active[:n]
        ids = mask.nonzero()[0]
        stamps = self.stamp[ids]
        chunk = max(_WALK_CHUNK, remaining >> 4)
        if len(ids) > chunk:
            part = np.argpartition(stamps, chunk - 1)[:chunk]
            ids = ids[part]
            stamps = stamps[part]
        order = stamps.argsort()
        walk.ids = ids[order].tolist()
        walk.stamps = stamps[order].tolist()
        walk.pos = 0
        walk.bound = walk.stamps[-1]
        return True

    def needs_deactivation(self, inactive: int) -> bool:
        """Whether the active list is oversized relative to the inactive
        list ``inactive`` (an even list key)."""
        return self.lru_len[inactive + 1] > ACTIVE_INACTIVE_RATIO * max(
            1, self.lru_len[inactive]
        )

    def deactivate_one(self, inactive: int) -> Optional[int]:
        """Demote the coldest active page to the inactive head.

        A referenced active page gets its bit cleared and is rotated
        back instead (one scan of second chance); returns the demoted
        page, or None.
        """
        pid = self.pop_tail(inactive + 1)
        if pid is None:
            return None
        if self.referenced.item(pid):
            self._push(pid, inactive + 1)
            return None
        self._push(pid, inactive)
        return pid

    def scan_tail(self, inactive: int):
        """Examine the coldest page of the inactive list ``inactive``.

        Returns ``(page, evictable)``: a referenced page is given a
        second chance (promoted to active, bit cleared) and reported as
        not evictable; an unreferenced page is left off every list and
        handed to the caller for eviction.
        """
        pid = self.pop_tail(inactive)
        if pid is None:
            return None, False
        if self.referenced.item(pid):
            self._push(pid, inactive + 1)
            return pid, False
        return pid, True
