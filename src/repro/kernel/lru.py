"""LRU page lists.

Each cgroup maintains a pair of active/inactive lists per page kind, the
kernel's production-tested mechanism for finding cold pages with low CPU
cost (Section 3.4). New pages enter the inactive list; a page referenced
while inactive earns promotion to the active list; reclaim scans from the
cold (tail) end of the inactive list and deactivates from the active tail
when the inactive list runs low.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.kernel.page import Page, PageKind


class LruList:
    """An ordered list of resident pages, hottest at the head.

    Backed by an ``OrderedDict`` for O(1) membership, removal and
    rotation. Internally the dict's *end* is the head (most recently
    used); the *start* is the tail where reclaim harvests.
    """

    __state__ = ("name", "_pages")
    _pages: "OrderedDict[int, Page]"

    def __init__(self, name: str) -> None:
        self.name = name
        self._pages = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: Page) -> bool:
        return page.page_id in self._pages

    def add_to_head(self, page: Page) -> None:
        """Insert (or rotate) a page at the hot end."""
        self._pages[page.page_id] = page
        self._pages.move_to_end(page.page_id)

    def add_to_tail(self, page: Page) -> None:
        """Insert a page at the cold end (used when demoting)."""
        self._pages[page.page_id] = page
        self._pages.move_to_end(page.page_id, last=False)

    def remove(self, page: Page) -> None:
        del self._pages[page.page_id]

    def discard(self, page: Page) -> None:
        self._pages.pop(page.page_id, None)

    def tail(self) -> Optional[Page]:
        """The coldest page, or None when empty."""
        if not self._pages:
            return None
        return next(iter(self._pages.values()))

    def pop_tail(self) -> Optional[Page]:
        """Remove and return the coldest page."""
        if not self._pages:
            return None
        _, page = self._pages.popitem(last=False)
        return page

    def __iter__(self) -> Iterator[Page]:
        """Iterate cold to hot."""
        return iter(self._pages.values())


class LruSet:
    """The active/inactive list pair for one page kind in one cgroup."""

    #: Target active:inactive size ratio; the kernel deactivates when the
    #: active list outgrows this multiple of the inactive list.
    ACTIVE_INACTIVE_RATIO = 2.0

    __state__ = ("kind", "active", "inactive")
    kind: PageKind
    active: LruList
    inactive: LruList

    def __init__(self, kind: PageKind, cgroup: str) -> None:
        self.kind = kind
        self.active = LruList(f"{cgroup}/{kind.value}/active")
        self.inactive = LruList(f"{cgroup}/{kind.value}/inactive")

    def __len__(self) -> int:
        return len(self.active) + len(self.inactive)

    def insert_new(self, page: Page) -> None:
        """A newly allocated (or faulted-in) page enters the inactive head."""
        page.active = False
        page.referenced = False
        self.inactive.add_to_head(page)

    def insert_active(self, page: Page) -> None:
        """Insert straight onto the active list (refaulting working set)."""
        page.active = True
        page.referenced = False
        self.active.add_to_head(page)

    def touch(self, page: Page) -> bool:
        """Record an access; return True if the page was promoted.

        Mirrors the kernel's referenced-bit protocol: the first touch of
        an inactive page sets the reference bit; a second touch promotes
        it to the active list. Touches of active pages rotate the page to
        the head.
        """
        if page.active:
            page.referenced = True
            self.active.add_to_head(page)
            return False
        if page.referenced:
            self.inactive.remove(page)
            page.active = True
            page.referenced = False
            self.active.add_to_head(page)
            return True
        page.referenced = True
        # Leave list position; the reference bit is the aging signal.
        return False

    def remove(self, page: Page) -> None:
        """Take a page off whichever list it is on."""
        if page.active:
            self.active.discard(page)
        else:
            self.inactive.discard(page)
        page.active = False

    def needs_deactivation(self) -> bool:
        """Whether the active list is oversized relative to inactive."""
        return len(self.active) > self.ACTIVE_INACTIVE_RATIO * max(
            1, len(self.inactive)
        )

    def deactivate_one(self) -> Optional[Page]:
        """Demote the coldest active page to the inactive head.

        A referenced active page gets its bit cleared and is rotated
        back instead (one scan of second chance).
        """
        page = self.active.pop_tail()
        if page is None:
            return None
        if page.referenced:
            page.referenced = False
            self.active.add_to_head(page)
            return None
        page.active = False
        page.referenced = False
        self.inactive.add_to_head(page)
        return page

    def scan_tail(self) -> Tuple[Optional[Page], bool]:
        """Examine the coldest inactive page for eviction.

        Returns ``(page, evictable)``: a referenced page is given a
        second chance (promoted to active, bit cleared) and reported as
        not evictable; an unreferenced page is removed from the list and
        handed to the caller for eviction.
        """
        page = self.inactive.pop_tail()
        if page is None:
            return None, False
        if page.referenced:
            page.referenced = False
            page.active = True
            self.active.add_to_head(page)
            return page, False
        page.active = False
        return page, True
