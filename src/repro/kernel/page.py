"""Pages: the unit of memory the kernel manages.

Each simulated page stands for ``page_size_bytes`` bytes of one cgroup's memory
(the scale knob that keeps large hosts tractable — see DESIGN.md). A page
is either anonymous (swap-backed) or file-backed, and moves through the
states below as it is allocated, reclaimed and faulted back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class PageKind(enum.Enum):
    """The two memory categories of Section 2.4."""

    ANON = "anon"
    FILE = "file"


class PageState(enum.Enum):
    """Where a page's data currently lives."""

    #: In DRAM, on one of the cgroup's LRU lists.
    RESIDENT = "resident"
    #: Anonymous data written out to SSD swap.
    SWAPPED = "swapped"
    #: Anonymous data compressed into the zswap pool (still DRAM, but
    #: accounted to the pool, not the cgroup's resident set).
    ZSWAPPED = "zswapped"
    #: File data evicted from the page cache; a shadow entry may remain.
    EVICTED = "evicted"
    #: File data never (or no longer) cached and with no shadow history.
    ABSENT = "absent"


@dataclass
class Page:
    """One page of a cgroup's memory.

    Attributes:
        page_id: unique id within the owning memory manager.
        kind: anonymous or file-backed.
        cgroup: name of the owning cgroup.
        state: current placement (see :class:`PageState`).
        active: True when on the active LRU list (meaningful only while
            RESIDENT).
        referenced: the software reference bit — set on access, cleared
            by the reclaim scan; a referenced inactive page gets a second
            chance (re-activation) instead of eviction.
        dirty: file pages only; a dirty page needs writeback on eviction.
        compressibility: zstd compression ratio of this page's data.
        last_access: virtual time of the most recent touch.
        shadow_stamp: eviction-clock value stored when the page's shadow
            entry was created (file pages only; None when no shadow).
    """

    #: Pages are shared by id in snapshots (repro.checkpoint.state).
    __key__ = "page_id"

    page_id: int
    kind: PageKind
    cgroup: str
    state: PageState = PageState.RESIDENT
    active: bool = False
    referenced: bool = False
    dirty: bool = False
    compressibility: float = 3.0
    last_access: float = field(default=0.0)
    shadow_stamp: Optional[int] = None

    @property
    def resident(self) -> bool:
        return self.state is PageState.RESIDENT

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, {self.kind.value}, {self.state.value},"
            f" cgroup={self.cgroup!r}, active={self.active})"
        )
