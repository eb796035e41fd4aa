"""The cgroup memory-control hierarchy.

Containers in TMO are cgroups: each has hierarchical memory accounting,
its own LRU lists (kept in the memory manager's page table under the
cgroup's index), shadow-entry clock, vmstat counters, and the control
surface Senpai drives (``memory.max`` and the stateless ``memory.reclaim``
knob the paper added upstream).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.kernel.page import PageKind
from repro.kernel.shadow import ShadowMap
from repro.kernel.vmstat import RateEstimator, VmStat


class Cgroup:
    """One memory-control domain.

    Byte accounting is *local* (pages charged directly to this cgroup);
    the hierarchical ``current_bytes`` view sums the subtree, matching
    cgroup2's ``memory.current`` semantics.
    """

    #: Cgroups are shared by name in snapshots (repro.checkpoint.state).
    __key__ = "name"
    __state__ = (
        "name", "index", "page_size_bytes", "parent", "children",
        "memory_max", "memory_low", "swap_max", "compressibility",
        "anon_bytes", "file_bytes", "swap_bytes", "zswap_bytes", "shadow",
        "vmstat", "refault_rate", "swapin_rate", "reuse_distance_hist",
    )
    parent: Optional["Cgroup"]
    children: Dict[str, "Cgroup"]
    shadow: ShadowMap
    vmstat: VmStat
    refault_rate: RateEstimator
    swapin_rate: RateEstimator
    reuse_distance_hist: Dict[int, int]

    def __init__(
        self,
        name: str,
        page_size_bytes: int,
        parent: Optional["Cgroup"] = None,
        compressibility: float = 3.0,
        index: int = 0,
    ) -> None:
        if page_size_bytes <= 0:
            raise ValueError(f"page_size_bytes must be positive, got {page_size_bytes}")
        self.name = name
        #: Position among its memory manager's cgroups: the value of the
        #: page table's ``cgroup`` column for this cgroup's pages.
        self.index = index
        self.page_size_bytes = page_size_bytes
        self.parent = parent
        self.children = {}
        if parent is not None:
            if name in parent.children:
                raise ValueError(
                    f"cgroup {parent.name!r} already has a child {name!r}"
                )
            parent.children[name] = self

        #: Hard limit on hierarchical usage (memory.max); None = unlimited.
        self.memory_max: Optional[int] = None
        #: Best-effort protection (memory.low): while hierarchical usage
        #: is below this, reclaim skips the cgroup unless every
        #: candidate is protected. Containers with stringent SLOs get a
        #: floor this way (Section 1's container-priority handling).
        self.memory_low: int = 0
        #: Cap on this cgroup's offloaded bytes (memory.swap.max);
        #: None = unlimited. Lets operators exclude containers from
        #: swap entirely or bound their backend footprint.
        self.swap_max: Optional[int] = None
        #: Default zstd compression ratio for pages charged here.
        self.compressibility = compressibility

        # Local resident accounting, in bytes.
        self.anon_bytes = 0
        self.file_bytes = 0
        # Offloaded (logical, uncompressed) bytes by destination.
        self.swap_bytes = 0
        self.zswap_bytes = 0

        self.shadow = ShadowMap()
        self.vmstat = VmStat()

        # Smoothed event rates feeding TMO's reclaim balance.
        self.refault_rate = RateEstimator()
        self.swapin_rate = RateEstimator()

        #: Reuse-distance histogram (log2 buckets of pages), recorded
        #: for every fault against a page with a shadow entry.
        self.reuse_distance_hist = {}

    # ------------------------------------------------------------------
    # accounting

    @property
    def resident_bytes(self) -> int:
        """Local resident bytes (anon + file)."""
        return self.anon_bytes + self.file_bytes

    @property
    def resident_pages(self) -> int:
        return self.resident_bytes // self.page_size_bytes

    def current_bytes(self) -> int:
        """Hierarchical usage: local plus all descendants (memory.current)."""
        total = self.resident_bytes
        for child in self.children.values():
            total += child.current_bytes()
        return total

    def offloaded_bytes(self) -> int:
        """Logical bytes this cgroup holds in offload backends."""
        return self.swap_bytes + self.zswap_bytes

    def charge(self, kind: PageKind, nbytes: int) -> None:
        """Charge resident bytes for a page entering DRAM."""
        if kind == PageKind.ANON:
            self.anon_bytes += nbytes
        else:
            self.file_bytes += nbytes

    def uncharge(self, kind: PageKind, nbytes: int) -> None:
        """Release resident bytes for a page leaving DRAM."""
        if kind == PageKind.ANON:
            self.anon_bytes -= nbytes
            if self.anon_bytes < 0:
                raise RuntimeError(
                    f"cgroup {self.name!r}: anon accounting went negative"
                )
        else:
            self.file_bytes -= nbytes
            if self.file_bytes < 0:
                raise RuntimeError(
                    f"cgroup {self.name!r}: file accounting went negative"
                )

    # ------------------------------------------------------------------
    # hierarchy helpers

    def walk(self) -> Iterator["Cgroup"]:
        """This cgroup and all descendants, depth-first."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def leaves(self) -> List["Cgroup"]:
        """Descendant cgroups that have no children (where pages live)."""
        return [cg for cg in self.walk() if not cg.children]

    def ancestors(self) -> Iterator["Cgroup"]:
        """Chain from this cgroup's parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def protected(self) -> bool:
        """Whether memory.low currently shields this cgroup from reclaim."""
        return self.memory_low > 0 and self.current_bytes() <= self.memory_low

    # ------------------------------------------------------------------
    # rate maintenance

    def update_rates(self, dt: float) -> None:
        """Refresh the refault / swap-in rate EMAs from vmstat."""
        self.refault_rate.update(self.vmstat.workingset_refault, dt)
        self.swapin_rate.update(self.vmstat.pswpin, dt)

    # ------------------------------------------------------------------
    # reuse-distance profiling (for miss-ratio curves)

    def record_reuse_distance(self, distance: int) -> None:
        """Bucket one refault's reuse distance (log2 buckets).

        The histogram feeds :mod:`repro.analysis.workingset`'s
        miss-ratio-curve estimate — the data behind Senpai's claim of
        providing "an accurate workingset profile of the application
        over time" (Section 3.3).
        """
        if distance < 1:
            raise ValueError(f"reuse distance must be >= 1, got {distance}")
        bucket = distance.bit_length() - 1  # log2 bucket
        self.reuse_distance_hist[bucket] = (
            self.reuse_distance_hist.get(bucket, 0) + 1
        )

    def __repr__(self) -> str:
        return (
            f"Cgroup(name={self.name!r}, resident={self.resident_bytes}, "
            f"swap={self.swap_bytes}, zswap={self.zswap_bytes})"
        )
