"""Idle-page tracking and page-age histograms.

The cold-page detectors the paper positions itself against (Section 6):
idle-bit scanning [10, 20] and g-swap's page-age histograms [18]. TMO
itself deliberately does *not* scan pages — it lets LRU reclaim find
cold memory — but the offline-profiling comparator (and the Figure 2
characterisation methodology) needs an explicit scanner, so the
simulator provides one.

The scanner charges a CPU cost per page examined, reproducing the
paper's observation that scan overhead grows with memory size, whereas
TMO's reclaim cost scales only with the paging rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.kernel.mm import MemoryManager
from repro.kernel.page import RESIDENT

#: CPU seconds to test-and-clear one page's idle bit.
IDLE_SCAN_COST_S = 0.5e-6

#: Default histogram bucket edges, in seconds of idleness.
DEFAULT_AGE_BUCKETS_S = (60.0, 120.0, 300.0, 900.0, 3600.0)


@dataclass
class AgeHistogram:
    """Counts of resident pages by idle age.

    ``counts[i]`` holds pages with ``edges[i-1] <= age < edges[i]``;
    the final bucket is everything at least as old as the last edge.
    """

    edges: Sequence[float]
    counts: List[int] = field(default_factory=list)
    total_pages: int = 0

    def __post_init__(self) -> None:
        if list(self.edges) != sorted(self.edges):
            raise ValueError(f"bucket edges must ascend: {self.edges}")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def add(self, age_s: float) -> None:
        for i, edge in enumerate(self.edges):
            if age_s < edge:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total_pages += 1

    def fraction_older_than(self, age_s: float) -> float:
        """Share of pages idle for at least ``age_s`` (must be an edge)."""
        if age_s not in self.edges:
            raise ValueError(
                f"{age_s} is not a bucket edge of {list(self.edges)}"
            )
        index = list(self.edges).index(age_s)
        if self.total_pages == 0:
            return 0.0
        return sum(self.counts[index + 1:]) / self.total_pages


class IdlePageTracker:
    """Scans a cgroup's resident pages and builds age histograms."""

    def __init__(self, mm: MemoryManager) -> None:
        self.mm = mm
        #: Total CPU seconds consumed by scanning (the cost TMO avoids).
        self.scan_cpu_seconds = 0.0
        self.pages_scanned = 0

    def _resident_ages(self, cgroup_name: str, now: float) -> np.ndarray:
        """Idle ages of the cgroup's resident pages, in page-id order."""
        index = self.mm.cgroup(cgroup_name).index
        table = self.mm.table
        n = table.npages
        mine = (table.cgroup[:n] == index) & (table.state[:n] == RESIDENT)
        ages = now - table.last_access[:n][mine]
        np.maximum(ages, 0.0, out=ages)
        return ages

    def _charge(self, npages: int) -> None:
        """Charge the scan cost for ``npages`` inspected pages."""
        self.pages_scanned += npages
        self.scan_cpu_seconds += npages * IDLE_SCAN_COST_S

    def scan(
        self,
        cgroup_name: str,
        now: float,
        buckets: Sequence[float] = DEFAULT_AGE_BUCKETS_S,
    ) -> AgeHistogram:
        """One full scan of the cgroup's resident pages."""
        edges = tuple(buckets)
        ages = self._resident_ages(cgroup_name, now)
        self._charge(len(ages))
        # ``add()`` puts an age in the first bucket whose edge is still
        # greater; searchsorted(side="right") computes the same index
        # (the count of edges <= age) for every page at once.
        bucket_index = np.searchsorted(np.asarray(edges), ages, side="right")
        counts = np.bincount(bucket_index, minlength=len(edges) + 1)
        return AgeHistogram(
            edges=edges,
            counts=counts.tolist(),
            total_pages=len(ages),
        )

    def cold_bytes(
        self, cgroup_name: str, now: float, age_threshold_s: float
    ) -> int:
        """Resident bytes idle for at least ``age_threshold_s``.

        The offline-profiling estimate a g-swap-style system derives its
        static offload target from. Like :meth:`scan`, the cost is
        charged for every resident page *inspected* — the scanner has to
        read each page's idle bit to learn the page is warm — not only
        for the pages that turn out cold.
        """
        ages = self._resident_ages(cgroup_name, now)
        self._charge(len(ages))
        return int(np.count_nonzero(ages >= age_threshold_s)) * (
            self.mm.page_size_bytes
        )
