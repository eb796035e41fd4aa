"""Non-resident cache tracking: shadow entries and refault detection.

Section 3.4: whenever a file page is evicted, a per-cgroup eviction
counter is incremented and its value stored in a shadow entry replacing
the page. On fault, the *reuse distance* is the difference between the
current counter and the stored stamp; if it is smaller than the cgroup's
resident memory (in pages), the page was still part of the working set
and the fault is a *refault*. Refaults drive both memory-PSI accounting
and TMO's rewritten reclaim balance.
"""

from __future__ import annotations

from typing import Dict, Optional


class ShadowMap:
    """Eviction clock plus shadow entries for one cgroup."""

    __state__ = ("_clock", "_stamps", "_capacity")
    _stamps: Dict[int, int]

    def __init__(self, capacity_entries: Optional[int] = None) -> None:
        """
        Args:
            capacity_entries: optional bound on retained shadow entries; the
                kernel prunes old shadows under memory pressure. Oldest
                entries are dropped first when the bound is hit.
        """
        self._clock = 0
        self._stamps = {}
        self._capacity = capacity_entries

    @property
    def eviction_clock(self) -> int:
        """Total file evictions recorded so far."""
        return self._clock

    def __len__(self) -> int:
        return len(self._stamps)

    def record_eviction(self, page_id: int) -> int:
        """Install a shadow entry for an evicted page; return its stamp."""
        stamp = self._clock
        self._clock += 1
        self._stamps[page_id] = stamp
        if self._capacity is not None and len(self._stamps) > self._capacity:
            oldest = min(self._stamps, key=self._stamps.get)
            del self._stamps[oldest]
        return stamp

    def reuse_distance(self, page_id: int) -> Optional[int]:
        """Reuse distance for a faulting page, or None without a shadow."""
        stamp = self._stamps.get(page_id)
        if stamp is None:
            return None
        return self._clock - stamp

    def consume(self, page_id: int, resident_pages: int) -> bool:
        """Resolve a fault: pop the shadow entry and classify the fault.

        Returns:
            True when the fault is a refault (reuse distance within the
            cgroup's resident set), False for a plain cold read.
        """
        stamp = self._stamps.pop(page_id, None)
        if stamp is None:
            return False
        distance = self._clock - stamp
        return distance <= resident_pages

    def forget(self, page_id: int) -> None:
        """Drop the shadow entry (page freed for good, e.g. exit)."""
        self._stamps.pop(page_id, None)
