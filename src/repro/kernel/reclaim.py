"""Reclaim: choosing and evicting cold pages.

Two balancing policies are provided (Section 3.4):

* :class:`LegacyReclaimPolicy` — the historic kernel behaviour. Heavily
  skewed toward file cache through heuristics; swap is only an emergency
  overflow once the file cache is nearly exhausted. The paper observed
  that substantial parts of a workload's file *working set* were
  reclaimed (causing refaults) before any cold anonymous page was
  considered.

* :class:`TmoReclaimPolicy` — the upstreamed rewrite. Reclaim comes
  exclusively from file cache as long as no refaults occur; once refaults
  appear, reclaim is balanced between file and anon according to the
  observed refault rate and swap-in rate, equalising the cost of paging
  across the two pools and minimising aggregate paging.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backends.base import BackendFaultError
from repro.kernel.page import ANON, FILE, PageState, lru_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.cgroup import Cgroup
    from repro.kernel.mm import MemoryManager


SWAPPED = int(PageState.SWAPPED)
EVICTED = int(PageState.EVICTED)

#: CPU cost of examining one page during an LRU scan, in seconds. The
#: paper reports Senpai-driven reclaim at 0.05% of all CPU cycles; this
#: constant reproduces that order of magnitude at production scan rates.
SCAN_COST_S = 2e-6


class ReclaimPolicy(abc.ABC):
    """Decides how reclaim scanning is split between file and anon."""

    name: str = "abstract"

    @abc.abstractmethod
    def file_scan_fraction(
        self, cgroup: "Cgroup", swap_available: bool
    ) -> float:
        """Fraction of reclaim scanning aimed at the file LRU (0..1)."""


class TmoReclaimPolicy(ReclaimPolicy):
    """Refault/swap-in balanced reclaim (the TMO kernel change)."""

    name = "tmo"

    def __init__(self, refault_floor_per_s: float = 0.1) -> None:
        """
        Args:
            refault_floor_per_s: refault rate below which the file cache
                is considered to still hold only cold pages, so reclaim
                stays file-exclusive.
        """
        self.refault_floor_per_s = refault_floor_per_s

    def file_scan_fraction(
        self, cgroup: "Cgroup", swap_available: bool
    ) -> float:
        if not swap_available:
            return 1.0
        refaults = cgroup.refault_rate.rate
        swapins = cgroup.swapin_rate.rate
        if refaults < self.refault_floor_per_s:
            # No sign the file working set is being hit: file-only.
            return 1.0
        # Balance by paging cost: scan each pool inversely proportional
        # to the IO cost it is currently incurring.
        inv_file = 1.0 / (1.0 + refaults)
        inv_anon = 1.0 / (1.0 + swapins)
        return inv_file / (inv_file + inv_anon)


class LegacyReclaimPolicy(ReclaimPolicy):
    """The historic file-skewed balance (pre-TMO kernels)."""

    name = "legacy"

    def __init__(
        self,
        emergency_file_fraction: float = 0.05,
        emergency_file_scan: float = 0.4,
    ) -> None:
        """
        Args:
            emergency_file_fraction: once the resident file share drops
                below this, the kernel finally starts swapping.
            emergency_file_scan: the file-scan fraction used in that
                emergency regime.
        """
        self.emergency_file_fraction = emergency_file_fraction
        self.emergency_file_scan = emergency_file_scan

    def file_scan_fraction(
        self, cgroup: "Cgroup", swap_available: bool
    ) -> float:
        if not swap_available:
            return 1.0
        resident = cgroup.resident_bytes
        if resident == 0:
            return 1.0
        file_share = cgroup.file_bytes / resident
        if file_share > self.emergency_file_fraction:
            return 1.0
        return self.emergency_file_scan


@dataclass
class ReclaimOutcome:
    """What one reclaim invocation accomplished and what it cost."""

    requested_bytes: int
    reclaimed_bytes: int = 0
    reclaimed_file_bytes: int = 0
    reclaimed_anon_bytes: int = 0
    scanned_pages: int = 0
    #: CPU time spent scanning + compressing, attributed by the caller
    #: (app stall for direct reclaim, controller CPU for proactive).
    cpu_seconds: float = 0.0
    #: Synchronous stall time (e.g. waiting for writeback under direct
    #: reclaim); proactive reclaim keeps this at zero.
    stall_seconds: float = 0.0
    #: The reclaim hit the end of both LRUs before meeting the target.
    exhausted: bool = False

    def merge(self, other: "ReclaimOutcome") -> None:
        self.reclaimed_bytes += other.reclaimed_bytes
        self.reclaimed_file_bytes += other.reclaimed_file_bytes
        self.reclaimed_anon_bytes += other.reclaimed_anon_bytes
        self.scanned_pages += other.scanned_pages
        self.cpu_seconds += other.cpu_seconds
        self.stall_seconds += other.stall_seconds
        self.exhausted = self.exhausted or other.exhausted


class Reclaimer:
    """Executes reclaim against a cgroup's LRU lists.

    Owned by the :class:`~repro.kernel.mm.MemoryManager`; the policy
    object is swappable so experiments can A/B the legacy and TMO
    balancing on identical workloads.
    """

    #: Give up after scanning this multiple of the target page count.
    MAX_SCAN_FACTOR = 8

    def __init__(self, mm: "MemoryManager", policy: ReclaimPolicy) -> None:
        self.mm = mm
        self.policy = policy
        #: Pages evicted so far; a change tells the touch path that
        #: residency may have changed under it.
        self.evictions = 0

    # ------------------------------------------------------------------

    def reclaim(
        self,
        cgroup: "Cgroup",
        nr_bytes: int,
        now: float,
        synchronous: bool = False,
        file_only: bool = False,
    ) -> ReclaimOutcome:
        """Reclaim up to ``nr_bytes`` from ``cgroup``'s subtree.

        Args:
            cgroup: root of the subtree to reclaim from. When it has
                children, the target is spread over leaves proportionally
                to their resident size.
            nr_bytes: reclaim target.
            synchronous: True for direct reclaim from the allocation
                path — writeback waits become stall time.
            file_only: skip the anon pool entirely (file-only deployment
                mode, or Senpai's SSD write-endurance regulation).
        """
        outcome = ReclaimOutcome(requested_bytes=nr_bytes)
        if nr_bytes <= 0:
            return outcome
        leaves = [cg for cg in cgroup.leaves() if cg.resident_bytes > 0]
        # memory.low is best-effort protection: protected cgroups are
        # skipped while any unprotected candidate remains.
        unprotected = [cg for cg in leaves if not cg.protected()]
        if unprotected:
            leaves = unprotected
        if not leaves:
            outcome.exhausted = True
            return outcome
        total_resident = sum(cg.resident_bytes for cg in leaves)
        for leaf in leaves:
            share = leaf.resident_bytes / total_resident
            target = int(math.ceil(nr_bytes * share))
            part = self._reclaim_leaf(leaf, target, now, synchronous, file_only)
            outcome.merge(part)
        outcome.exhausted = all(
            cg.resident_bytes == 0 for cg in leaves
        ) or outcome.reclaimed_bytes == 0
        return outcome

    # ------------------------------------------------------------------

    def _reclaim_leaf(
        self,
        cgroup: "Cgroup",
        nr_bytes: int,
        now: float,
        synchronous: bool,
        file_only: bool = False,
    ) -> ReclaimOutcome:
        outcome = ReclaimOutcome(requested_bytes=nr_bytes)
        table = self.mm.table
        index = cgroup.index
        page_size_bytes = cgroup.page_size_bytes
        target_pages = max(1, int(math.ceil(nr_bytes / page_size_bytes)))
        swap_available = (not file_only) and self.mm.swap_available(page_size_bytes)
        file_frac = self.policy.file_scan_fraction(cgroup, swap_available)

        # Weighted round-robin between the two pools via an accumulator.
        file_credit = 0.0
        scan_budget = self.MAX_SCAN_FACTOR * target_pages
        reclaimed_pages = 0
        while reclaimed_pages < target_pages and scan_budget > 0:
            file_credit += file_frac
            if file_credit >= 1.0 and table.list_len(index, FILE) > 0:
                kind = FILE
                file_credit -= 1.0
            elif swap_available and table.list_len(index, ANON) > 0:
                kind = ANON
            elif table.list_len(index, FILE) > 0:
                kind = FILE
            else:
                outcome.exhausted = True
                break

            pid, scans = self._isolate_cold_page(cgroup, kind)
            scan_budget -= max(1, scans)
            outcome.scanned_pages += max(1, scans)
            cgroup.vmstat.pgscan += max(1, scans)
            if pid is None:
                continue
            evicted = self._evict(cgroup, pid, now, synchronous, outcome)
            if evicted:
                reclaimed_pages += 1
            elif kind == ANON:
                # Swap filled up mid-reclaim: stop considering anon.
                swap_available = False
                file_frac = 1.0

        outcome.cpu_seconds += outcome.scanned_pages * SCAN_COST_S
        return outcome

    def _isolate_cold_page(self, cgroup: "Cgroup", kind: int):
        """Pull one evictable page off the inactive tail.

        Returns ``(page_id_or_None, pages_scanned)``. Handles
        deactivation of an oversized active list and second chances for
        referenced pages.
        """
        table = self.mm.table
        lru_len = table.lru_len
        inactive = lru_key(cgroup.index, kind, False)
        scans = 0
        # Refill the inactive list when it is empty or undersized.
        while lru_len[inactive] == 0 and lru_len[inactive + 1] > 0:
            table.deactivate_one(inactive)
            scans += 1
            cgroup.vmstat.pgdeactivate += 1
            if scans > lru_len[inactive + 1] + 1:
                break
        if table.needs_deactivation(inactive):
            if table.deactivate_one(inactive) is not None:
                cgroup.vmstat.pgdeactivate += 1
            scans += 1
        pid, evictable = table.scan_tail(inactive)
        scans += 1
        if pid is None or not evictable:
            if pid is not None:
                cgroup.vmstat.pgactivate += 1
            return None, scans
        return pid, scans

    def _evict(
        self,
        cgroup: "Cgroup",
        pid: int,
        now: float,
        synchronous: bool,
        outcome: ReclaimOutcome,
    ) -> bool:
        """Evict an isolated page to its backend. Returns success.

        On failure (offload backend full, or a transient device fault
        on swap-out / dirty writeback) the page is put back on its
        active list and the caller falls back to the other pool.
        """
        table = self.mm.table
        page_size_bytes = cgroup.page_size_bytes
        if table.kind.item(pid) == FILE:
            if table.dirty.item(pid):
                # Write back *before* any eviction bookkeeping so a
                # device fault leaves the page fully intact (dirty,
                # resident, on its LRU) for a later pass to retry.
                self.mm.fs_op_count += 1
                try:
                    latency = self.mm.fs.store(
                        page_size_bytes, table.compressibility.item(pid),
                        now,
                    )
                except BackendFaultError:
                    self.mm.fs_fault_count += 1
                    table.link(pid, True)
                    return False
                cgroup.vmstat.pgwriteback += 1
                table.dirty[pid] = False
                if synchronous:
                    outcome.stall_seconds += latency
            table.shadow_stamp[pid] = cgroup.shadow.record_eviction(pid)
            table.state[pid] = EVICTED
            cgroup.vmstat.workingset_evict += 1
            cgroup.uncharge(FILE, page_size_bytes)
            outcome.reclaimed_file_bytes += page_size_bytes
        else:
            cpu_cost = self.mm.swap_out(pid, now)
            if cpu_cost is None:
                # Backend full: put the page back; it stays resident.
                table.link(pid, True)
                return False
            outcome.cpu_seconds += cpu_cost
            cgroup.uncharge(ANON, page_size_bytes)
            if table.state.item(pid) == SWAPPED:
                cgroup.swap_bytes += page_size_bytes
            else:
                cgroup.zswap_bytes += page_size_bytes
            cgroup.vmstat.pswpout += 1
            outcome.reclaimed_anon_bytes += page_size_bytes

        self.evictions += 1
        cgroup.vmstat.pgsteal += 1
        outcome.reclaimed_bytes += page_size_bytes
        return True
