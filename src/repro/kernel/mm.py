"""The memory-management front end.

:class:`MemoryManager` ties together the cgroup tree, the LRU/reclaim
machinery, the offload backends and the physical DRAM budget of one host.
It exposes the operations workloads and controllers exercise:

* page allocation and touching (the fault path),
* the ``memory.max`` and ``memory.reclaim`` control files,
* direct reclaim when charges exceed a limit or DRAM runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.base import BackendFaultError, OffloadBackend
from repro.backends.filesystem import FilesystemBackend
from repro.backends.nvm import FarMemoryFullError
from repro.backends.ssd import SwapFullError
from repro.backends.zswap import ZswapPoolFullError
from repro.kernel.cgroup import Cgroup
from repro.kernel.page import Page, PageKind, PageState
from repro.kernel.reclaim import (
    Reclaimer,
    ReclaimOutcome,
    ReclaimPolicy,
    TmoReclaimPolicy,
)

#: CPU cost of submitting one async swap-out write, in seconds.
_SWAP_SUBMIT_COST_S = 5e-6

#: Stall charged to a task whose fault could not be resolved because the
#: backend errored: the kernel's retry path (wait, re-queue, re-issue)
#: costs on the order of an IO timeout slice. The page is untouched and
#: the next access retries.
_FAULT_RETRY_STALL_S = 2e-3


class OutOfMemoryError(RuntimeError):
    """Raised when a charge cannot be satisfied even after reclaim."""


@dataclass
class FaultResult:
    """Outcome of touching one page.

    Attributes:
        page: the touched page.
        event: one of ``hit``, ``swapin``, ``zswapin``, ``refault``,
            ``file_read``, ``swapin_error``, ``fileread_error`` — what
            the access turned into. The ``*_error`` events mean a
            backend fault interrupted resolution: the page's state is
            unchanged and the next access retries.
        stall_seconds: total delay charged to the touching task.
        memstall: the delay counts toward memory pressure.
        iostall: the delay counts toward IO pressure.
    """

    page: Page
    event: str
    stall_seconds: float = 0.0
    memstall: bool = False
    iostall: bool = False


class MemoryManager:
    """All memory-management state of one simulated host."""

    # Pages first: cgroup LRU lists and workloads refer to them by id.
    __state__ = (
        "_pages", "root", "_cgroups", "_next_page_id",
        "proactive_cpu_seconds", "retry_stall_s", "swap_op_count",
        "swap_fault_count", "fs_op_count", "fs_fault_count",
        "kswapd_low_frac", "kswapd_high_frac", "kswapd_reclaimed_bytes",
    )
    #: Sizes, backends and the reclaimer are fixed by the host config.
    __transient__ = (
        "ram_bytes", "page_size_bytes", "fs", "swap_backend", "reclaimer",
    )
    _pages: Dict[int, Page]
    root: Cgroup
    _cgroups: Dict[str, Cgroup]

    def __init__(
        self,
        ram_bytes: int,
        page_size_bytes: int,
        fs: FilesystemBackend,
        swap_backend: Optional[OffloadBackend] = None,
        policy: Optional[ReclaimPolicy] = None,
    ) -> None:
        """
        Args:
            ram_bytes: physical DRAM of the host.
            page_size_bytes: bytes represented by one simulated page (the
                granularity scale knob; all rates are in bytes/sec so
                results are granularity-independent).
            fs: the filesystem backend serving file pages.
            swap_backend: where anonymous pages offload to — an
                :class:`~repro.backends.ssd.SsdSwapBackend`, a
                :class:`~repro.backends.zswap.ZswapBackend`, or None for
                file-only mode (Section 5.1's first deployment phase).
            policy: reclaim balancing policy; TMO's by default.
        """
        if ram_bytes <= 0 or page_size_bytes <= 0:
            raise ValueError("ram_bytes and page_size_bytes must be positive")
        if ram_bytes < page_size_bytes:
            raise ValueError("host RAM smaller than one page")
        self.ram_bytes = ram_bytes
        self.page_size_bytes = page_size_bytes
        self.fs = fs
        self.swap_backend = swap_backend
        self.root = Cgroup("root", page_size_bytes=page_size_bytes)
        self._cgroups = {"root": self.root}
        self._pages = {}
        self._next_page_id = 0
        self.reclaimer = Reclaimer(self, policy or TmoReclaimPolicy())
        #: CPU seconds consumed by proactive (controller-driven) reclaim.
        self.proactive_cpu_seconds = 0.0
        #: Stall charged per backend-fault retry (tunable for tests).
        self.retry_stall_s = _FAULT_RETRY_STALL_S
        #: Swap-backend operation attempts and transient-fault failures.
        #: Controllers (Senpai's circuit breaker) diff these between
        #: polls to detect a failing offload backend.
        self.swap_op_count = 0
        self.swap_fault_count = 0
        #: Same counters for the filesystem device.
        self.fs_op_count = 0
        self.fs_fault_count = 0
        #: kswapd watermarks: background reclaim starts when free memory
        #: drops under ``low`` and works back up to ``high``. Keeps the
        #: allocation path out of (blocking) direct reclaim for as long
        #: as possible, like the kernel's background reclaim daemon.
        self.kswapd_low_frac = 0.02
        self.kswapd_high_frac = 0.04
        #: Cumulative bytes reclaimed in the background.
        self.kswapd_reclaimed_bytes = 0

    # ------------------------------------------------------------------
    # cgroup management

    def create_cgroup(
        self,
        name: str,
        parent: str = "root",
        compressibility: float = 3.0,
    ) -> Cgroup:
        """Create a cgroup under ``parent``."""
        if name in self._cgroups:
            raise ValueError(f"cgroup {name!r} already exists")
        cgroup = Cgroup(
            name,
            page_size_bytes=self.page_size_bytes,
            parent=self._cgroups[parent],
            compressibility=compressibility,
        )
        self._cgroups[name] = cgroup
        return cgroup

    def cgroup(self, name: str) -> Cgroup:
        return self._cgroups[name]

    def cgroups(self) -> List[Cgroup]:
        return list(self._cgroups.values())

    def pages(self, cgroup_name: Optional[str] = None) -> List[Page]:
        """All live pages, optionally filtered to one cgroup.

        Used by profiling tools (idle-page tracking, coldness
        histograms); the fault path never iterates this.
        """
        if cgroup_name is None:
            return list(self._pages.values())
        return [p for p in self._pages.values() if p.cgroup == cgroup_name]

    # ------------------------------------------------------------------
    # capacity accounting

    @property
    def zswap_pool_bytes(self) -> int:
        if self.swap_backend is None:
            return 0
        return self.swap_backend.dram_overhead_bytes

    def used_bytes(self) -> int:
        """Physical DRAM in use: resident pages plus the zswap pool."""
        return self.root.current_bytes() + self.zswap_pool_bytes

    def free_bytes(self) -> int:
        return self.ram_bytes - self.used_bytes()

    def swap_available(self, nbytes: int) -> bool:
        """Whether the swap backend can absorb ``nbytes`` more."""
        backend = self.swap_backend
        if backend is None:
            return False
        free = getattr(backend, "free_bytes", None)
        if free is not None and free < nbytes:
            return False
        max_pool = getattr(backend, "max_pool_bytes", None)
        if max_pool is not None and backend.dram_overhead_bytes + nbytes > max_pool:
            return False
        return True

    # ------------------------------------------------------------------
    # control files

    def set_memory_max(
        self, cgroup_name: str, limit: Optional[int], now: float
    ) -> ReclaimOutcome:
        """Write ``memory.max``: lowering below usage reclaims the excess.

        The write blocks (synchronously reclaims) like the kernel's —
        this statefulness is exactly what made the early limit-based
        Senpai problematic (Section 3.3).
        """
        cgroup = self._cgroups[cgroup_name]
        cgroup.memory_max = limit
        outcome = ReclaimOutcome(requested_bytes=0)
        if limit is not None:
            excess = cgroup.current_bytes() - limit
            if excess > 0:
                outcome = self.reclaimer.reclaim(
                    cgroup, excess, now, synchronous=True
                )
        return outcome

    def memory_reclaim(
        self,
        cgroup_name: str,
        nr_bytes: int,
        now: float,
        file_only: bool = False,
    ) -> ReclaimOutcome:
        """Write ``memory.reclaim``: stateless proactive reclaim.

        The knob the paper added upstream — asks the kernel to reclaim
        exactly ``nr_bytes`` without touching any limit, so an expanding
        workload is never blocked.

        Args:
            file_only: restrict reclaim to the file LRU (deployment's
                file-only phase, or write-endurance regulation).
        """
        cgroup = self._cgroups[cgroup_name]
        outcome = self.reclaimer.reclaim(
            cgroup, nr_bytes, now, synchronous=False, file_only=file_only
        )
        self.proactive_cpu_seconds += outcome.cpu_seconds
        return outcome

    # ------------------------------------------------------------------
    # allocation and the fault path

    def _new_page(
        self,
        cgroup: Cgroup,
        kind: PageKind,
        state: PageState,
        now: float,
        dirty: bool,
        compressibility: Optional[float],
    ) -> Page:
        page = Page(
            page_id=self._next_page_id,
            kind=kind,
            cgroup=cgroup.name,
            state=state,
            dirty=dirty,
            compressibility=(
                cgroup.compressibility
                if compressibility is None
                else compressibility
            ),
            last_access=now,
        )
        self._next_page_id += 1
        self._pages[page.page_id] = page
        return page

    def alloc_anon(
        self,
        cgroup_name: str,
        npages: int,
        now: float,
        compressibility: Optional[float] = None,
    ) -> Tuple[List[Page], float]:
        """Allocate anonymous pages; returns ``(pages, stall_seconds)``.

        The charge path may enter direct reclaim, whose cost is the
        returned stall (a memory stall for the allocating task).
        """
        cgroup = self._cgroups[cgroup_name]
        pages: List[Page] = []
        stall = 0.0
        try:
            for _ in range(npages):
                stall += self._charge_with_reclaim(cgroup, now)
                page = self._new_page(
                    cgroup, PageKind.ANON, PageState.RESIDENT, now,
                    dirty=False, compressibility=compressibility,
                )
                cgroup.charge(PageKind.ANON, self.page_size_bytes)
                cgroup.lru[PageKind.ANON].insert_new(page)
                pages.append(page)
        except OutOfMemoryError:
            # Atomic semantics: an OOM mid-batch releases the pages
            # already allocated rather than leaking untracked charges.
            for page in pages:
                self.release_page(page)
            raise
        return pages, stall

    def register_file(
        self,
        cgroup_name: str,
        npages: int,
        now: float,
        resident: bool = False,
        dirty: bool = False,
        compressibility: Optional[float] = None,
    ) -> Tuple[List[Page], float]:
        """Declare file-backed pages.

        With ``resident=False`` the pages start on disk (first touch
        reads them in); with ``resident=True`` they are preloaded into
        the page cache (Web's start-up behaviour in Section 4.2).
        """
        cgroup = self._cgroups[cgroup_name]
        pages: List[Page] = []
        stall = 0.0
        try:
            for _ in range(npages):
                if resident:
                    stall += self._charge_with_reclaim(cgroup, now)
                    page = self._new_page(
                        cgroup, PageKind.FILE, PageState.RESIDENT, now,
                        dirty=dirty, compressibility=compressibility,
                    )
                    cgroup.charge(PageKind.FILE, self.page_size_bytes)
                    cgroup.lru[PageKind.FILE].insert_new(page)
                else:
                    page = self._new_page(
                        cgroup, PageKind.FILE, PageState.ABSENT, now,
                        dirty=False, compressibility=compressibility,
                    )
                pages.append(page)
        except OutOfMemoryError:
            for page in pages:
                self.release_page(page)
            raise
        return pages, stall

    def touch(self, page: Page, now: float) -> FaultResult:
        """Access one page, resolving whatever fault its state implies."""
        cgroup = self._cgroups[page.cgroup]
        page.last_access = now

        if page.state is PageState.RESIDENT:
            cgroup.lru[page.kind].touch(page)
            return FaultResult(page=page, event="hit")

        if page.state is PageState.ZSWAPPED:
            stall = self._charge_with_reclaim(cgroup, now)
            self.swap_op_count += 1
            try:
                latency = self.swap_backend.load(
                    self.page_size_bytes, page.compressibility, now,
                    page_id=page.page_id,
                )
            except BackendFaultError:
                # Refault-with-retry: the page stays ZSWAPPED and its
                # pool bytes stay accounted — nothing was mutated — so
                # the next access simply retries. The task eats a retry
                # stall (a memory stall: resolution is in-DRAM).
                self.swap_fault_count += 1
                return FaultResult(
                    page=page, event="swapin_error",
                    stall_seconds=stall + self.retry_stall_s,
                    memstall=True, iostall=False,
                )
            self.swap_backend.free(
                self.page_size_bytes, page.compressibility, page_id=page.page_id
            )
            cgroup.zswap_bytes -= self.page_size_bytes
            page.state = PageState.RESIDENT
            cgroup.charge(PageKind.ANON, self.page_size_bytes)
            cgroup.lru[PageKind.ANON].insert_active(page)
            cgroup.vmstat.pswpin += 1
            cgroup.vmstat.pgmajfault += 1
            return FaultResult(
                page=page, event="zswapin",
                stall_seconds=stall + latency, memstall=True, iostall=False,
            )

        if page.state is PageState.SWAPPED:
            stall = self._charge_with_reclaim(cgroup, now)
            self.swap_op_count += 1
            try:
                latency = self.swap_backend.load(
                    self.page_size_bytes, page.compressibility, now,
                    page_id=page.page_id,
                )
            except BackendFaultError:
                # Failed swap-in: the page is still safely on the swap
                # device, so keep it SWAPPED and let the next access
                # retry. Counts as memory+IO stall like the fault it
                # failed to resolve.
                self.swap_fault_count += 1
                return FaultResult(
                    page=page, event="swapin_error",
                    stall_seconds=stall + self.retry_stall_s,
                    memstall=True, iostall=True,
                )
            self.swap_backend.free(
                self.page_size_bytes, page.compressibility, page_id=page.page_id
            )
            cgroup.swap_bytes -= self.page_size_bytes
            page.state = PageState.RESIDENT
            cgroup.charge(PageKind.ANON, self.page_size_bytes)
            cgroup.lru[PageKind.ANON].insert_active(page)
            cgroup.vmstat.pswpin += 1
            cgroup.vmstat.pgmajfault += 1
            return FaultResult(
                page=page, event="swapin",
                stall_seconds=stall + latency, memstall=True, iostall=True,
            )

        # EVICTED or ABSENT file page: read from the filesystem.
        stall = self._charge_with_reclaim(cgroup, now)
        self.fs_op_count += 1
        try:
            latency = self.fs.load(
                self.page_size_bytes, page.compressibility, now
            )
        except BackendFaultError:
            # Failed read: page stays EVICTED/ABSENT (its backing copy
            # is intact); the next access retries the read.
            self.fs_fault_count += 1
            return FaultResult(
                page=page, event="fileread_error",
                stall_seconds=stall + self.retry_stall_s,
                memstall=False, iostall=True,
            )
        distance = cgroup.shadow.reuse_distance(page.page_id)
        if distance is not None and distance >= 1:
            cgroup.record_reuse_distance(distance)
        refault = cgroup.shadow.consume(
            page.page_id, cgroup.resident_pages
        )
        page.state = PageState.RESIDENT
        page.shadow_stamp = None
        cgroup.charge(PageKind.FILE, self.page_size_bytes)
        cgroup.vmstat.pgpgin_file += 1
        cgroup.vmstat.pgmajfault += 1
        if refault:
            cgroup.vmstat.workingset_refault += 1
            cgroup.lru[PageKind.FILE].insert_active(page)
            return FaultResult(
                page=page, event="refault",
                stall_seconds=stall + latency, memstall=True, iostall=True,
            )
        cgroup.lru[PageKind.FILE].insert_new(page)
        return FaultResult(
            page=page, event="file_read",
            stall_seconds=stall + latency, memstall=False, iostall=True,
        )

    def touch_batch(
        self,
        pages: Sequence[Page],
        indices: Sequence[int],
        now: float,
    ) -> Tuple[Dict[str, int], float, float, float, int, bool]:
        """Access ``pages[i]`` for each ``i`` in ``indices``, aggregated.

        Semantically identical to calling :meth:`touch` per index in
        order — same fault resolution, same device/RNG streams, same
        "OOM abandons the rest of the quantum" behaviour — but the
        resident-hit fast path skips the per-access :class:`FaultResult`
        allocation, which dominates workload tick time.

        Returns ``(events, stall_mem_s, stall_io_s, stall_both_s,
        work_done, oom)`` with events counted in encounter order and
        stalls bucketed the way :meth:`repro.workloads.base.Workload.
        _accumulate` buckets them.
        """
        events: Dict[str, int] = {}
        stall_mem = stall_io = stall_both = 0.0
        work_done = 0
        hits = 0
        oom = False
        cgroups = self._cgroups
        resident = PageState.RESIDENT
        anon = PageKind.ANON
        touch = self.touch
        # Per-cgroup LRU lookups are hoisted out of the loop (batches
        # are usually single-cgroup) and the LruSet referenced-bit
        # protocol is inlined: with ~every page hit every tick, the
        # per-touch method and enum-keyed dict costs dominate.
        last_cg: Optional[str] = None
        lru_anon = lru_file = None
        for idx in indices:
            page = pages[idx]
            if page.state is resident:
                page.last_access = now
                if page.cgroup != last_cg:
                    last_cg = page.cgroup
                    lru = cgroups[last_cg].lru
                    lru_anon = lru[PageKind.ANON]
                    lru_file = lru[PageKind.FILE]
                lruset = lru_anon if page.kind is anon else lru_file
                if page.active:
                    # Rotate to the active head.
                    page.referenced = True
                    od = lruset.active._pages
                    pid = page.page_id
                    od[pid] = page
                    od.move_to_end(pid)
                elif page.referenced:
                    # Second touch of an inactive page: promote.
                    del lruset.inactive._pages[page.page_id]
                    page.active = True
                    page.referenced = False
                    od = lruset.active._pages
                    pid = page.page_id
                    od[pid] = page
                    od.move_to_end(pid)
                else:
                    # First touch only sets the reference bit.
                    page.referenced = True
                hits += 1
                continue
            try:
                result = touch(page, now)
            except OutOfMemoryError:
                oom = True
                break
            events[result.event] = events.get(result.event, 0) + 1
            stall = result.stall_seconds
            if stall > 0:
                if result.memstall:
                    if result.iostall:
                        stall_both += stall
                    else:
                        stall_mem += stall
                elif result.iostall:
                    stall_io += stall
            work_done += 1
        if hits:
            events["hit"] = events.get("hit", 0) + hits
            work_done += hits
        return events, stall_mem, stall_io, stall_both, work_done, oom

    # ------------------------------------------------------------------
    # charge path / direct reclaim

    def _tightest_limit(self, cgroup: Cgroup) -> Optional[Tuple[Cgroup, int]]:
        """The most-constrained limited ancestor and its headroom."""
        tightest: Optional[Tuple[Cgroup, int]] = None
        node: Optional[Cgroup] = cgroup
        while node is not None:
            if node.memory_max is not None:
                room = node.memory_max - node.current_bytes()
                if tightest is None or room < tightest[1]:
                    tightest = (node, room)
            node = node.parent
        return tightest

    #: Direct reclaim retries with escalating targets before declaring
    #: OOM, mirroring the kernel's scan-priority escalation: a larger
    #: target buys a larger scan budget, which clears reference bits on
    #: a hot LRU tail until a victim emerges.
    _RECLAIM_PRIORITIES = (1, 4, 16, 64)

    def _direct_reclaim(
        self, target: Cgroup, headroom, now: float
    ) -> float:
        """Escalating synchronous reclaim until ``headroom()`` suffices.

        Returns the accumulated stall; raises when even the highest
        escalation makes no room.
        """
        stall = 0.0
        for factor in self._RECLAIM_PRIORITIES:
            need = max(self.page_size_bytes - headroom(), self.page_size_bytes)
            outcome = self.reclaimer.reclaim(
                target, need * factor, now, synchronous=True
            )
            stall += outcome.cpu_seconds + outcome.stall_seconds
            if headroom() >= self.page_size_bytes:
                return stall
        raise OutOfMemoryError(
            f"no reclaim progress against {target.name!r} "
            f"(host {self.used_bytes()}/{self.ram_bytes} bytes used)"
        )

    def _charge_with_reclaim(self, cgroup: Cgroup, now: float) -> float:
        """Make room for one page charge; return the stall incurred."""
        stall = 0.0
        limit = self._tightest_limit(cgroup)
        if limit is not None:
            limited, room = limit
            if room < self.page_size_bytes:
                cgroup.vmstat.direct_reclaim += 1
                stall += self._direct_reclaim(
                    limited,
                    lambda: limited.memory_max - limited.current_bytes(),
                    now,
                )
        if self.free_bytes() < self.page_size_bytes:
            cgroup.vmstat.direct_reclaim += 1
            stall += self._direct_reclaim(
                self.root, self.free_bytes, now
            )
        return stall

    # ------------------------------------------------------------------
    # backend operations

    def swap_out(self, page: Page, now: float) -> Optional[float]:
        """Offload one anonymous page; returns CPU seconds or None if full.

        Swap writes are submitted asynchronously (the reclaiming context
        does not wait for the device), so only the submit/compress CPU
        cost is returned.
        """
        backend = self.swap_backend
        if backend is None:
            return None
        cgroup = self._cgroups[page.cgroup]
        if cgroup.swap_max is not None:
            used = cgroup.swap_bytes + cgroup.zswap_bytes
            if used + self.page_size_bytes > cgroup.swap_max:
                return None  # memory.swap.max reached: fall back to file
        age_s = max(0.0, now - page.last_access)
        self.swap_op_count += 1
        try:
            cost = backend.store(
                self.page_size_bytes, page.compressibility, now,
                page_id=page.page_id, age_s=age_s,
            )
        except (SwapFullError, ZswapPoolFullError, FarMemoryFullError):
            return None
        except BackendFaultError:
            # The store never happened (backends issue the device op
            # before touching accounting), so the page simply stays
            # resident; reclaim falls back to the file LRU this pass.
            self.swap_fault_count += 1
            return None
        tier_of = getattr(backend, "tier_of", None)
        if tier_of is not None:
            on_disk = tier_of(page.page_id) == "ssd"
        else:
            on_disk = backend.blocks_on_io
        if on_disk:
            page.state = PageState.SWAPPED
            return _SWAP_SUBMIT_COST_S
        page.state = PageState.ZSWAPPED
        return cost  # compression CPU

    # ------------------------------------------------------------------
    # lifecycle helpers

    def release_page(self, page: Page) -> None:
        """Free a page entirely (application exit / cache truncation)."""
        cgroup = self._cgroups[page.cgroup]
        if page.state is PageState.RESIDENT:
            cgroup.lru[page.kind].remove(page)
            cgroup.uncharge(page.kind, self.page_size_bytes)
        elif page.state is PageState.SWAPPED:
            self.swap_backend.free(
                self.page_size_bytes, page.compressibility, page_id=page.page_id
            )
            cgroup.swap_bytes -= self.page_size_bytes
        elif page.state is PageState.ZSWAPPED:
            self.swap_backend.free(
                self.page_size_bytes, page.compressibility, page_id=page.page_id
            )
            cgroup.zswap_bytes -= self.page_size_bytes
        elif page.state is PageState.EVICTED:
            cgroup.shadow.forget(page.page_id)
        page.state = PageState.ABSENT
        self._pages.pop(page.page_id, None)

    def release_cgroup_pages(self, cgroup_name: str) -> int:
        """Drop every page of a cgroup (container restart). Returns count."""
        doomed = [
            p for p in self._pages.values() if p.cgroup == cgroup_name
        ]
        for page in doomed:
            self.release_page(page)
        return len(doomed)

    # ------------------------------------------------------------------
    # periodic maintenance

    def kswapd(self, now: float) -> int:
        """One background-reclaim pass; returns bytes reclaimed.

        Runs when free memory is below the low watermark, reclaiming
        toward the high watermark. Asynchronous: its cost is kernel CPU,
        never an application stall.
        """
        low = int(self.kswapd_low_frac * self.ram_bytes)
        high = int(self.kswapd_high_frac * self.ram_bytes)
        if self.free_bytes() >= low:
            return 0
        total = 0
        # Iterate: freeing a page into zswap grows the pool, so the net
        # free gain per reclaimed byte can be fractional.
        for _ in range(8):
            shortfall = high - self.free_bytes()
            if shortfall <= 0:
                break
            outcome = self.reclaimer.reclaim(
                self.root, shortfall, now, synchronous=False
            )
            self.proactive_cpu_seconds += outcome.cpu_seconds
            total += outcome.reclaimed_bytes
            if outcome.reclaimed_bytes == 0:
                break
        self.kswapd_reclaimed_bytes += total
        return total

    def on_tick(self, now: float, dt: float) -> None:
        """Advance device state, rate estimators and background reclaim."""
        self.fs.on_tick(now, dt)
        if self.swap_backend is not None:
            self.swap_backend.on_tick(now, dt)
        for cgroup in self._cgroups.values():
            cgroup.update_rates(dt)
        self.kswapd(now)
