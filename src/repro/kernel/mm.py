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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends.base import BackendFaultError, OffloadBackend
from repro.backends.filesystem import FilesystemBackend
from repro.backends.nvm import FarMemoryFullError
from repro.backends.ssd import SwapFullError
from repro.backends.zswap import ZswapPoolFullError
from repro.kernel.cgroup import Cgroup
from repro.kernel.page import ANON, FILE, RESIDENT, PageState, PageTable
from repro.kernel.reclaim import (
    Reclaimer,
    ReclaimOutcome,
    ReclaimPolicy,
    TmoReclaimPolicy,
)

#: CPU cost of submitting one async swap-out write, in seconds.
_SWAP_SUBMIT_COST_S = 5e-6

SWAPPED = int(PageState.SWAPPED)
ZSWAPPED = int(PageState.ZSWAPPED)
EVICTED = int(PageState.EVICTED)
ABSENT = int(PageState.ABSENT)

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
        page: the touched page's id.
        event: one of ``hit``, ``swapin``, ``zswapin``, ``refault``,
            ``file_read``, ``swapin_error``, ``fileread_error`` — what
            the access turned into. The ``*_error`` events mean a
            backend fault interrupted resolution: the page's state is
            unchanged and the next access retries.
        stall_seconds: total delay charged to the touching task.
        memstall: the delay counts toward memory pressure.
        iostall: the delay counts toward IO pressure.
    """

    page: int
    event: str
    stall_seconds: float = 0.0
    memstall: bool = False
    iostall: bool = False


class MemoryManager:
    """All memory-management state of one simulated host."""

    # The page table first: cgroups and workloads refer to pages by id.
    __state__ = (
        "table", "root", "_cgroups",
        "proactive_cpu_seconds", "retry_stall_s", "swap_op_count",
        "swap_fault_count", "fs_op_count", "fs_fault_count",
        "kswapd_low_frac", "kswapd_high_frac", "kswapd_reclaimed_bytes",
    )
    #: Sizes, backends and the reclaimer are fixed by the host config.
    __transient__ = (
        "ram_bytes", "page_size_bytes", "fs", "swap_backend", "reclaimer",
    )
    table: PageTable
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
        #: Every page's state, and the LRU lists (see repro.kernel.page).
        self.table = PageTable()
        self.root = Cgroup("root", page_size_bytes=page_size_bytes)
        self._cgroups = {"root": self.root}
        self.table.fit_cgroups(1)
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
            index=len(self._cgroups),
        )
        self._cgroups[name] = cgroup
        self.table.fit_cgroups(len(self._cgroups))
        return cgroup

    def cgroup(self, name: str) -> Cgroup:
        return self._cgroups[name]

    def cgroups(self) -> List[Cgroup]:
        return list(self._cgroups.values())

    def _owner(self, pid: int) -> Cgroup:
        """The cgroup a live page is charged to."""
        return self.cgroups()[self.table.cgroup.item(pid)]

    def pages(self, cgroup_name: Optional[str] = None) -> np.ndarray:
        """Ids of all live pages, optionally of one cgroup, ascending.

        Used by profiling tools (coldness histograms); the fault path
        never iterates this.
        """
        owners = self.table.cgroup[:self.table.npages]
        if cgroup_name is None:
            return np.flatnonzero(owners >= 0)
        return np.flatnonzero(owners == self._cgroups[cgroup_name].index)

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

    def _allocate(
        self,
        cgroup: Cgroup,
        npages: int,
        kind: int,
        now: float,
        dirty: bool,
        compressibility: Optional[float],
    ) -> Tuple[np.ndarray, float]:
        """Charge ``npages`` new resident pages, each entering the
        inactive head; returns ``(ids, stall_seconds)``.

        Page by page, the charge may enter direct reclaim first. The
        pages that fit under every limit and in free DRAM need none, so
        they are added in one run; only the page that does not fit
        takes the reclaim path, alone. An OOM releases the pages already
        allocated rather than leaking untracked charges.
        """
        table = self.table
        psize = self.page_size_bytes
        if compressibility is None:
            compressibility = cgroup.compressibility
        first = table.npages  # reclaim adds no pages: the ids are a range
        stall = 0.0
        left = npages
        try:
            while left > 0:
                room = self.free_bytes()
                limit = self._tightest_limit(cgroup)
                if limit is not None:
                    room = min(room, limit[1])
                run = min(left, max(0, room // psize))
                if run == 0:
                    stall += self._charge_with_reclaim(cgroup, now)
                    run = 1
                ids = table.add(
                    run, cgroup.index, kind, RESIDENT, dirty,
                    compressibility, now,
                )
                cgroup.charge(kind, run * psize)
                table.link_new(ids, cgroup.index, kind)
                left -= run
        except OutOfMemoryError:
            for pid in range(first, table.npages):
                self.release_page(pid)
            raise
        return np.arange(first, table.npages, dtype=np.int64), stall

    def alloc_anon(
        self,
        cgroup_name: str,
        npages: int,
        now: float,
        compressibility: Optional[float] = None,
    ) -> Tuple[np.ndarray, float]:
        """Allocate anonymous pages; returns ``(page_ids, stall_seconds)``.

        The charge path may enter direct reclaim, whose cost is the
        returned stall (a memory stall for the allocating task).
        """
        return self._allocate(
            self._cgroups[cgroup_name], npages, ANON, now, False,
            compressibility,
        )

    def register_file(
        self,
        cgroup_name: str,
        npages: int,
        now: float,
        resident: bool = False,
        dirty: bool = False,
        compressibility: Optional[float] = None,
    ) -> Tuple[np.ndarray, float]:
        """Declare file-backed pages; returns ``(page_ids, stall_seconds)``.

        With ``resident=False`` the pages start on disk (first touch
        reads them in); with ``resident=True`` they are preloaded into
        the page cache (Web's start-up behaviour in Section 4.2).
        """
        cgroup = self._cgroups[cgroup_name]
        if resident:
            return self._allocate(
                cgroup, npages, FILE, now, dirty, compressibility
            )
        ids = self.table.add(
            npages, cgroup.index, FILE, ABSENT, False,
            cgroup.compressibility if compressibility is None
            else compressibility,
            now,
        )
        return ids, 0.0

    def mark_dirty(self, page_ids: np.ndarray) -> None:
        """Mark file pages dirty: their eviction needs writeback."""
        self.table.dirty[page_ids] = True

    def touch(self, pid: int, now: float) -> FaultResult:
        """Access one page, resolving whatever fault its state implies."""
        pid = int(pid)
        table = self.table
        table.last_access[pid] = now
        state = table.state.item(pid)
        if state == RESIDENT:
            table.hit(np.array([pid]), now)
            return FaultResult(page=pid, event="hit")

        cgroup = self._owner(pid)
        compressibility = table.compressibility.item(pid)
        if state == ZSWAPPED or state == SWAPPED:
            on_disk = state == SWAPPED
            stall = self._charge_with_reclaim(cgroup, now)
            self.swap_op_count += 1
            try:
                latency = self.swap_backend.load(
                    self.page_size_bytes, compressibility, now, page_id=pid,
                )
            except BackendFaultError:
                # Refault-with-retry: the page is still safely in the
                # pool or on the swap device with its bytes accounted —
                # nothing was mutated — so the next access simply
                # retries. The task eats a retry stall (memory, plus IO
                # when the page is on disk).
                self.swap_fault_count += 1
                return FaultResult(
                    page=pid, event="swapin_error",
                    stall_seconds=stall + self.retry_stall_s,
                    memstall=True, iostall=on_disk,
                )
            self.swap_backend.free(
                self.page_size_bytes, compressibility, page_id=pid
            )
            if on_disk:
                cgroup.swap_bytes -= self.page_size_bytes
            else:
                cgroup.zswap_bytes -= self.page_size_bytes
            table.state[pid] = RESIDENT
            cgroup.charge(ANON, self.page_size_bytes)
            table.link(pid, True)
            cgroup.vmstat.pswpin += 1
            cgroup.vmstat.pgmajfault += 1
            return FaultResult(
                page=pid, event="swapin" if on_disk else "zswapin",
                stall_seconds=stall + latency, memstall=True,
                iostall=on_disk,
            )

        # EVICTED or ABSENT file page: read from the filesystem.
        stall = self._charge_with_reclaim(cgroup, now)
        self.fs_op_count += 1
        try:
            latency = self.fs.load(self.page_size_bytes, compressibility, now)
        except BackendFaultError:
            # Failed read: page stays EVICTED/ABSENT (its backing copy
            # is intact); the next access retries the read.
            self.fs_fault_count += 1
            return FaultResult(
                page=pid, event="fileread_error",
                stall_seconds=stall + self.retry_stall_s,
                memstall=False, iostall=True,
            )
        distance = cgroup.shadow.reuse_distance(pid)
        if distance is not None and distance >= 1:
            cgroup.record_reuse_distance(distance)
        refault = cgroup.shadow.consume(pid, cgroup.resident_pages)
        table.state[pid] = RESIDENT
        table.shadow_stamp[pid] = -1
        cgroup.charge(FILE, self.page_size_bytes)
        cgroup.vmstat.pgpgin_file += 1
        cgroup.vmstat.pgmajfault += 1
        table.link(pid, refault)
        if refault:
            cgroup.vmstat.workingset_refault += 1
            return FaultResult(
                page=pid, event="refault",
                stall_seconds=stall + latency, memstall=True, iostall=True,
            )
        return FaultResult(
            page=pid, event="file_read",
            stall_seconds=stall + latency, memstall=False, iostall=True,
        )

    def touch_batch(
        self,
        pages: np.ndarray,
        indices: np.ndarray,
        now: float,
    ) -> Tuple[Dict[str, int], float, float, float, int, bool]:
        """Access ``pages[i]`` for each ``i`` in ``indices``, aggregated.

        ``pages`` is an array of page ids. Precondition: ``indices``
        names no page twice (workloads draw them from ``np.nonzero``;
        trace replay refuses events that repeat one), so each run of
        resident hits between two faults settles in one
        :meth:`PageTable.hit`. Semantically identical to calling
        :meth:`touch` per index in order — same fault resolution, same
        device/RNG streams, same "OOM abandons the rest of the quantum"
        behaviour. Only the non-resident pages take :meth:`touch`; when
        a fault's reclaim evicts pages, the residency of the indices
        still to come is read again.

        Returns ``(events, stall_mem_s, stall_io_s, stall_both_s,
        work_done, oom)`` with events counted in encounter order (hits
        last) and each fault's stall bucketed by the pressure it
        contributes to (the :class:`~repro.workloads.base.TickResult`
        buckets).
        """
        table = self.table
        ids = pages[indices]
        events: Dict[str, int] = {}
        stall_mem = stall_io = stall_both = 0.0
        work_done = 0
        hits = 0
        oom = False
        faults = (table.state[ids] != RESIDENT).nonzero()[0].tolist()
        start = 0
        i = 0
        while i < len(faults):
            pos = faults[i]
            if pos > start:
                table.hit(ids[start:pos], now)
                hits += pos - start
            start = pos + 1
            evictions = self.reclaimer.evictions
            try:
                result = self.touch(ids[pos], now)
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
            i += 1
            if self.reclaimer.evictions != evictions:
                # Reclaim may have evicted pages still to be touched.
                faults = (start + (
                    table.state[ids[start:]] != RESIDENT
                ).nonzero()[0]).tolist()
                i = 0
        else:
            if start < len(ids):
                table.hit(ids[start:], now)
                hits += len(ids) - start
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

    def swap_out(self, pid: int, now: float) -> Optional[float]:
        """Offload one anonymous page; returns CPU seconds or None if full.

        Swap writes are submitted asynchronously (the reclaiming context
        does not wait for the device), so only the submit/compress CPU
        cost is returned.
        """
        backend = self.swap_backend
        if backend is None:
            return None
        cgroup = self._owner(pid)
        if cgroup.swap_max is not None:
            used = cgroup.swap_bytes + cgroup.zswap_bytes
            if used + self.page_size_bytes > cgroup.swap_max:
                return None  # memory.swap.max reached: fall back to file
        table = self.table
        age_s = max(0.0, now - table.last_access.item(pid))
        self.swap_op_count += 1
        try:
            cost = backend.store(
                self.page_size_bytes, table.compressibility.item(pid), now,
                page_id=pid, age_s=age_s,
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
            on_disk = tier_of(pid) == "ssd"
        else:
            on_disk = backend.blocks_on_io
        if on_disk:
            table.state[pid] = SWAPPED
            return _SWAP_SUBMIT_COST_S
        table.state[pid] = ZSWAPPED
        return cost  # compression CPU

    # ------------------------------------------------------------------
    # lifecycle helpers

    def release_page(self, pid: int) -> None:
        """Free a page entirely (application exit / cache truncation).

        Releasing a page twice is a no-op.
        """
        pid = int(pid)
        table = self.table
        if table.cgroup.item(pid) < 0:
            return
        cgroup = self._owner(pid)
        state = table.state.item(pid)
        if state == RESIDENT:
            table.unlink(pid)
            cgroup.uncharge(table.kind.item(pid), self.page_size_bytes)
        elif state == SWAPPED or state == ZSWAPPED:
            self.swap_backend.free(
                self.page_size_bytes, table.compressibility.item(pid),
                page_id=pid,
            )
            if state == SWAPPED:
                cgroup.swap_bytes -= self.page_size_bytes
            else:
                cgroup.zswap_bytes -= self.page_size_bytes
        elif state == EVICTED:
            cgroup.shadow.forget(pid)
        table.state[pid] = ABSENT
        table.cgroup[pid] = -1

    def release_cgroup_pages(self, cgroup_name: str) -> int:
        """Drop every page of a cgroup (container restart). Returns count."""
        doomed = self.pages(cgroup_name).tolist()
        for pid in doomed:
            self.release_page(pid)
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
