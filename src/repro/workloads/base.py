"""The generic workload driver.

A :class:`Workload` owns the pages of one application container and
drives accesses against the memory manager every tick. It reports how
much of the tick its threads spent stalled (split by pressure kind) plus
the fault events that occurred — everything the host needs to feed PSI
and the experiment metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.kernel.mm import MemoryManager, OutOfMemoryError
from repro.sim.rng import derive_rng
from repro.workloads.access import (
    assign_reaccess_intervals,
    cumulative_rates,
    touch_probability,
)
from repro.workloads.apps import AppProfile

_GB = 1 << 30

#: Populations at least this large pick their touches by superposed
#: Poisson sampling, smaller ones by one uniform per page. The per-page
#: draw costs ~4.5 ns a page; the superposed draw ~45 ns a touch (the
#: binary search into the rate table) plus a few microseconds of extra
#: numpy calls. One tick's selection with Feed's heat bands, CPython
#: 3.11 / numpy 2.4, per-page vs superposed: 4.2 vs 6.3 us at 250
#: pages, 12.9 vs 12.4 at 2,000, 21.4 vs 19.2 at 4,000, 154.5 vs 116.6
#: at 31,129. Colder populations (Web's bands) break even lower, near
#: 1,500; the hottest (Cache B, ~6% of pages touched a tick) only near
#: 4,000, and win 173 vs 145 us at 31,129. The constant sits at the
#: hottest profile's break-even, so no profile pays for the switch, and
#: hosts of a few thousand pages (fleetd's, the chaos storms') keep the
#: per-page draw.
_SUPERPOSE_MIN_PAGES = 4096


@dataclass
class TickResult:
    """What one workload did during one tick.

    Stall buckets are wall-seconds of thread delay, split by which
    pressure they contribute to:

    * ``stall_mem_s`` — memory-only stalls (zswap loads, direct reclaim).
    * ``stall_io_s`` — IO-only stalls (cold file reads).
    * ``stall_both_s`` — stalls that are both (refaults, SSD swap-ins).
    """

    name: str
    cpu_seconds: float = 0.0
    stall_mem_s: float = 0.0
    stall_io_s: float = 0.0
    stall_both_s: float = 0.0
    events: Dict[str, int] = field(default_factory=dict)
    #: Application-level throughput this tick (requests for Web; touched
    #: pages otherwise).
    work_done: float = 0.0
    #: The workload hit an out-of-memory condition this tick.
    oom: bool = False

    @property
    def total_stall_s(self) -> float:
        return self.stall_mem_s + self.stall_io_s + self.stall_both_s

    def count(self, event: str) -> int:
        return self.events.get(event, 0)

    def _record(self, event: str) -> None:
        self.events[event] = self.events.get(event, 0) + 1


class Workload:
    """Drives one application's memory accesses.

    The page population is built from the profile's size, anon/file split
    and heat bands; each tick every page is touched independently with
    probability ``1 - exp(-dt/interval)`` and the resulting faults are
    resolved through the memory manager.

    A small population draws one uniform per page. From
    :data:`_SUPERPOSE_MIN_PAGES` pages on, the tick instead draws the
    events of the pages' superposed Poisson process: ``K ~ Poisson(dt *
    sum(1/interval))`` events, each placed on a page in proportion to
    its rate, and touches the distinct pages hit. Per-page event counts
    of that process are independent ``Poisson(dt/interval)`` (the
    marking theorem), so each page is touched with exactly the same
    probability, independently across pages and ticks, while the cost
    follows the touches (O(touched log pages)) rather than the
    population. Either way the touched pages come out in random order.
    """

    # Snapshot state (repro.checkpoint.state); the memory manager is a
    # reference into the host's, the pages are its page ids.
    __state__ = (
        "mm", "profile", "cgroup_name", "_rng", "_pages", "_intervals",
        "_growth_carry", "_pending_spike_pages", "started",
        "_initial_pages",
    )
    __transient__ = ("_plan", "_plan_for", "_plan_dt")
    mm: MemoryManager
    profile: AppProfile
    _rng: np.random.Generator
    _pages: np.ndarray
    _intervals: np.ndarray

    # Touch-selection plan, a pure function of ``_intervals`` and so
    # never snapshotted: the pages' touch probabilities at ``_plan_dt``
    # for a small population, their cumulative re-access rates
    # (``_plan_dt`` None; dt enters at sampling) for a large one. Valid
    # while the interval array object and the key are unchanged. Paths
    # that replace ``_intervals`` (start, restart, resize) are caught by
    # the identity check; growth extends a rate table in place of a
    # rebuild, bit for bit the same; in-place mutation
    # (shift_workingset) invalidates explicitly. The empty plan is a
    # class default, so a workload restored from a snapshot (built
    # without __init__) rebuilds it on its first tick.
    _plan = np.empty(0)
    _plan_for: object = None
    _plan_dt: Optional[float] = -1.0

    def __init__(
        self,
        mm: MemoryManager,
        profile: AppProfile,
        cgroup_name: str,
        seed: int,
    ) -> None:
        self.mm = mm
        self.profile = profile
        self.cgroup_name = cgroup_name
        self._rng = derive_rng(seed, f"workload:{profile.name}:{cgroup_name}")
        self._pages = np.empty(0, dtype=np.int64)
        self._intervals = np.empty(0)
        self._growth_carry = 0.0
        self._pending_spike_pages = 0
        self.started = False
        #: Population at start; growth models scale off this, not the
        #: (unscaled) profile footprint.
        self._initial_pages: Optional[int] = None

    # ------------------------------------------------------------------

    @property
    def page_size_bytes(self) -> int:
        return self.mm.page_size_bytes

    @property
    def pages(self) -> np.ndarray:
        """The ids of the workload's page population (all states)."""
        return self._pages

    def size_pages(self) -> int:
        """Nominal page count from the profile's footprint."""
        return max(1, int(self.profile.size_gb * _GB / self.page_size_bytes))

    def start(self, now: float, size_scale: float = 1.0) -> None:
        """Allocate the initial page population.

        Args:
            now: virtual time.
            size_scale: multiplier on the profile footprint, letting
                small test hosts run the same profiles.
        """
        if self.started:
            raise RuntimeError(f"workload {self.profile.name!r} already started")
        n_total = max(2, int(self.size_pages() * size_scale))
        n_anon = int(round(n_total * self.profile.anon_frac))
        n_file = n_total - n_anon

        anon_pages, _ = self.mm.alloc_anon(
            self.cgroup_name, n_anon, now,
            compressibility=self.profile.compress_ratio,
        )
        file_pages, _ = self.mm.register_file(
            self.cgroup_name, n_file, now,
            resident=self.profile.file_preload,
            compressibility=self.profile.compress_ratio,
        )
        dirty_count = int(round(n_file * self.profile.dirty_file_frac))
        self.mm.mark_dirty(file_pages[:dirty_count])
        self._pages = np.concatenate([anon_pages, file_pages])
        self._intervals = assign_reaccess_intervals(
            len(self._pages), self.profile.bands, self._rng,
            never_share=self.profile.cold_never_share,
        )
        self._initial_pages = len(self._pages)
        self.started = True

    def restart(self, now: float) -> None:
        """Container restart (e.g. a code push): drop and rebuild state.

        A restart into a host that cannot absorb the full footprint
        (say, memory exhausted while the swap device is down) comes
        back up smaller — the container manager's behaviour after an
        OOM kill during startup — rather than crashing the host.
        """
        scale = len(self._pages) / max(1, self.size_pages())
        while True:
            self.mm.release_cgroup_pages(self.cgroup_name)
            self._pages = np.empty(0, dtype=np.int64)
            self._intervals = np.empty(0)
            self.started = False
            try:
                self.start(now, size_scale=scale)
                return
            except OutOfMemoryError:
                if max(2, int(self.size_pages() * scale)) <= 2:
                    raise  # even a minimal population will not fit
                scale /= 2.0

    # ------------------------------------------------------------------

    def _accumulate(self, result, tick: TickResult) -> None:
        """Fold one fault result into the tick's stall buckets."""
        tick._record(result.event)
        if result.stall_seconds <= 0:
            return
        if result.memstall and result.iostall:
            tick.stall_both_s += result.stall_seconds
        elif result.memstall:
            tick.stall_mem_s += result.stall_seconds
        elif result.iostall:
            tick.stall_io_s += result.stall_seconds

    def _grow(self, now: float, dt: float, tick: TickResult) -> None:
        """Steady anonymous growth, if the profile has any."""
        rate = self.profile.growth_gb_per_hour * _GB / 3600.0
        if rate <= 0:
            return
        self._growth_carry += rate * dt / self.page_size_bytes
        n_new = int(self._growth_carry)
        if n_new == 0:
            return
        self._growth_carry -= n_new
        self._allocate_more(n_new, now, tick)

    def _allocate_more(self, n_new: int, now: float, tick: TickResult) -> int:
        """Allocate ``n_new`` anon pages, tolerating OOM. Returns count."""
        try:
            new_pages, stall = self.mm.alloc_anon(
                self.cgroup_name, n_new, now,
                compressibility=self.profile.compress_ratio,
            )
        except OutOfMemoryError:
            tick.oom = True
            return 0
        tick.stall_mem_s += stall
        new_intervals = assign_reaccess_intervals(
            len(new_pages), self.profile.bands, self._rng,
            never_share=self.profile.cold_never_share,
        )
        old = self._intervals
        self._pages = np.concatenate([self._pages, new_pages])
        self._intervals = np.concatenate([old, new_intervals])
        if self._plan_for is old and self._plan_dt is None:
            self._plan = np.concatenate([
                self._plan, cumulative_rates(new_intervals, self._plan[-1]),
            ])
            self._plan_for = self._intervals
        return len(new_pages)

    def request_spike(self, grow_frac: float) -> int:
        """Queue a sudden footprint spike (``grow_frac`` of the current
        population in new anonymous pages).

        The allocation happens during the next :meth:`tick`, so its
        stalls — and an OOM, if the host cannot absorb the spike — are
        attributed to the workload exactly like organic growth. Returns
        the number of pages queued.
        """
        if grow_frac < 0.0:
            raise ValueError(f"grow_frac must be >= 0, got {grow_frac}")
        n_new = int(len(self._pages) * grow_frac)
        self._pending_spike_pages += n_new
        return n_new

    def shift_workingset(self, frac: float, now: float) -> int:
        """A working-set transition: re-deal the heat of ``frac`` of the
        page population.

        Section 3.2's critique of low-level metrics: a transition makes
        major-fault counts spike (the newly hot pages stream in from
        disk or swap) without the host being short on memory. Returns
        the number of pages whose heat changed.
        """
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"frac must be in [0,1], got {frac}")
        n = int(len(self._pages) * frac)
        if n == 0:
            return 0
        chosen = self._rng.choice(len(self._pages), size=n, replace=False)
        fresh = assign_reaccess_intervals(
            n, self.profile.bands, self._rng,
            never_share=self.profile.cold_never_share,
        )
        self._intervals[chosen] = fresh
        self._plan_for = None  # in-place heat change: drop the plan
        return n

    def _touch_plan(self, dt: Optional[float]) -> np.ndarray:
        """The cached plan for key ``dt`` (None: the rate table)."""
        if self._plan_for is not self._intervals or self._plan_dt != dt:
            self._plan = (
                cumulative_rates(self._intervals) if dt is None
                else touch_probability(self._intervals, dt)
            )
            self._plan_for = self._intervals
            self._plan_dt = dt
        return self._plan

    def _select_touches(self, dt: float) -> np.ndarray:
        """Choose which page indices get touched this quantum.

        Separated from execution so traces can be recorded and replayed
        (see :mod:`repro.workloads.trace`). The indices are distinct, as
        :meth:`MemoryManager.touch_batch` requires, and shuffled: one
        draw per page below :data:`_SUPERPOSE_MIN_PAGES`, the distinct
        pages hit by the superposed process's events above it.
        """
        rng = self._rng
        if len(self._pages) < _SUPERPOSE_MIN_PAGES:
            mask = rng.random(len(self._pages)) < self._touch_plan(dt)
            touched = np.nonzero(mask)[0]
        else:
            cum = self._touch_plan(None)
            total = cum[-1]
            events = rng.random(rng.poisson(dt * total))
            events.sort()
            events *= total
            touched = cum.searchsorted(events, side="right")
            if len(touched) and touched[-1] == len(cum):
                # An event rounded up onto the axis' end: it belongs to
                # the last page with a nonzero rate.
                touched[touched == len(cum)] = cum.searchsorted(total)
            if len(touched) > 1:  # sorted, so repeats are adjacent
                first = np.empty(len(touched), dtype=bool)
                first[0] = True
                np.not_equal(touched[1:], touched[:-1], out=first[1:])
                touched = touched[first]
        rng.shuffle(touched)
        return touched

    def tick(self, now: float, dt: float) -> TickResult:
        """Run one quantum: touch pages, resolve faults, grow."""
        if not self.started:
            raise RuntimeError(
                f"workload {self.profile.name!r} was never started"
            )
        tick = TickResult(name=self.profile.name)
        tick.cpu_seconds = self.profile.cpu_cores * dt

        touched = self._select_touches(dt)
        # Batched fault resolution: one call resolves the whole quantum.
        # On OOM the memory manager abandons the rest of the quantum's
        # touches (the app is thrashing, not progressing) and the tick
        # reports OOM.
        events, mem_s, io_s, both_s, work_done, oom = self.mm.touch_batch(
            self._pages, touched, now
        )
        tick.events.update(events)
        tick.stall_mem_s += mem_s
        tick.stall_io_s += io_s
        tick.stall_both_s += both_s
        if oom:
            tick.oom = True
        tick.work_done = float(work_done)

        self._grow(now, dt, tick)
        if self._pending_spike_pages > 0:
            n_spike = self._pending_spike_pages
            self._pending_spike_pages = 0
            self._allocate_more(n_spike, now, tick)
        return tick

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(profile={self.profile.name!r}, "
            f"cgroup={self.cgroup_name!r}, pages={len(self._pages)})"
        )
