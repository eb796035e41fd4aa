"""The generic workload driver.

A :class:`Workload` owns the pages of one application container and
drives accesses against the memory manager every tick. It reports how
much of the tick its threads spent stalled (split by pressure kind) plus
the fault events that occurred — everything the host needs to feed PSI
and the experiment metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernel.mm import MemoryManager, OutOfMemoryError
from repro.sim.rng import derive_rng
from repro.workloads.access import (
    alias_table,
    assign_reaccess_intervals,
    touch_probability,
)
from repro.workloads.apps import AppProfile

_GB = 1 << 30

#: Populations at least this large pick their touches by superposed
#: Poisson sampling through an alias table, smaller ones by one uniform
#: per page. The per-page draw costs ~4.5 ns a page; the alias draw a
#: few ns an event plus ~8 us of fixed numpy calls (sort, dedupe and
#: shuffle included). One tick's selection, per-page vs alias, CPython
#: 3.11 / numpy 2.4, 2 vCPUs: Feed's bands 4.0 vs 8.9 us at 250 pages,
#: 18.5 vs 10.6 at 2,000, 31.8 vs 13.6 at 4,000, 134.5 vs 50.4 at
#: 31,129; Web's 9.7 vs 9.2 at 2,000; Cache B's 12.1 vs 11.7 at 2,000
#: and 141.6 vs 61.8 at 31,129. So every profile breaks even near 1,000
#: to 2,000 pages now. The constant stays at 4,096 anyway: every
#: population below it keeps its RNG stream, so the CI host chaos
#: (plain and supervised), fleet and fleetd digests stay as they are.
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
    its rate by an alias table (:func:`alias_table`), and touches the
    distinct pages hit. Per-page event counts of that process are
    independent ``Poisson(dt/interval)`` (the marking theorem), so each
    page is touched with exactly the same probability, independently
    across pages and ticks, while the cost follows the touches (constant
    per event) rather than the population. Either way the touched pages
    come out in random order.

    The alias table covers a prefix of the population
    (:meth:`_prefix_pages`): the larger of the initial population and
    the largest multiple of :data:`_SUPERPOSE_MIN_PAGES` in the current
    one. The pages past it, fewer than :data:`_SUPERPOSE_MIN_PAGES`,
    draw one uniform each, so growth rebuilds the table only when the
    prefix moves.
    """

    # Snapshot state (repro.checkpoint.state); the memory manager is a
    # reference into the host's, the pages are its page ids.
    __state__ = (
        "mm", "profile", "cgroup_name", "_rng", "_pages", "_intervals",
        "_growth_carry", "_pending_spike_pages", "started",
        "_initial_pages",
    )
    __transient__ = ("_plan", "_plan_for", "_plan_key", "_table",
                     "_table_for")
    mm: MemoryManager
    profile: AppProfile
    _rng: np.random.Generator
    _pages: np.ndarray
    _intervals: np.ndarray

    # Touch-selection plan, a pure function of ``_intervals`` and the
    # population's length and ``_initial_pages``, so never snapshotted:
    # ``_table`` is the alias table over the prefix, ``_plan`` the touch
    # probabilities at ``dt`` of the pages past it, keyed by ``(prefix,
    # dt)``. Each is valid while ``_intervals`` is the array it was built
    # for. Paths that replace ``_intervals`` (start, restart, a release
    # from mid-population) are caught by the identity check; appending
    # pages or dropping tail pages leaves the prefix's intervals as they
    # were, so those paths carry the table over (``_keep_table``) and it
    # is rebuilt only when the prefix length moves; in-place mutation
    # (shift_workingset) invalidates explicitly. The empty plans are
    # class defaults, so a workload restored from a snapshot (built
    # without __init__) rebuilds them on its first tick.
    _plan = np.empty(0)
    _plan_for: object = None
    _plan_key: object = None
    _table: Tuple[np.ndarray, np.ndarray, float] = (
        np.empty(0), np.empty(0, dtype=np.int64), 0.0)
    _table_for: object = None

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
        self._keep_table(old)
        return len(new_pages)

    def _keep_table(self, old: np.ndarray) -> None:
        """Carry the alias table over from ``old`` to ``_intervals``,
        which must agree with it on every page both hold (pages were
        appended or dropped from the end). The prefix check in
        :meth:`_select_touches` rebuilds the table if its length moved."""
        if self._table_for is old:
            self._table_for = self._intervals

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
        # In-place heat change: drop both plans.
        self._plan_for = self._table_for = None
        return n

    def _prefix_pages(self) -> int:
        """How many leading pages the alias table covers: 0 below
        :data:`_SUPERPOSE_MIN_PAGES`, else the larger of the initial
        population and the largest multiple of the crossover that fits.
        A function of snapshot state only, so a restored workload covers
        the same prefix as the one that was saved."""
        n = len(self._intervals)
        if n < _SUPERPOSE_MIN_PAGES:
            return 0
        aligned = n - n % _SUPERPOSE_MIN_PAGES
        return min(n, max(aligned, self._initial_pages or 0))

    def _alias_plan(self, m: int) -> Tuple[np.ndarray, np.ndarray, float]:
        """The cached alias table over the first ``m`` pages."""
        if self._table_for is not self._intervals or len(self._table[0]) != m:
            self._table = alias_table(self._intervals[:m])
            self._table_for = self._intervals
        return self._table

    def _touch_plan(self, m: int, dt: float) -> np.ndarray:
        """The cached touch probabilities at ``dt`` of pages ``m`` on."""
        if self._plan_for is not self._intervals or self._plan_key != (m, dt):
            self._plan = touch_probability(self._intervals[m:], dt)
            self._plan_for = self._intervals
            self._plan_key = (m, dt)
        return self._plan

    def _select_touches(self, dt: float) -> np.ndarray:
        """Choose which page indices get touched this quantum.

        Separated from execution so traces can be recorded and replayed
        (see :mod:`repro.workloads.trace`). The indices are distinct, as
        :meth:`MemoryManager.touch_batch` requires, and shuffled: the
        distinct pages of the prefix hit by the superposed process's
        events, then one draw per page past the prefix (the whole
        population below :data:`_SUPERPOSE_MIN_PAGES`).
        """
        rng = self._rng
        n = len(self._pages)
        m = self._prefix_pages()
        if m:
            prob, alias, total = self._alias_plan(m)
            # u * m < m for every u < 1 (the product rounds down for m
            # not a power of two and is exact for one), so ``cell`` is a
            # valid index; the fraction left is the coin.
            spot = rng.random(rng.poisson(dt * total))
            spot *= m
            cell = spot.astype(np.intp)
            spot -= cell
            touched = np.where(spot < prob[cell], cell, alias[cell])
            if len(touched) > 1:
                touched.sort()  # repeats become adjacent
                first = np.empty(len(touched), dtype=bool)
                first[0] = True
                np.not_equal(touched[1:], touched[:-1], out=first[1:])
                touched = touched[first]
            if m < n:
                tail = np.nonzero(rng.random(n - m) < self._touch_plan(m, dt))[0]
                touched = np.concatenate([touched, tail + m])
        else:
            mask = rng.random(n) < self._touch_plan(0, dt)
            touched = np.nonzero(mask)[0]
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
