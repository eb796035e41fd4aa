"""Diurnal load patterns.

Datacenter services breathe with the day: request rates and memory
footprints swell at peak and shrink at trough. Senpai's design leans on
this asymmetry — contraction is reclaimed gradually, expansion is never
blocked — so a workload that cycles is the natural long-horizon
exercise for the controller.

:class:`DiurnalWorkload` wraps the standard driver with a sinusoidal
intensity curve that modulates both access intensity (hot pages are
touched more often at peak) and footprint (anonymous memory is
allocated toward the peak and released toward the trough).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.kernel.mm import MemoryManager
from repro.workloads.apps import AppProfile
from repro.workloads.base import TickResult, Workload


class DiurnalWorkload(Workload):
    """A workload whose load follows a day curve."""

    __state__ = ("period_s", "amplitude", "footprint_swing", "phase_s",
                 "_swing_pages", "_current_intensity")
    _swing_pages: np.ndarray

    def __init__(
        self,
        mm: MemoryManager,
        profile: AppProfile,
        cgroup_name: str,
        seed: int,
        period_s: float = 86400.0,
        amplitude: float = 0.3,
        footprint_swing: float = 0.2,
        phase_s: float = 0.0,
    ) -> None:
        """
        Args:
            period_s: cycle length (compress it for simulations).
            amplitude: peak-to-mean ratio of access intensity
                (0.3 = ±30% around the profile's base intensity).
            footprint_swing: fraction of the initial anon footprint
                allocated at peak and released at trough.
            phase_s: offset of the peak within the cycle.
        """
        super().__init__(mm, profile, cgroup_name, seed)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0,1), got {amplitude}")
        if not 0.0 <= footprint_swing < 1.0:
            raise ValueError(
                f"footprint_swing must be in [0,1), got {footprint_swing}"
            )
        self.period_s = period_s
        self.amplitude = amplitude
        self.footprint_swing = footprint_swing
        self.phase_s = phase_s
        #: Ids of the pages allocated above the base population (the
        #: swing pool).
        self._swing_pages = np.empty(0, dtype=np.int64)
        #: Load multiplier of the current tick (set as the tick starts).
        self._current_intensity: Optional[float] = None

    def intensity(self, now: float) -> float:
        """Current load multiplier (1.0 = the profile's base level)."""
        angle = 2.0 * math.pi * (now - self.phase_s) / self.period_s
        return 1.0 + self.amplitude * math.sin(angle)

    def _target_swing(self, now: float) -> int:
        """How many swing pages the current phase wants resident."""
        angle = 2.0 * math.pi * (now - self.phase_s) / self.period_s
        # 0 at trough, max at peak.
        level = 0.5 * (1.0 + math.sin(angle))
        max_swing = int(
            self._initial_pages * self.profile.anon_frac
            * self.footprint_swing
        )
        return int(level * max_swing)

    def _select_touches(self, dt: float) -> np.ndarray:
        # Intensity scales the effective quantum: hotter phases touch
        # more pages (a Poisson thinning/boosting of the base process).
        return super()._select_touches(dt * self._current_intensity)

    def _breathe(self, now: float, tick: TickResult) -> None:
        """Allocate toward the peak, release toward the trough."""
        target = self._target_swing(now)
        have = len(self._swing_pages)
        if target > have:
            start = len(self._pages)
            grown = self._allocate_more(target - have, now, tick)
            self._swing_pages = np.concatenate(
                [self._swing_pages, self._pages[start:start + grown]]
            )
        elif target < have:
            # Release the newest swing pages, last in the population
            # first. They are the population's tail unless pages were
            # appended after them (a spike); then they are found by id.
            released = self._swing_pages[target:]
            keep = len(self._pages) - len(released)
            old = self._intervals
            if np.array_equal(self._pages[keep:], released):
                doomed = self._pages[keep:]
                self._pages = self._pages[:keep]
                self._intervals = old[:keep]
                self._keep_table(old)
            else:
                mask = np.isin(self._pages, released)
                doomed = self._pages[mask]
                self._pages = self._pages[~mask]
                self._intervals = old[~mask]
            for pid in doomed[::-1].tolist():
                self.mm.release_page(pid)
            self._swing_pages = self._swing_pages[:target]

    def restart(self, now: float) -> None:
        """Restart from the base population; the swing pool starts
        empty and regrows with the phase on later ticks.

        The swing pages leave the population before the base restart
        sizes the rebuild, so the swing is not folded into the new
        base footprint, and no released page id stays in the pool.
        """
        swing = np.isin(self._pages, self._swing_pages)
        self._pages = self._pages[~swing]
        self._intervals = self._intervals[~swing]
        self._swing_pages = np.empty(0, dtype=np.int64)
        super().restart(now)

    def tick(self, now: float, dt: float) -> TickResult:
        self._current_intensity = self.intensity(now)
        tick = super().tick(now, dt)
        self._breathe(now, tick)
        return tick
