"""The Web application model (Sections 4.2-4.4).

Web is the paper's flagship A/B workload. Its memory profile: it starts
by loading the entire file-system cache into memory, then lazily grows
anonymous memory as requests arrive. As hosts approach their memory
limit, servers self-regulate — they throttle requests per second (RPS)
to meet a tail-latency target and avoid running out of memory; the
Figure 11 baseline loses more than 20% RPS over two hours this way.

The model closes the loop the same way: achieved RPS is the offered rate
scaled by (a) how much of the worker threads' time survives fault
stalls, and (b) a self-regulation factor that kicks in as free memory
vanishes. TMO recovers RPS by keeping free memory available.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.mm import MemoryManager
from repro.workloads.apps import APP_CATALOG, AppProfile
from repro.workloads.base import TickResult, Workload

_GB = 1 << 30


@dataclass(frozen=True)
class WebConfig:
    """Tunables of the Web RPS model.

    Attributes:
        base_rps: the unthrottled request rate of a healthy host.
        anon_growth_frac_per_hour: anonymous footprint growth per hour as
            a fraction of the initial anon size (the lazy loading of
            request-driven state).
        headroom_throttle_frac: free-memory fraction of host RAM below
            which self-regulation begins.
        min_throttle: the floor of the self-regulation factor (servers
            never stop serving entirely).
        alloc_free_floor_frac: free-memory fraction below which the
            server stops admitting new allocations entirely — the last
            line of self-protection against running out of memory.
        stall_sensitivity: amplification of fault-stall time into lost
            request capacity. Web is CPU-frontend bound (Section 4.4):
            a page of evicted bytecode slows *every* request fetching
            through it, not just the single sampled fault, so a
            simulated fault's stall represents a correspondingly larger
            slice of lost serving capacity.
    """

    base_rps: float = 800.0
    anon_growth_frac_per_hour: float = 0.12
    headroom_throttle_frac: float = 0.08
    min_throttle: float = 0.55
    alloc_free_floor_frac: float = 0.03
    stall_sensitivity: float = 40.0


class WebWorkload(Workload):
    """Web with closed-loop RPS throttling."""

    __state__ = ("config", "rps")
    config: WebConfig

    def __init__(
        self,
        mm: MemoryManager,
        cgroup_name: str,
        seed: int,
        config: WebConfig = WebConfig(),
        profile: AppProfile = None,
    ) -> None:
        super().__init__(
            mm, profile if profile is not None else APP_CATALOG["Web"],
            cgroup_name, seed,
        )
        self.config = config
        self.rps = config.base_rps

    # ------------------------------------------------------------------

    def _stall_factor(self, tick: TickResult, dt: float) -> float:
        """Share of serving capacity that survives fault stalls."""
        thread_time = self.profile.nthreads * dt
        if thread_time <= 0:
            return 1.0
        lost = tick.total_stall_s * self.config.stall_sensitivity
        return max(0.05, 1.0 - min(lost, thread_time) / thread_time)

    def _memory_factor(self) -> float:
        """Self-regulation as free memory vanishes (avoid OOM)."""
        free_frac = self.mm.free_bytes() / self.mm.ram_bytes
        threshold = self.config.headroom_throttle_frac
        if free_frac >= threshold:
            return 1.0
        span = max(1e-9, threshold)
        factor = self.config.min_throttle + (
            1.0 - self.config.min_throttle
        ) * (free_frac / span)
        return max(self.config.min_throttle, factor)

    def tick(self, now: float, dt: float) -> TickResult:
        tick = super().tick(now, dt)

        stall_factor = self._stall_factor(tick, dt)
        memory_factor = self._memory_factor()
        self.rps = self.config.base_rps * min(stall_factor, memory_factor)
        requests = self.rps * dt
        tick.work_done = requests

        # Below the free-memory floor the server admits no new
        # allocations at all (self-protection against OOM).
        free_frac = self.mm.free_bytes() / self.mm.ram_bytes
        if free_frac < self.config.alloc_free_floor_frac:
            return tick

        # Request-driven anonymous growth: lazily loaded state, scaled
        # off the initial anon footprint and the achieved request rate.
        growth_rate = (
            self.config.anon_growth_frac_per_hour / 3600.0
        ) * self.profile.anon_frac * self._initial_pages * (
            self.rps / self.config.base_rps
        )
        self._growth_carry += growth_rate * dt
        n_new = int(self._growth_carry)
        if n_new > 0:
            self._growth_carry -= n_new
            self._allocate_more(n_new, now, tick)
        return tick
