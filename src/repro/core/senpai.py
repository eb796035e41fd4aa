"""Senpai: the userspace memory-offloading controller (Section 3.3).

Senpai polls each container's PSI every few seconds and asks the kernel
— through the stateless ``memory.reclaim`` knob — to reclaim

::

    reclaim_mem = current_mem * reclaim_ratio * max(0, 1 - PSI_some / PSI_threshold)

so containers settle at a mild, sub-threshold steady-state pressure:
high enough that no memory sits idle, low enough not to disturb nominal
operation. Senpai monitors the *IO* PSI alongside memory PSI, because
refaults it induces can hurt the workload through device contention
without showing up as memory stalls; and it modulates reclaim when SSD
write endurance is at risk (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.policy import reclaim_amount
from repro.core.write_regulation import WriteRegulator
from repro.psi.types import Resource


@dataclass(frozen=True)
class SloTier:
    """Per-container tuning for workloads with distinct SLOs.

    Section 3.3 flags this as planned work: batch workloads with
    relaxed SLOs tolerate more pressure (more savings), user-facing
    ones less. A tier scales the global thresholds and reclaim ratio.
    """

    pressure_scale: float = 1.0
    ratio_scale: float = 1.0

    @classmethod
    def batch(cls) -> "SloTier":
        """Relaxed SLO: tolerate 5x the pressure, reclaim 4x faster."""
        return cls(pressure_scale=5.0, ratio_scale=4.0)


@dataclass(frozen=True)
class SenpaiConfig:
    """Senpai tunables.

    The defaults are the globally-optimal production configuration the
    paper converged on for all applications: reclaim every six seconds,
    ``reclaim_ratio = 0.0005``, ``PSI_threshold = 0.1%``, step capped at
    1% of the workload per period.
    """

    interval_s: float = 6.0
    psi_threshold: float = 0.001
    io_threshold: float = 0.001
    reclaim_ratio: float = 0.0005
    max_step_frac: float = 0.01
    #: SSD swap-out budget; None disables write regulation.
    write_limit_mb_s: Optional[float] = 1.0
    #: Restrict reclaim to the file LRU (the deployment's first,
    #: file-only phase — Section 5.1).
    file_only_mode: bool = False
    #: Stop anon reclaim once swap free space drops below this fraction
    #: of its capacity (Section 3.3's swap-exhaustion modulation).
    swap_free_margin_frac: float = 0.05
    #: Stop anon reclaim once this share of the SSD's rated write
    #: endurance has been consumed.
    endurance_limit_frac: float = 0.90
    #: Containers to control; None means every hosted workload.
    cgroups: Optional[Tuple[str, ...]] = None
    #: Optional per-container SLO tiers: ``(cgroup_name, tier)`` pairs.
    slo_tiers: Tuple[Tuple[str, SloTier], ...] = ()
    #: Skip a reclaim period when the served PSI telemetry is older
    #: than this (a frozen reader would otherwise report zero pressure
    #: deltas and drive maximal reclaim into a loaded host).
    stale_after_s: float = 30.0
    #: Consecutive faulty polling periods (majority of swap-backend
    #: operations failing) before the circuit breaker opens and anon
    #: reclaim stops.
    breaker_trip_polls: int = 3
    #: How long the breaker stays open before a half-open probe period
    #: re-tries anon reclaim against the backend.
    breaker_probe_s: float = 30.0
    #: Base/backstop of the per-container exponential backoff applied
    #: after a control-surface error (missing cgroup, failed write).
    error_backoff_s: float = 6.0
    error_backoff_max_s: float = 120.0

    def tier_for(self, cgroup: str) -> SloTier:
        for name, tier in self.slo_tiers:
            if name == cgroup:
                return tier
        return SloTier()

    @classmethod
    def config_a(cls) -> "SenpaiConfig":
        """Figure 13's mild Config A — the production setting."""
        return cls()

    @classmethod
    def config_b(cls) -> "SenpaiConfig":
        """Figure 13's aggressive Config B.

        Tolerates ten times the pressure and reclaims ten times faster;
        saves more memory but regresses RPS through file-cache refaults.
        """
        return cls(
            psi_threshold=0.010,
            io_threshold=0.010,
            reclaim_ratio=0.005,
            max_step_frac=0.02,
        )


@dataclass
class _CgroupState:
    """Per-container bookkeeping between polls."""

    last_mem_total: float = 0.0
    last_io_total: float = 0.0
    seen: bool = False
    #: Consecutive control-surface errors against this container.
    error_streak: int = 0
    #: Do not touch this container again before this virtual time.
    skip_until_s: float = 0.0


class Senpai:
    """The PSI-driven proactive reclaim controller."""

    __state__ = (
        "config", "_states", "_next_poll", "_last_tick", "regulator",
        "total_requested", "total_reclaimed", "_last_period_at",
        "breaker_state", "breaker_open_count", "breaker_reclose_count",
        "_breaker_faulty_streak", "_breaker_opened_at_s",
        "_last_swap_ops", "_last_swap_faults", "stale_skips",
        "error_skips",
    )
    config: SenpaiConfig
    _states: Dict[str, _CgroupState]
    regulator: Optional[WriteRegulator]

    def __init__(self, config: SenpaiConfig = SenpaiConfig()) -> None:
        self.config = config
        self._states = {}
        self._next_poll: Optional[float] = None
        self._last_tick: Optional[float] = None
        self.regulator = (
            WriteRegulator(config.write_limit_mb_s)
            if config.write_limit_mb_s is not None
            else None
        )
        #: Total bytes Senpai has asked the kernel to reclaim.
        self.total_requested = 0
        #: Total bytes the kernel actually reclaimed for Senpai.
        self.total_reclaimed = 0
        #: When the last reclaim period ran (for actual-elapsed PSI
        #: normalisation, not the nominal interval).
        self._last_period_at: Optional[float] = None
        #: Swap-backend circuit breaker: ``closed`` (healthy),
        #: ``open`` (anon reclaim suspended, file-only fallback) or
        #: ``half_open`` (probing). See docs/RESILIENCE.md.
        self.breaker_state = "closed"
        self.breaker_open_count = 0
        self.breaker_reclose_count = 0
        self._breaker_faulty_streak = 0
        self._breaker_opened_at_s: Optional[float] = None
        self._last_swap_ops = 0
        self._last_swap_faults = 0
        #: Periods skipped because telemetry was stale / a container
        #: errored (observability counters for tests and reports).
        self.stale_skips = 0
        self.error_skips = 0

    # ------------------------------------------------------------------

    def _targets(self, host) -> List[str]:
        if self.config.cgroups is not None:
            return list(self.config.cgroups)
        return [h.cgroup_name for h in host.hosted()]

    def observed_pressure(self, host, cgroup: str, elapsed_s: float) -> float:
        """Normalised pressure for one container over the last period.

        Diffs the ``some`` stall totals (like the open-source senpai
        does, rather than using the kernel's averaged windows), divides
        by the *actual* elapsed time since the last poll — not the
        nominal interval, which under-/over-states pressure whenever a
        period is stretched by stale-telemetry skips or scheduling
        jitter — and normalises each resource by its own threshold; the
        binding constraint (max) drives back-off.
        """
        state = self._states.setdefault(cgroup, _CgroupState())
        mem_total = host.psi.some_total(cgroup, Resource.MEMORY)
        io_total = host.psi.some_total(cgroup, Resource.IO)
        if not state.seen:
            state.last_mem_total = mem_total
            state.last_io_total = io_total
            state.seen = True
            return 0.0
        elapsed_s = max(elapsed_s, 1e-9)
        mem_pressure = (mem_total - state.last_mem_total) / elapsed_s
        io_pressure = (io_total - state.last_io_total) / elapsed_s
        state.last_mem_total = mem_total
        state.last_io_total = io_total
        return max(
            mem_pressure / self.config.psi_threshold,
            io_pressure / self.config.io_threshold,
        )

    # ------------------------------------------------------------------

    def poll(self, host, now: float) -> None:
        """Host hook: update regulation every tick, reclaim on schedule."""
        if self._last_tick is not None and self.regulator is not None:
            backend = host.swap_backend
            if backend is not None and backend.blocks_on_io:
                self.regulator.update(
                    backend.stats.bytes_written, now - self._last_tick
                )
        self._last_tick = now

        if self._next_poll is None:
            # First observation period starts now; no reclaim yet.
            self._next_poll = now + self.config.interval_s
            self._last_period_at = now
            self._last_swap_ops = host.mm.swap_op_count
            self._last_swap_faults = host.mm.swap_fault_count
            for cgroup in self._targets(host):
                self._prime_cgroup(host, cgroup)
            return
        if now + 1e-9 < self._next_poll:
            return
        self._next_poll = now + self.config.interval_s
        self._reclaim_period(host, now)

    def _prime_cgroup(self, host, cgroup: str) -> None:
        """Record a container's baseline totals, tolerating its absence."""
        try:
            self.observed_pressure(host, cgroup, self.config.interval_s)
        except Exception:
            # Named container does not exist (yet, or any more): treat
            # it like a control-surface error and retry on schedule.
            self.error_skips += 1

    def _swap_exhausted(self, backend) -> bool:
        """Section 3.3's extra modulation: back off anon reclaim when
        swap space is nearly exhausted or endurance nearly consumed."""
        capacity = getattr(backend, "capacity_bytes", None)
        free = getattr(backend, "free_bytes", None)
        if capacity and free is not None:
            if free < self.config.swap_free_margin_frac * capacity:
                return True
        wear = getattr(backend, "wear_fraction", None)
        if wear is not None and wear >= self.config.endurance_limit_frac:
            return True
        return False

    # ------------------------------------------------------------------
    # staleness detection and the swap-backend circuit breaker

    def _telemetry_stale(self, host, now: float) -> bool:
        """Whether the served PSI telemetry is too old to act on."""
        age_fn = getattr(host.psi, "telemetry_age_s", None)
        if age_fn is None:
            return False
        return age_fn(now) > self.config.stale_after_s

    _DEGRADED_LEVELS = {"closed": 0.0, "half_open": 0.5, "open": 1.0}

    def _set_breaker(self, host, now: float, state: str) -> None:
        if state == self.breaker_state:
            return
        self.breaker_state = state
        host.metrics.record(
            "senpai/degraded", now, self._DEGRADED_LEVELS[state]
        )

    def _update_breaker(self, host, now: float) -> None:
        """Advance the breaker from this period's swap fault/op deltas.

        A period is *faulty* when swap operations ran and at least half
        of them failed with a backend fault — a failing device, not the
        odd media error. ``breaker_trip_polls`` consecutive faulty
        periods open the breaker (anon reclaim suspended); after
        ``breaker_probe_s`` a half-open period probes the backend, and
        one clean probe with real traffic re-closes it.
        """
        mm = host.mm
        delta_ops = mm.swap_op_count - self._last_swap_ops
        delta_faults = mm.swap_fault_count - self._last_swap_faults
        self._last_swap_ops = mm.swap_op_count
        self._last_swap_faults = mm.swap_fault_count
        faulty = delta_faults > 0 and delta_faults * 2 >= delta_ops

        if self.breaker_state == "closed":
            if faulty:
                self._breaker_faulty_streak += 1
                if self._breaker_faulty_streak >= self.config.breaker_trip_polls:
                    self.breaker_open_count += 1
                    self._breaker_opened_at_s = now
                    self._set_breaker(host, now, "open")
            else:
                self._breaker_faulty_streak = 0
        elif self.breaker_state == "open":
            if now - self._breaker_opened_at_s >= self.config.breaker_probe_s:
                self._set_breaker(host, now, "half_open")
        else:  # half_open: judge the probe period that just ended
            if faulty:
                self._breaker_opened_at_s = now
                self._set_breaker(host, now, "open")
            elif delta_ops > 0:
                self._breaker_faulty_streak = 0
                self.breaker_reclose_count += 1
                self._set_breaker(host, now, "closed")
            # No swap traffic: the probe proved nothing; keep probing.

    # ------------------------------------------------------------------

    def _pressure_and_ratio(self, host, cgroup: str, elapsed_s: float):
        """Per-container pressure and reclaim ratio for this period."""
        tier = self.config.tier_for(cgroup)
        pressure = self.observed_pressure(
            host, cgroup, elapsed_s
        ) / tier.pressure_scale
        return pressure, self.config.reclaim_ratio * tier.ratio_scale

    def _record_extra(self, host, cgroup: str, now: float,
                      ratio: float) -> None:
        """Subclass hook for additional per-container period metrics."""

    def _reclaim_period(self, host, now: float) -> None:
        if self._telemetry_stale(host, now):
            # Acting on a frozen reader would read zero pressure deltas
            # and drive maximal reclaim into a possibly loaded host.
            # Skip without consuming totals: after a thaw, the diffs
            # cover the whole gap and divide by the true elapsed time.
            self.stale_skips += 1
            host.metrics.record("senpai/stale", now, 1.0)
            return
        elapsed_s = (
            now - self._last_period_at
            if self._last_period_at is not None
            else self.config.interval_s
        )
        self._last_period_at = now
        self._update_breaker(host, now)

        file_only = self.config.file_only_mode
        allowance = 1.0
        backend = host.swap_backend
        if self.breaker_state == "open":
            # Swap backend presumed down: fall back to file-only
            # reclaim so no page is handed to a failing device.
            file_only = True
        if backend is not None and self._swap_exhausted(backend):
            file_only = True
        if self.regulator is not None and not file_only:
            if backend is not None and backend.blocks_on_io:
                allowance = self.regulator.allowance()
                file_only = self.regulator.file_only()

        for cgroup in self._targets(host):
            self._reclaim_one(
                host, now, cgroup, elapsed_s, file_only, allowance
            )

    def _reclaim_one(
        self,
        host,
        now: float,
        cgroup: str,
        elapsed_s: float,
        file_only: bool,
        allowance: float,
    ) -> None:
        """Run one container's reclaim step, absorbing control errors.

        Any failure on the control surface (the container died between
        sampling and reclaim, a control file errored) is counted and
        answered with per-container exponential backoff rather than a
        controller crash.
        """
        state = self._states.setdefault(cgroup, _CgroupState())
        if now < state.skip_until_s:
            return
        try:
            pressure, ratio = self._pressure_and_ratio(
                host, cgroup, elapsed_s
            )
            current = host.mm.cgroup(cgroup).current_bytes()
            target = reclaim_amount(
                current_mem=current,
                psi_some=pressure,
                psi_threshold=1.0,  # pressure is already normalised
                reclaim_ratio=ratio,
                max_step_frac=self.config.max_step_frac,
            )
            if not file_only and allowance < 1.0:
                target = int(target * allowance)
            if target <= 0:
                host.metrics.record(f"{cgroup}/senpai_reclaim", now, 0.0)
                self._record_extra(host, cgroup, now, ratio)
                state.error_streak = 0
                return
            outcome = host.mm.memory_reclaim(
                cgroup, target, now, file_only=file_only
            )
        except Exception:
            state.error_streak += 1
            self.error_skips += 1
            backoff_s = min(
                self.config.error_backoff_max_s,
                self.config.error_backoff_s
                * (2.0 ** (state.error_streak - 1)),
            )
            state.skip_until_s = now + backoff_s
            host.metrics.record("senpai/errors", now, float(self.error_skips))
            return
        state.error_streak = 0
        self.total_requested += target
        self.total_reclaimed += outcome.reclaimed_bytes
        host.metrics.record(
            f"{cgroup}/senpai_reclaim", now, outcome.reclaimed_bytes
        )
        host.metrics.record(
            f"{cgroup}/senpai_pressure", now, pressure
        )
        self._record_extra(host, cgroup, now, ratio)
