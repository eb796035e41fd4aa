"""The g-swap baseline: promotion-rate-targeted offloading.

Section 4.3 compares TMO against the approach of Lagar-Cavilla et al.
[18] as the paper describes it: offline profiling establishes a *target
page-promotion rate* (swap-ins per second) per application, and the
controller offloads as much memory as it can while keeping the observed
promotion rate below that static target.

The paper's critique — which :mod:`benchmarks.test_fig12_psi_vs_promotion`
demonstrates — is that the same promotion rate means very different
things on a fast and a slow device, so a static target either leaves
savings on the table (fast device) or hurts the workload (slow device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class GSwapConfig:
    """g-swap controller tunables.

    Attributes:
        target_promotion_rate: swap-ins/second the offline profile
            declared safe for the application.
        interval_s: control period.
        initial_step_frac: first reclaim step as a fraction of the
            container size.
        increase_factor / decrease_factor: multiplicative adaptation of
            the reclaim step while under / over the target.
        max_step_frac: upper bound on the step.
        cgroups: containers to control; None = all hosted workloads.
    """

    target_promotion_rate: float = 20.0
    interval_s: float = 6.0
    initial_step_frac: float = 0.001
    increase_factor: float = 1.25
    decrease_factor: float = 0.5
    max_step_frac: float = 0.01
    cgroups: Optional[Tuple[str, ...]] = None


@dataclass
class _GswapState:
    step_frac: float
    last_pswpin: int = 0
    seen: bool = False


def profile_target_rate(
    host,
    cgroup: str,
    duration_s: float = 600.0,
    cold_age_s: float = 300.0,
    acceptable_fault_share: float = 0.10,
) -> float:
    """The offline-profiling step a g-swap deployment needs.

    Scans the container's idle-page ages (the cold-age-histogram
    methodology of [18]) and derives a static promotion-rate target:
    the rate at which re-touches of the cold band are expected to fault,
    scaled by the profiler's acceptable-fault budget.

    This is exactly the fragile part the paper criticises — the target
    is computed **once**, against whatever device and workload phase the
    profiling run happened to observe.
    """
    from repro.kernel.idle import IdlePageTracker

    host.run(duration_s)
    now = host.clock.now
    tracker = IdlePageTracker(host.mm)
    cold_pages = tracker.cold_bytes(
        cgroup, now, age_threshold_s=cold_age_s
    ) / host.mm.page_size_bytes
    # Expected re-touch rate of the cold band if fully offloaded:
    # roughly one touch per cold page per its age scale.
    expected_rate = cold_pages / max(1.0, cold_age_s)
    return max(0.01, expected_rate * acceptable_fault_share)


class GSwapController:
    """Static-promotion-rate-target controller (the paper's comparator)."""

    __state__ = ("config", "_states", "_next_poll", "_metric_names")
    config: GSwapConfig
    _states: Dict[str, _GswapState]
    _metric_names: Dict[str, str]

    def __init__(self, config: GSwapConfig = GSwapConfig()) -> None:
        self.config = config
        self._states = {}
        self._next_poll: Optional[float] = None
        # cgroup -> metric-series name, built once at registration so
        # the per-cgroup poll loop does not allocate a string each tick.
        self._metric_names = {}

    def _targets(self, host):
        if self.config.cgroups is not None:
            return list(self.config.cgroups)
        return [h.cgroup_name for h in host.hosted()]

    def _reclaim_metric(self, cgroup: str) -> str:
        name = self._metric_names.get(cgroup)
        if name is None:
            name = f"{cgroup}/gswap_reclaim"
            self._metric_names[cgroup] = name
        return name

    def poll(self, host, now: float) -> None:
        if self._next_poll is None:
            self._next_poll = now + self.config.interval_s
            for cgroup in self._targets(host):
                state = self._states.setdefault(
                    cgroup, _GswapState(self.config.initial_step_frac)
                )
                state.last_pswpin = host.mm.cgroup(cgroup).vmstat.pswpin
                state.seen = True
            return
        if now + 1e-9 < self._next_poll:
            return
        self._next_poll = now + self.config.interval_s

        for cgroup in self._targets(host):
            state = self._states.setdefault(
                cgroup, _GswapState(self.config.initial_step_frac)
            )
            pswpin = host.mm.cgroup(cgroup).vmstat.pswpin
            rate = (pswpin - state.last_pswpin) / self.config.interval_s
            state.last_pswpin = pswpin

            if rate >= self.config.target_promotion_rate:
                # Over target: back off and skip reclaim this period.
                state.step_frac = max(
                    1e-5, state.step_frac * self.config.decrease_factor
                )
                host.metrics.record(self._reclaim_metric(cgroup), now, 0.0)
                continue
            state.step_frac = min(
                self.config.max_step_frac,
                state.step_frac * self.config.increase_factor,
            )
            current = host.mm.cgroup(cgroup).current_bytes()
            target = int(current * state.step_frac)
            outcome = host.mm.memory_reclaim(cgroup, target, now)
            host.metrics.record(
                self._reclaim_metric(cgroup), now, outcome.reclaimed_bytes
            )
