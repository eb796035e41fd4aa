"""Online tuning of Senpai's reclaim aggressiveness.

Section 3.3 closes with: "certain workloads (e.g., batch workloads with
less stringent SLOs) can tolerate more memory pressure, which provides
opportunities for offloading more memory. We leave it as future work to
perform automated or online tuning of these parameters to maximize
savings."

:class:`AutoTuneSenpai` is that future work: it wraps the standard
controller and adapts ``reclaim_ratio`` per container with an AIMD rule
on the observed pressure —

* while a container sustains pressure *well below* its threshold, the
  tuner multiplicatively raises its reclaim ratio (there is headroom:
  offload more);
* the moment pressure crosses the threshold, it multiplicatively backs
  the ratio off (the workload is telling us to stop).

The ratio is bounded to ``[ratio_min, ratio_max]``; the pressure
threshold itself is never touched, so the SLO contract is unchanged —
only the approach speed adapts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.senpai import Senpai, SenpaiConfig


@dataclass(frozen=True)
class AutoTuneConfig:
    """AIMD parameters for the online tuner.

    Attributes:
        base: the wrapped Senpai configuration (threshold, interval,
            step cap, regulation all apply unchanged).
        ratio_min / ratio_max: bounds on the per-container ratio.
        raise_below: normalised-pressure level under which the ratio
            grows (plenty of headroom).
        raise_factor: multiplicative increase per calm period.
        backoff_factor: multiplicative decrease per pressured period.
        settle_periods: calm periods required before the first raise
            (avoids tuning on start-up transients).
    """

    base: SenpaiConfig = field(default_factory=SenpaiConfig)
    ratio_min: float = 0.0001
    ratio_max: float = 0.01
    raise_below: float = 0.5
    raise_factor: float = 1.15
    backoff_factor: float = 0.5
    settle_periods: int = 5


@dataclass
class _TuneState:
    ratio: float
    calm_periods: int = 0


class AutoTuneSenpai(Senpai):
    """Senpai with per-container online ratio adaptation."""

    __state__ = ("tune", "_ratios")
    tune: AutoTuneConfig
    _ratios: Dict[str, _TuneState]

    def __init__(self, config: AutoTuneConfig = AutoTuneConfig()) -> None:
        super().__init__(config.base)
        self.tune = config
        self._ratios = {}

    def ratio_for(self, cgroup: str) -> float:
        """The currently tuned reclaim ratio of one container."""
        state = self._ratios.get(cgroup)
        return state.ratio if state else self.config.reclaim_ratio

    def _adapt(self, cgroup: str, pressure: float) -> float:
        state = self._ratios.setdefault(
            cgroup, _TuneState(ratio=self.config.reclaim_ratio)
        )
        if pressure >= 1.0:
            state.ratio = max(
                self.tune.ratio_min,
                state.ratio * self.tune.backoff_factor,
            )
            state.calm_periods = 0
        elif pressure < self.tune.raise_below:
            state.calm_periods += 1
            if state.calm_periods > self.tune.settle_periods:
                state.ratio = min(
                    self.tune.ratio_max,
                    state.ratio * self.tune.raise_factor,
                )
        else:
            state.calm_periods = 0
        return state.ratio

    def _pressure_and_ratio(self, host, cgroup: str, elapsed_s: float):
        """Untiered pressure plus the AIMD-adapted ratio.

        Overrides the base hook, so the tuner inherits the hardened
        period machinery (actual-elapsed normalisation, staleness
        skips, circuit breaker, per-container error backoff) for free.
        """
        pressure = self.observed_pressure(host, cgroup, elapsed_s)
        return pressure, self._adapt(cgroup, pressure)

    def _record_extra(self, host, cgroup: str, now: float,
                      ratio: float) -> None:
        host.metrics.record(f"{cgroup}/senpai_ratio", now, ratio)
