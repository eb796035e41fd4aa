"""The early, stateful Senpai variant: driving ``memory.max``.

Section 3.3 describes the first Senpai implementation: it continuously
adjusted the workload cgroup's memory limit — lowering it to force
reclaim, raising it to relieve pressure. The statefulness is the
problem: a rapidly expanding workload slams into the stale limit and
blocks (direct reclaim, eventually OOM) until the controller's next
period raises it. The stateless ``memory.reclaim`` knob replaced it.

This variant is kept as an ablation target; the
``benchmarks/test_limits_vs_reclaim.py`` bench reproduces the
expansion-blocking pathology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.psi.types import Resource


@dataclass(frozen=True)
class LimitSenpaiConfig:
    """Tunables of the limit-driving controller.

    Attributes:
        interval_s: control period.
        psi_threshold: pressure target (fraction of wall time).
        shrink_frac: limit reduction per period while under target.
        grow_frac: limit increase per period while over target.
        headroom_frac: slack kept above current usage when first
            installing a limit.
        cgroups: containers to control; None = all hosted workloads.
    """

    interval_s: float = 6.0
    psi_threshold: float = 0.001
    shrink_frac: float = 0.0005
    grow_frac: float = 0.02
    headroom_frac: float = 0.01
    cgroups: Optional[Tuple[str, ...]] = None


@dataclass
class _LimitState:
    last_mem_total: float = 0.0
    seen: bool = False


class LimitSenpai:
    """Senpai v0: stateful memory.max control."""

    def __init__(self, config: LimitSenpaiConfig = LimitSenpaiConfig()) -> None:
        self.config = config
        self._states: Dict[str, _LimitState] = {}
        self._next_poll: Optional[float] = None
        # cgroup -> metric-series name, built once at registration so
        # the per-cgroup poll loop does not allocate a string each tick.
        self._metric_names: Dict[str, str] = {}

    def _targets(self, host):
        if self.config.cgroups is not None:
            return list(self.config.cgroups)
        return [h.cgroup_name for h in host.hosted()]

    def _limit_metric(self, cgroup: str) -> str:
        name = self._metric_names.get(cgroup)
        if name is None:
            name = f"{cgroup}/memory_max"
            self._metric_names[cgroup] = name
        return name

    def poll(self, host, now: float) -> None:
        if self._next_poll is None:
            self._next_poll = now + self.config.interval_s
            for cgroup in self._targets(host):
                state = self._states.setdefault(cgroup, _LimitState())
                state.last_mem_total = host.psi.some_total(
                    cgroup, Resource.MEMORY
                )
                state.seen = True
            return
        if now + 1e-9 < self._next_poll:
            return
        self._next_poll = now + self.config.interval_s

        for cgroup in self._targets(host):
            state = self._states.setdefault(cgroup, _LimitState())
            mem_total = host.psi.some_total(cgroup, Resource.MEMORY)
            pressure = (
                (mem_total - state.last_mem_total) / self.config.interval_s
                if state.seen
                else 0.0
            )
            state.last_mem_total = mem_total
            state.seen = True

            cg = host.mm.cgroup(cgroup)
            current = cg.current_bytes()
            limit = cg.memory_max
            if limit is None:
                limit = int(current * (1.0 + self.config.headroom_frac))
            if pressure < self.config.psi_threshold:
                new_limit = int(limit * (1.0 - self.config.shrink_frac))
                # Never set the limit below what one period of the
                # production reclaim cap would remove.
                new_limit = max(new_limit, int(current * 0.98))
            else:
                new_limit = int(limit * (1.0 + self.config.grow_frac))
            host.mm.set_memory_max(cgroup, new_limit, now)
            host.metrics.record(self._limit_metric(cgroup), now, new_limit)
