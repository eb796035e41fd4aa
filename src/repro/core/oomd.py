"""oomd: a userspace out-of-memory killer driven by PSI (Section 3.2.4).

"Long before the kernel's out-of-memory killer triggers, applications
can be functionally out of memory when the lack of it causes delays
that prevent the application from meeting its SLO. Userspace
out-of-memory killers can monitor ``full`` metrics and apply killing
policies."

This controller watches each container's ``full`` pressure average and
kills the container once it sustains above a threshold — the policy the
open-sourced oomd ships with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.psi.types import Resource


@dataclass(frozen=True)
class OomdConfig:
    """Kill policy parameters.

    Attributes:
        full_threshold: ``full`` avg10 fraction that marks a container
            as functionally out of memory (oomd's default pressure rule
            uses 10-ish percent).
        sustain_s: how long the threshold must hold before killing —
            transients (e.g. restarts) must not trigger kills.
        resource: the pressured resource to watch.
        interval_s: polling period.
        cgroups: containers under policy; None = all hosted workloads.
    """

    full_threshold: float = 0.10
    sustain_s: float = 10.0
    resource: Resource = Resource.MEMORY
    interval_s: float = 1.0
    cgroups: Optional[Tuple[str, ...]] = None


@dataclass
class _WatchState:
    over_since: Optional[float] = None


class Oomd:
    """PSI-driven userspace OOM killer."""

    __state__ = ("config", "_states", "_next_poll", "kills", "lost_races")
    config: OomdConfig
    _states: Dict[str, _WatchState]
    kills: List[Tuple[float, str]]

    def __init__(self, config: OomdConfig = OomdConfig()) -> None:
        self.config = config
        self._states = {}
        self._next_poll: Optional[float] = None
        #: (time, cgroup) pairs for every kill performed.
        self.kills = []
        #: Kills that raced with the container dying on its own.
        self.lost_races = 0

    def _targets(self, host) -> List[str]:
        hosted = [h.cgroup_name for h in host.hosted()]
        if self.config.cgroups is not None:
            return [name for name in self.config.cgroups if name in hosted]
        return hosted

    def poll(self, host, now: float) -> None:
        if self._next_poll is not None and now + 1e-9 < self._next_poll:
            return
        self._next_poll = now + self.config.interval_s

        for cgroup in self._targets(host):
            self._watch_one(host, cgroup, now)

    def _watch_one(self, host, cgroup: str, now: float) -> None:
        state = self._states.setdefault(cgroup, _WatchState())
        try:
            sample = host.psi.group(cgroup).sample(
                self.config.resource, now
            )
        except KeyError:
            # The cgroup's pressure domain vanished between target
            # selection and sampling (container torn down mid-poll):
            # drop the watch rather than crash the killer.
            self._states.pop(cgroup, None)
            return
        if sample.full_avg10 >= self.config.full_threshold:
            if state.over_since is None:
                state.over_since = now
            elif now - state.over_since >= self.config.sustain_s:
                self._kill(host, cgroup, now)
        else:
            state.over_since = None

    def _kill(self, host, cgroup: str, now: float) -> None:
        """Kill a container, tolerating it having died on its own.

        Between the sustain decision and the kill the workload may have
        exited (restart, another controller's kill). A lost race is
        counted, never double-killed and never fatal.
        """
        try:
            host.kill_workload(cgroup)
        except KeyError:
            self.lost_races += 1
        else:
            self.kills.append((now, cgroup))
        self._states.pop(cgroup, None)
