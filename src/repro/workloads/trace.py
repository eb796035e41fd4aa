"""Access-trace recording and replay.

The paper's A/B methodology relies on identically loaded tiers. For
open-loop workloads, identical seeds already give identical access
sequences; for closed-loop ones (Web throttles its own request rate,
and request-driven growth feeds back into the access stream), the
sequences diverge with the substrate. Recording a trace on one run and
replaying it bit-exactly on another removes that confound entirely:
*the same accesses*, different memory system.

Usage::

    recorder = RecordingWorkload(mm_a, profile, "app", seed=7)
    recorder.start(now=0.0, size_scale=0.05)
    ... drive host A ...
    trace = recorder.trace

    replayer = ReplayWorkload(mm_b, trace, "app")
    replayer.start(now=0.0)
    ... drive host B: it touches exactly the recorded pages ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.kernel.mm import MemoryManager
from repro.workloads.apps import AppProfile
from repro.workloads.base import TickResult, Workload


@dataclass
class TraceEvent:
    """One quantum's recorded behaviour."""

    touched: List[int]
    grown: int = 0


@dataclass
class AccessTrace:
    """A complete recorded run of one workload."""

    profile: AppProfile
    seed: int
    size_scale: float
    events: List[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def total_touches(self) -> int:
        return sum(len(e.touched) for e in self.events)


class RecordingWorkload(Workload):
    """A workload that records its touch/growth sequence as it runs."""

    def __init__(
        self,
        mm: MemoryManager,
        profile: AppProfile,
        cgroup_name: str,
        seed: int,
    ) -> None:
        super().__init__(mm, profile, cgroup_name, seed)
        self._seed = seed
        self.trace: Optional[AccessTrace] = None
        self._current_event: Optional[TraceEvent] = None

    def start(self, now: float, size_scale: float = 1.0) -> None:
        super().start(now, size_scale=size_scale)
        self.trace = AccessTrace(
            profile=self.profile, seed=self._seed, size_scale=size_scale
        )

    def _select_touches(self, dt: float) -> np.ndarray:
        touched = super()._select_touches(dt)
        self._current_event = TraceEvent(touched=[int(i) for i in touched])
        self.trace.events.append(self._current_event)
        return touched

    def _allocate_more(self, n_new: int, now: float, tick: TickResult) -> int:
        allocated = super()._allocate_more(n_new, now, tick)
        if self._current_event is not None:
            self._current_event.grown += allocated
        return allocated


class ReplayWorkload(Workload):
    """A workload that replays a recorded trace, touch for touch.

    The page population is rebuilt from the trace's profile, seed and
    scale (so page kinds and compressibilities match the recording);
    each tick touches exactly the recorded indices and repeats the
    recorded growth. Replaying past the end of the trace raises.
    """

    def __init__(
        self,
        mm: MemoryManager,
        trace: AccessTrace,
        cgroup_name: str,
    ) -> None:
        super().__init__(mm, trace.profile, cgroup_name, trace.seed)
        self.trace = trace
        self._cursor = 0
        #: Touches referencing pages the replay host could not allocate
        #: (it OOMed where the recording host did not), or no page at
        #: all (a negative index). Nonzero values mean the A/B is not
        #: apples-to-apples — check it.
        self.dropped_touches = 0

    def start(self, now: float, size_scale: Optional[float] = None) -> None:
        scale = self.trace.size_scale if size_scale is None else size_scale
        super().start(now, size_scale=scale)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.trace.events)

    def _select_touches(self, dt: float) -> np.ndarray:
        if self.exhausted:
            raise IndexError(
                f"trace exhausted after {len(self.trace.events)} events"
            )
        event = self.trace.events[self._cursor]
        touched = np.asarray(event.touched, dtype=np.int64)
        # touch_batch requires distinct indices; a recorded event never
        # repeats one, so a repeat means the trace was edited or corrupt.
        values, counts = np.unique(touched, return_counts=True)
        if len(values) != len(touched):
            raise ValueError(
                f"trace event {self._cursor} touches page index "
                f"{int(values[counts > 1][0])} more than once"
            )
        in_range = (touched >= 0) & (touched < len(self._pages))
        self.dropped_touches += int((~in_range).sum())
        return touched[in_range]

    def _grow(self, now: float, dt: float, tick: TickResult) -> None:
        event = self.trace.events[self._cursor]
        self._cursor += 1
        if event.grown > 0:
            self._allocate_more(event.grown, now, tick)
