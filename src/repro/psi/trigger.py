"""PSI triggers: threshold-crossing notification.

The upstream PSI interface lets userspace register a trigger by writing
``"some 150000 1000000"`` to a pressure file — meaning *notify me when
total stall time exceeds 150 ms within any 1 s window*. Monitors
(userspace OOM killers, load shedders) then block in ``poll()`` instead
of busy-reading averages. This module reproduces that mechanism against
:class:`~repro.psi.group.PsiGroup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.psi.group import FULL, SOME, PsiGroup
from repro.psi.types import Resource

#: Kernel bounds on trigger windows (500 ms .. 10 s).
MIN_WINDOW_S = 0.5
MAX_WINDOW_S = 10.0


@dataclass(frozen=True)
class TriggerSpec:
    """One registered trigger.

    Attributes:
        resource: which pressure file the trigger is on.
        kind: ``"some"`` or ``"full"``.
        stall_threshold_s: stall seconds within the window that fire it.
        window_s: the observation window.
    """

    resource: Resource
    kind: str
    stall_threshold_s: float
    window_s: float

    def __post_init__(self) -> None:
        if self.kind not in (SOME, FULL):
            raise ValueError(
                f"trigger kind must be 'some' or 'full', got {self.kind!r}"
            )
        if not MIN_WINDOW_S <= self.window_s <= MAX_WINDOW_S:
            raise ValueError(
                f"trigger window must be in [{MIN_WINDOW_S}, "
                f"{MAX_WINDOW_S}] s, got {self.window_s}"
            )
        if not 0.0 < self.stall_threshold_s <= self.window_s:
            raise ValueError(
                "stall threshold must be positive and fit the window"
            )

    @classmethod
    def parse(cls, resource: Resource, line: str) -> "TriggerSpec":
        """Parse the kernel's trigger syntax: ``<some|full> <us> <us>``.

        >>> TriggerSpec.parse(Resource.MEMORY, "some 150000 1000000")
        TriggerSpec(resource=<Resource.MEMORY: 'memory'>, kind='some', \
stall_threshold_s=0.15, window_s=1.0)
        """
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"trigger line must be '<some|full> <stall_us> "
                f"<window_us>', got {line!r}"
            )
        kind, stall_us, window_us = parts
        return cls(
            resource=resource,
            kind=kind,
            stall_threshold_s=float(stall_us) / 1e6,
            window_s=float(window_us) / 1e6,
        )


class PsiTrigger:
    """A polling monitor over one group's stall integral.

    Call :meth:`update` periodically (at least once per window); it
    returns True on the updates where the trigger fires. Like the
    kernel, a fired trigger re-arms only after a full window elapses
    without the threshold being crossed is *not* required — but
    successive firings are rate-limited to one per window.
    """

    __state__ = ("group", "spec", "_window_start", "_start_total",
                 "_last_fire", "fire_count")
    group: PsiGroup
    spec: TriggerSpec

    def __init__(self, group: PsiGroup, spec: TriggerSpec, now: float = 0.0):
        self.group = group
        self.spec = spec
        self._window_start = now
        self._start_total = group.total(spec.resource, spec.kind)
        self._last_fire: Optional[float] = None
        self.fire_count = 0

    def update(self, now: float) -> bool:
        """Advance the trigger; True when the threshold fired."""
        self.group.tick(now)
        total = self.group.total(self.spec.resource, self.spec.kind)
        growth = total - self._start_total
        fired = False
        if growth >= self.spec.stall_threshold_s:
            rate_limited = (
                self._last_fire is not None
                and now - self._last_fire < self.spec.window_s
            )
            if not rate_limited:
                fired = True
                self.fire_count += 1
                self._last_fire = now
            self._window_start = now
            self._start_total = total
        elif now - self._window_start >= self.spec.window_s:
            # Window elapsed quietly: slide it forward.
            self._window_start = now
            self._start_total = total
        return fired


class TriggerSet:
    """All triggers registered against one host's PSI domains."""

    def __init__(self) -> None:
        self._triggers: List[PsiTrigger] = []

    def register(
        self, group: PsiGroup, spec: TriggerSpec, now: float = 0.0
    ) -> PsiTrigger:
        trigger = PsiTrigger(group, spec, now)
        self._triggers.append(trigger)
        return trigger

    def update(self, now: float) -> List[PsiTrigger]:
        """Update all triggers; return the ones that fired."""
        return [t for t in self._triggers if t.update(now)]

    def __len__(self) -> int:
        return len(self._triggers)
