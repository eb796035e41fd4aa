"""Per-domain PSI aggregation.

A :class:`PsiGroup` corresponds to one pressure domain: a cgroup, or the
whole machine. It keeps task-state counters, integrates ``some`` and
``full`` stall time on every state transition, and maintains the running
averages exposed through the pressure-file interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.psi.avgs import PSI_AVG_PERIOD, RunningAverages
from repro.psi.types import (
    N_FLAG_STATES,
    RESOURCE_INDEX,
    RESOURCE_ORDER,
    TRANSITION_SPARSE,
    Resource,
    TaskFlags,
)

#: The two pressure indicators per resource.
SOME = "some"
FULL = "full"

_STATES: Tuple[Tuple[Resource, str], ...] = tuple(
    (resource, kind) for resource in Resource for kind in (SOME, FULL)
)


@dataclass(frozen=True)
class PressureSample:
    """A point-in-time read of one resource's pressure in a domain.

    All values are fractions in [0, 1]; multiply by 100 for the kernel's
    percentage presentation.
    """

    resource: Resource
    some_avg10: float
    some_avg60: float
    some_avg300: float
    some_total: float
    full_avg10: float
    full_avg60: float
    full_avg300: float
    full_total: float


class PsiGroup:
    """Stall-time accounting for one pressure domain.

    The group is fed task state transitions by :class:`repro.psi.tracker.
    PsiSystem`; it never inspects tasks itself. Between transitions the
    domain's pressure state is constant, so integration happens lazily at
    transition (and read) time.
    """

    #: Groups are shared by name in snapshots (repro.checkpoint.state).
    __key__ = "name"
    __state__ = (
        "name", "ncpu", "parent", "nr_stalled", "nr_productive",
        "nr_nonidle", "totals", "_avgs", "_last_change", "_next_avg_update",
    )
    parent: Optional["PsiGroup"]
    nr_stalled: List[int]
    nr_productive: List[int]
    totals: Dict[Tuple[Resource, str], float]
    _avgs: Dict[Tuple[Resource, str], RunningAverages]

    def __init__(
        self,
        name: str,
        ncpu: int,
        now: float = 0.0,
        parent: Optional["PsiGroup"] = None,
    ) -> None:
        if ncpu < 1:
            raise ValueError(f"a PSI domain needs at least one CPU, got {ncpu}")
        self.name = name
        self.ncpu = ncpu
        self.parent = parent
        # Task counters, updated by the tracker; indexed by the
        # resource's ordinal in RESOURCE_ORDER (plain list indexing is
        # markedly cheaper than enum-keyed dicts on this path).
        self.nr_stalled = [0] * len(RESOURCE_ORDER)
        self.nr_productive = [0] * len(RESOURCE_ORDER)
        self.nr_nonidle = 0
        # Stall-time integrals in seconds.
        self.totals = {
            state: 0.0 for state in _STATES
        }
        self._avgs = {
            state: RunningAverages() for state in _STATES
        }
        self._last_change = now
        self._next_avg_update = now + PSI_AVG_PERIOD

    # ------------------------------------------------------------------
    # state evaluation

    def _state_active(self, resource: Resource, kind: str) -> bool:
        """Whether the (resource, kind) stall state is active right now."""
        index = RESOURCE_INDEX[resource]
        stalled = self.nr_stalled[index] > 0
        if kind == SOME:
            return stalled
        return stalled and self.nr_productive[index] == 0

    def _integrate(self, now: float) -> None:
        """Accrue stall time for all active states up to ``now``.

        Inlines :meth:`_state_active` (``some`` = anyone stalled,
        ``full`` = stalled with nobody productive) — this runs once per
        task transition per domain.
        """
        elapsed = now - self._last_change
        if elapsed < 0:
            raise ValueError(
                f"PSI group {self.name!r}: time went backwards "
                f"({self._last_change} -> {now})"
            )
        if elapsed > 0:
            totals = self.totals
            nr_stalled = self.nr_stalled
            nr_productive = self.nr_productive
            for index, resource in enumerate(RESOURCE_ORDER):
                if nr_stalled[index] > 0:
                    totals[(resource, SOME)] += elapsed
                    if nr_productive[index] == 0:
                        totals[(resource, FULL)] += elapsed
            self._last_change = now

    # ------------------------------------------------------------------
    # transition feed (called by the tracker)

    def change_task_state(
        self, old: TaskFlags, new: TaskFlags, now: float
    ) -> None:
        """Apply one task's transition from ``old`` to ``new`` flags.

        Hot path: the per-resource counter deltas come from the
        precomputed :data:`~repro.psi.types.TRANSITION_DELTAS` table
        (one lookup) rather than re-evaluating the flag predicates per
        resource per event.
        """
        self.tick(now)
        stalled_pairs, productive_pairs, nonidle_d = TRANSITION_SPARSE[
            old._value_ * N_FLAG_STATES + new._value_
        ]
        bad = False
        if stalled_pairs:
            nr_stalled = self.nr_stalled
            for index, delta in stalled_pairs:
                nr_stalled[index] += delta
                if nr_stalled[index] < 0:
                    bad = True
        if productive_pairs:
            nr_productive = self.nr_productive
            for index, delta in productive_pairs:
                nr_productive[index] += delta
        if nonidle_d:
            self.nr_nonidle += nonidle_d
            if self.nr_nonidle < 0:
                bad = True
        if bad:
            raise RuntimeError(
                f"PSI group {self.name!r}: task counters went negative; "
                "a transition was fed with mismatched old flags"
            )

    # ------------------------------------------------------------------
    # reads

    def tick(self, now: float) -> None:
        """Advance time and refresh running averages if a period elapsed.

        Integration is performed period-by-period so a large time jump
        attributes stall time to every averaging window it spans, not
        just the first.
        """
        while now >= self._next_avg_update:
            self._integrate(self._next_avg_update)
            for state in _STATES:
                self._avgs[state].update(
                    self.totals[state], PSI_AVG_PERIOD
                )
            self._next_avg_update += PSI_AVG_PERIOD
        self._integrate(now)

    def total(self, resource: Resource, kind: str = SOME) -> float:
        """Cumulative stall seconds for ``(resource, kind)``."""
        return self.totals[(resource, kind)]

    def sample(self, resource: Resource, now: float) -> PressureSample:
        """Read the pressure file for ``resource`` at time ``now``."""
        self.tick(now)
        some = self._avgs[(resource, SOME)]
        full = self._avgs[(resource, FULL)]
        return PressureSample(
            resource=resource,
            some_avg10=some.avg10,
            some_avg60=some.avg60,
            some_avg300=some.avg300,
            some_total=self.totals[(resource, SOME)],
            full_avg10=full.avg10,
            full_avg60=full.avg60,
            full_avg300=full.avg300,
            full_total=self.totals[(resource, FULL)],
        )

    def quick_read(
        self, resource: Resource, now: float
    ) -> Tuple[float, float]:
        """``(some avg10, some total)`` without building a sample object.

        The per-tick metrics hot path needs just these two numbers per
        resource; :meth:`sample` stays the full read for everyone else.
        """
        self.tick(now)
        return (
            self._avgs[(resource, SOME)].avg10,
            self.totals[(resource, SOME)],
        )

    def productivity_loss(self, resource: Resource) -> float:
        """Instantaneous share of compute potential lost to stalls.

        The paper defines compute potential as the number of non-idle
        tasks capped at the CPU count; this returns the stalled share of
        that potential at the current instant.
        """
        potential = min(self.nr_nonidle, self.ncpu)
        if potential == 0:
            return 0.0
        stalled = min(self.nr_stalled[RESOURCE_INDEX[resource]], potential)
        return stalled / potential

    def __repr__(self) -> str:
        stalled = ", ".join(
            f"{r.value}:{n}"
            for r, n in zip(RESOURCE_ORDER, self.nr_stalled)
        )
        return (
            f"PsiGroup(name={self.name!r}, nonidle={self.nr_nonidle}, "
            f"stalled={{{stalled}}})"
        )


def format_pressure_file(group: PsiGroup, resource: Resource, now: float) -> str:
    """Render a domain's pressure in the kernel's ``/proc/pressure`` format.

    >>> group = PsiGroup("system", ncpu=4)
    >>> print(format_pressure_file(group, Resource.MEMORY, now=0.0))
    some avg10=0.00 avg60=0.00 avg300=0.00 total=0
    full avg10=0.00 avg60=0.00 avg300=0.00 total=0
    """
    sample = group.sample(resource, now)
    some_line = (
        f"some avg10={sample.some_avg10 * 100:.2f} "
        f"avg60={sample.some_avg60 * 100:.2f} "
        f"avg300={sample.some_avg300 * 100:.2f} "
        f"total={int(sample.some_total * 1e6)}"
    )
    full_line = (
        f"full avg10={sample.full_avg10 * 100:.2f} "
        f"avg60={sample.full_avg60 * 100:.2f} "
        f"avg300={sample.full_avg300 * 100:.2f} "
        f"total={int(sample.full_total * 1e6)}"
    )
    return f"{some_line}\n{full_line}"
