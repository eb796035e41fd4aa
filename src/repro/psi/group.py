"""Per-domain PSI aggregation.

A :class:`PsiGroup` corresponds to one pressure domain: a cgroup, or the
whole machine. It keeps task-state counters, integrates ``some`` and
``full`` stall time between task state transitions, and maintains the
running averages exposed through the pressure-file interface. All of
that happens in one place, :meth:`PsiGroup.sweep`, which the host feeds
one time-ordered batch of transitions per tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.psi.avgs import PSI_AVG_PERIOD, RunningAverages, fold_averages
from repro.psi.types import (
    N_FLAG_STATES,
    RESOURCE_INDEX,
    RESOURCE_ORDER,
    TRANSITION_DELTAS,
    Resource,
    TaskFlags,
)

#: The two pressure indicators per resource.
SOME = "some"
FULL = "full"

#: Offset of each indicator within a resource's pair of state slots.
_KIND_OFFSET = {SOME: 0, FULL: 1}

#: Number of (resource, kind) stall states; ``totals`` and ``_avgs``
#: hold one slot per state.
N_STATES = 2 * len(RESOURCE_ORDER)


def state_slot(resource: Resource, kind: str) -> int:
    """Slot of ``(resource, kind)`` in :attr:`PsiGroup.totals`:
    ``2 * resource ordinal + (kind == FULL)``."""
    return 2 * RESOURCE_INDEX[resource] + _KIND_OFFSET[kind]


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

    The group is fed task state transitions by
    :class:`repro.psi.tracker.PsiSystem` and the host's scheduler model;
    it never inspects tasks itself. Between transitions the domain's
    pressure state is constant, so stall time is integrated lazily, at
    transition and read time.
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
    totals: List[float]
    _avgs: List[RunningAverages]

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
        # Task counters, indexed by the resource's ordinal in
        # RESOURCE_ORDER.
        self.nr_stalled = [0] * len(RESOURCE_ORDER)
        self.nr_productive = [0] * len(RESOURCE_ORDER)
        self.nr_nonidle = 0
        # Stall-time integrals in seconds and their running averages,
        # one slot per (resource, kind) as numbered by state_slot().
        self.totals = [0.0] * N_STATES
        self._avgs = [RunningAverages() for _ in range(N_STATES)]
        self._last_change = now
        self._next_avg_update = now + PSI_AVG_PERIOD

    # ------------------------------------------------------------------
    # the one accrual path

    def sweep(self, events: Iterable[Tuple[float, int]]) -> None:
        """Apply a time-ordered batch of task transitions.

        Each event is ``(when, code)`` with ``code = old.value *
        N_FLAG_STATES + new.value`` (:data:`~repro.psi.types.
        TRANSITION_DELTAS`); code 0 moves no counter and only advances
        time. Before each event, stall time accrues up to ``when`` for
        every active state (``some`` = anyone stalled, ``full`` =
        stalled with nobody productive), one ``PSI_AVG_PERIOD`` at a
        time, folding the running averages at each period boundary it
        crosses, so a long gap feeds every averaging window it spans.

        The batch runs on local copies of the counters and integrals
        and writes the group back once, also when an event raises.
        Events at one instant commute: the first integrates up to it,
        the rest add nothing, and the counters are integers. Every
        stall integral in the simulator is added here and nowhere else.

        Raises:
            ValueError: an event lies before the previous one.
            RuntimeError: the batch left a counter negative (a
                transition was fed with mismatched old flags).
        """
        avgs = self._avgs
        t_cpu, f_cpu, t_mem, f_mem, t_io, f_io = self.totals
        s_cpu, s_mem, s_io = self.nr_stalled
        p_cpu, p_mem, p_io = self.nr_productive
        nonidle = self.nr_nonidle
        last = self._last_change
        next_fold = self._next_avg_update
        try:
            for when, code in events:
                if when > last:
                    # Rare: the event lies past a period boundary.
                    # Accrue up to the boundary and fold, once per
                    # period crossed.
                    while when >= next_fold:
                        elapsed = next_fold - last
                        if s_cpu > 0:
                            t_cpu += elapsed
                            if p_cpu == 0:
                                f_cpu += elapsed
                        if s_mem > 0:
                            t_mem += elapsed
                            if p_mem == 0:
                                f_mem += elapsed
                        if s_io > 0:
                            t_io += elapsed
                            if p_io == 0:
                                f_io += elapsed
                        last = next_fold
                        fold_averages(zip(
                            avgs, (t_cpu, f_cpu, t_mem, f_mem, t_io, f_io)
                        ))
                        next_fold += PSI_AVG_PERIOD
                    # The same accrual up to the event itself.
                    elapsed = when - last
                    if elapsed > 0:
                        if s_cpu > 0:
                            t_cpu += elapsed
                            if p_cpu == 0:
                                f_cpu += elapsed
                        if s_mem > 0:
                            t_mem += elapsed
                            if p_mem == 0:
                                f_mem += elapsed
                        if s_io > 0:
                            t_io += elapsed
                            if p_io == 0:
                                f_io += elapsed
                        last = when
                elif when < last:
                    raise ValueError(
                        f"PSI group {self.name!r}: time went backwards "
                        f"({last} -> {when})"
                    )
                ds_cpu, ds_mem, ds_io, dp_cpu, dp_mem, dp_io, d_nonidle = (
                    TRANSITION_DELTAS[code]
                )
                s_cpu += ds_cpu
                s_mem += ds_mem
                s_io += ds_io
                p_cpu += dp_cpu
                p_mem += dp_mem
                p_io += dp_io
                nonidle += d_nonidle
        finally:
            self.totals[:] = (t_cpu, f_cpu, t_mem, f_mem, t_io, f_io)
            self.nr_stalled[:] = (s_cpu, s_mem, s_io)
            self.nr_productive[:] = (p_cpu, p_mem, p_io)
            self.nr_nonidle = nonidle
            self._last_change = last
            self._next_avg_update = next_fold
        if s_cpu < 0 or s_mem < 0 or s_io < 0 or nonidle < 0:
            raise RuntimeError(
                f"PSI group {self.name!r}: task counters went negative; "
                "a transition was fed with mismatched old flags"
            )

    def change_task_state(
        self, old: TaskFlags, new: TaskFlags, now: float
    ) -> None:
        """Apply one task's transition from ``old`` to ``new`` flags."""
        self.sweep(((now, old._value_ * N_FLAG_STATES + new._value_),))

    def tick(self, now: float) -> None:
        """Advance time to ``now``: integrals, then running averages if
        a period elapsed.

        A read at the instant of the last accrual adds nothing and
        skips the sweep; the test is exact on purpose, as the sweep's
        own ``elapsed > 0`` is.
        """
        if (now != self._last_change  # lint: ignore[TMO006]
                or now >= self._next_avg_update):
            self.sweep(((now, 0),))

    # ------------------------------------------------------------------
    # reads

    def total(self, resource: Resource, kind: str = SOME) -> float:
        """Cumulative stall seconds for ``(resource, kind)``."""
        return self.totals[state_slot(resource, kind)]

    def sample(self, resource: Resource, now: float) -> PressureSample:
        """Read the pressure file for ``resource`` at time ``now``."""
        self.tick(now)
        slot = state_slot(resource, SOME)
        some = self._avgs[slot]
        full = self._avgs[slot + 1]
        return PressureSample(
            resource=resource,
            some_avg10=some.avg10,
            some_avg60=some.avg60,
            some_avg300=some.avg300,
            some_total=self.totals[slot],
            full_avg10=full.avg10,
            full_avg60=full.avg60,
            full_avg300=full.avg300,
            full_total=self.totals[slot + 1],
        )

    def quick_read(self, slot: int, now: float) -> Tuple[float, float]:
        """``(avg10, total)`` of state ``slot`` (:func:`state_slot`)
        without building a sample object.

        The per-tick metrics hot path needs just these two numbers per
        resource and passes the slot precomputed, so a read hashes no
        ``Resource``; :meth:`sample` stays the full read for everyone
        else.
        """
        self.tick(now)
        return self._avgs[slot].avg10, self.totals[slot]

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
