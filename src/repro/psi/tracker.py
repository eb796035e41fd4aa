"""Task registry that routes state transitions into PSI domains.

:class:`PsiSystem` owns the machine-wide group plus one group per cgroup.
Tasks are registered against a cgroup group; every flag change is applied
to that group and all of its ancestors, and to the machine-wide group —
exactly how cgroup2 pressure files aggregate in the kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.psi.group import PsiGroup
from repro.psi.types import N_FLAG_STATES, Resource, TaskFlags


class PsiTask:
    """A handle for one simulated task's PSI state."""

    __slots__ = ("name", "flags", "_groups")
    #: Tasks are shared by name in snapshots (repro.checkpoint.state).
    __key__ = "name"
    __state__ = ("name", "flags", "_groups")
    flags: TaskFlags
    _groups: List[PsiGroup]

    def __init__(self, name: str, groups: List[PsiGroup]) -> None:
        self.name = name
        self.flags = TaskFlags.NONE
        self._groups = groups

    def set_flags(self, flags: TaskFlags, now: float) -> None:
        """Transition this task to ``flags`` at time ``now``.

        A one-event :meth:`PsiGroup.sweep` per domain; setting the
        flags the task already has only advances time.
        """
        event = ((now, self.flags._value_ * N_FLAG_STATES + flags._value_),)
        for group in self._groups:
            group.sweep(event)
        self.flags = flags

    def __repr__(self) -> str:
        return f"PsiTask(name={self.name!r}, flags={self.flags!r})"


class PsiSystem:
    """All PSI domains of one host."""

    __state__ = ("ncpu", "system", "_groups", "_tasks", "_frozen_at_s",
                 "_frozen_totals")
    system: PsiGroup
    _groups: Dict[str, PsiGroup]
    _tasks: Dict[str, PsiTask]
    _frozen_totals: Dict[Tuple[str, Resource], float]

    def __init__(self, ncpu: int, now: float = 0.0) -> None:
        self.ncpu = ncpu
        self.system = PsiGroup("system", ncpu=ncpu, now=now)
        self._groups = {"system": self.system}
        self._tasks = {}
        #: When not None, the virtual time at which the *read side* of
        #: the telemetry froze (see :meth:`freeze_telemetry`).
        self._frozen_at_s: Optional[float] = None
        self._frozen_totals = {}

    def add_group(
        self, name: str, parent: Optional[str] = None, now: float = 0.0
    ) -> PsiGroup:
        """Create the pressure domain for a cgroup.

        Args:
            name: unique domain name (the cgroup path).
            parent: name of the parent domain; the machine-wide domain is
                always an implicit ancestor and need not be named.
        """
        if name in self._groups:
            raise ValueError(f"PSI group {name!r} already exists")
        parent_group = None
        if parent is not None:
            parent_group = self._groups.get(parent)
            if parent_group is None:
                raise KeyError(f"unknown parent PSI group {parent!r}")
        group = PsiGroup(name, ncpu=self.ncpu, now=now, parent=parent_group)
        self._groups[name] = group
        return group

    def group(self, name: str) -> PsiGroup:
        return self._groups[name]

    def groups(self) -> List[PsiGroup]:
        """All pressure domains, the system-wide one included."""
        return list(self._groups.values())

    def lineage(self, group_name: str) -> List[PsiGroup]:
        """The domains a transition of a task in ``group_name`` hits:
        the group, its ancestors, and the machine-wide domain."""
        group = self._groups[group_name]
        lineage = []
        node: Optional[PsiGroup] = group
        while node is not None:
            lineage.append(node)
            node = node.parent
        if group is not self.system:
            lineage.append(self.system)
        return lineage

    def add_task(self, name: str, group_name: str) -> PsiTask:
        """Register a task whose transitions hit ``group_name`` and ancestors."""
        if name in self._tasks:
            raise ValueError(f"PSI task {name!r} already exists")
        task = PsiTask(name, self.lineage(group_name))
        self._tasks[name] = task
        return task

    def remove_task(self, name: str, now: float) -> None:
        """Deregister a task, first settling it to idle."""
        task = self._tasks.pop(name)
        task.set_flags(TaskFlags.NONE, now)

    def task(self, name: str) -> PsiTask:
        return self._tasks[name]

    def tick(self, now: float) -> None:
        """Advance all domains to ``now`` (integrals + running averages)."""
        for group in self._groups.values():
            group.tick(now)

    def some_total(self, group_name: str, resource: Resource) -> float:
        """Cumulative ``some`` stall seconds for a domain — the counter
        Senpai diffs between polling periods.

        While the telemetry is frozen (an injected fault; see
        :meth:`freeze_telemetry`) this serves the value captured at
        freeze time: the counter appears stuck, exactly like a hung
        pressure-file reader in production.
        """
        if self._frozen_at_s is not None:
            key = (group_name, resource)
            if key in self._frozen_totals:
                return self._frozen_totals[key]
        return self._groups[group_name].total(resource, "some")

    # ------------------------------------------------------------------
    # telemetry-fault seam

    @property
    def telemetry_frozen(self) -> bool:
        return self._frozen_at_s is not None

    def telemetry_age_s(self, now: float) -> float:
        """Seconds since the served telemetry was last fresh.

        0.0 while healthy; grows monotonically while frozen. Controllers
        use this as their staleness signal instead of guessing from
        unchanged counters (a genuinely idle host also has unchanged
        counters).
        """
        if self._frozen_at_s is None:
            return 0.0
        return max(0.0, now - self._frozen_at_s)

    def freeze_telemetry(self, now: float) -> None:
        """Freeze the *read side* of PSI at its current values.

        Accumulation continues underneath (the stalls are still
        happening — only their reporting is stuck), so invariant checks
        against internal state stay valid. Idempotent: re-freezing
        keeps the original capture.
        """
        if self._frozen_at_s is not None:
            return
        self._frozen_at_s = now
        self._frozen_totals = {}
        for name, group in self._groups.items():
            for resource in Resource:
                self._frozen_totals[(name, resource)] = group.total(
                    resource, "some"
                )

    def thaw_telemetry(self) -> None:
        """Resume serving live telemetry."""
        self._frozen_at_s = None
        self._frozen_totals = {}
