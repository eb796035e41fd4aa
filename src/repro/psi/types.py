"""Task states and resources tracked by PSI."""

from __future__ import annotations

import enum


class Resource(enum.Enum):
    """Resources for which PSI reports pressure."""

    CPU = "cpu"
    MEMORY = "memory"
    IO = "io"


class TaskFlags(enum.IntFlag):
    """Scheduling-relevant state bits of a simulated task.

    Mirrors the kernel's PSI task accounting:

    * ``RUNNING``  — the task currently occupies a CPU.
    * ``RUNNABLE`` — the task wants a CPU but is waiting for one
      (contributes to CPU pressure).
    * ``MEMSTALL`` — the task is delayed by a memory-shortage event:
      direct reclaim, a refault of recently evicted file cache, or a
      swap-in (contributes to memory pressure).
    * ``IOSTALL``  — the task is blocked on block-IO completion
      (contributes to IO pressure).

    A task with no flags set is idle (sleeping on something unrelated to
    resource shortage) and is invisible to PSI.
    """

    NONE = 0
    RUNNING = enum.auto()
    RUNNABLE = enum.auto()
    MEMSTALL = enum.auto()
    IOSTALL = enum.auto()

    @property
    def nonidle(self) -> bool:
        """True when the task counts toward the domain's compute potential."""
        return self != TaskFlags.NONE

    def stalled_on(self, resource: Resource) -> bool:
        """True when this state stalls on ``resource``."""
        if resource is Resource.MEMORY:
            return bool(self & TaskFlags.MEMSTALL)
        if resource is Resource.IO:
            return bool(self & TaskFlags.IOSTALL)
        # CPU: runnable but not actually running.
        return bool(self & TaskFlags.RUNNABLE) and not bool(
            self & TaskFlags.RUNNING
        )

    def productive_for(self, resource: Resource) -> bool:
        """True when this state represents productive work w.r.t. ``resource``.

        A task is productive for memory/IO when it is running (or at least
        runnable, i.e. it *could* run) and not stalled on the resource; for
        CPU, only a task actually occupying a CPU is productive.
        """
        if resource is Resource.CPU:
            return bool(self & TaskFlags.RUNNING)
        on_cpu_or_waiting = bool(self & (TaskFlags.RUNNING | TaskFlags.RUNNABLE))
        return on_cpu_or_waiting and not self.stalled_on(resource)


#: Resources in a fixed order, used to index the transition table and
#: the per-group counter lists.
RESOURCE_ORDER: "tuple[Resource, ...]" = (
    Resource.CPU, Resource.MEMORY, Resource.IO,
)

#: Ordinal of each resource in :data:`RESOURCE_ORDER`.
RESOURCE_INDEX = {resource: i for i, resource in enumerate(RESOURCE_ORDER)}

#: Number of distinct :class:`TaskFlags` values (4 bits).
N_FLAG_STATES = 16


def _transition_delta(old: TaskFlags, new: TaskFlags):
    """Counter deltas for one ``old -> new`` flag transition.

    Returns the seven deltas ``(stalled cpu, stalled memory, stalled
    io, productive cpu, productive memory, productive io, nonidle)``,
    resources in :data:`RESOURCE_ORDER`. Derived from
    :meth:`TaskFlags.stalled_on` / :meth:`TaskFlags.productive_for` so
    the table below can never drift from the predicate definitions.
    """
    stalled = tuple(
        int(new.stalled_on(r)) - int(old.stalled_on(r))
        for r in RESOURCE_ORDER
    )
    productive = tuple(
        int(new.productive_for(r)) - int(old.productive_for(r))
        for r in RESOURCE_ORDER
    )
    return stalled + productive + (int(new.nonidle) - int(old.nonidle),)


#: ``TRANSITION_DELTAS[old_value * N_FLAG_STATES + new_value]`` gives the
#: counter deltas of that transition without any per-event enum
#: arithmetic; :meth:`repro.psi.group.PsiGroup.sweep` indexes it once
#: per transition. Code 0 (``NONE -> NONE``) moves nothing.
TRANSITION_DELTAS = tuple(
    _transition_delta(TaskFlags(old_value), TaskFlags(new_value))
    for old_value in range(N_FLAG_STATES)
    for new_value in range(N_FLAG_STATES)
)
